"""A fixed calibration workload that measures how fast the machine runs now.

The host this benchmark was built on shifts between speed regimes for
minutes at a time: a fixed pure-Python loop ran up to 40% faster in some
stretches than in others, the same for every workload and every step.
No run length averages that out, so the end-to-end times are scaled by
this probe. The probe does the three kinds of work the program does, in
about equal shares: interpreter arithmetic, numpy calls on short vectors
(as in the solver loop and the feature maps), and number formatting and
parsing (as in libsvm and model files). It imports nothing from the
program, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The probe's median on the reference machine (bench/README.md) in its
# usual regime. A scaled time is a step's wall time times REFERENCE_S over
# the probe's time right after that step: the time the step would take
# with the machine at its usual speed.
REFERENCE_S = 0.050

_VECTOR = np.linspace(0.0, 1.0, 128)
_TEXT = " ".join(f"{i + 1}:{x!r}" for i, x in enumerate(_VECTOR.tolist()))


def _work() -> float:
    total = 0
    for i in range(120_000):
        total += i * i % 7
    v = _VECTOR.copy()
    for _ in range(2_400):
        v = v * 0.999 + 0.001 * np.cos(v)
        total += float(v @ _VECTOR)
    for _ in range(160):
        total += sum(float(token.partition(":")[2]) for token in _TEXT.split())
    return total


def seconds() -> float:
    """Wall seconds of one pass of the calibration workload.

    The timed pass follows an untimed one, so that it does not depend on
    what the step before it left in the caches and the allocator: right
    after a `train` on moons-nystrom a single pass ran about 20% slower
    than right after a `predict`.
    """
    # Garbage left by the step before would otherwise be collected inside
    # the timing.
    gc.collect()
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
