"""Benchmark: seeded workloads through ``assetsvm train`` -> ``predict`` -> ``eval``.

Usage (from the repository root):

    python3 bench/run.py --workload moons-nystrom --seed 1 --seconds 36 --trace 0

The benchmark runs whole rounds for about ``--seconds``, one step
at a time: a set-up sample, which writes the workload's libsvm files
from ``--seed`` over and over for at least ``SETUP_SAMPLE_S``, then the
three CLI commands through ``assetsvm.cli.main`` in
this process. Each step is followed by a pass of the calibration probe
(``probe.py``), and the end-to-end times are scaled by it. After the
timed rounds it runs train and predict once more, each in a fresh
process, for their peak resident memory. Every output is checked against
reference computations in ``reference.py``. It prints the unscaled
medians on a line that starts with ``wall``, then each metric by name
and unit. The last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, from
rounds with no wrappers installed; with ``--trace 1`` untraced and traced
rounds alternate and the metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import os

# BLAS gets one thread, so that on a small shared machine the numbers
# measure the program rather than the scheduler. Set before numpy loads;
# the memory children inherit it.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402
import reference as ref  # noqa: E402
from workloads import MOONS_NOISE, SINE_NOISE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 60

# Accuracy margins over the Bayes error of each task. They cover the
# kernel approximation, the finite training set and the sampling error of
# the test set (its standard error is under 0.005 at these sizes).
MOONS_MARGIN = 0.03
SPARSE_MARGIN = 0.04
# Mean tube loss against sin(2 pi x) may be at most a tenth of the label
# noise: predictions leave the epsilon tube around the truth only rarely.
SINE_LOSS_SHARE = 0.1
# Shortest stretch of repeated set-ups that makes one setup_s sample.
SETUP_SAMPLE_S = 0.25


@dataclass
class Round:
    """Wall times, exit codes and output bytes of one train/predict/eval round."""

    seconds: dict[str, float] = field(default_factory=dict)
    # The probe's time right after each command (see probe.py).
    probes: dict[str, float] = field(default_factory=dict)
    codes: list[int] = field(default_factory=list)
    eval_text: str = ""
    outputs: dict[str, bytes] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def read_outputs(paths: dict[str, Path]) -> dict[str, bytes]:
    return {key: path.read_bytes() for key, path in paths.items() if path.exists()}


def run_command(cli, argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in this process; return exit code, seconds, stdout."""
    gc.collect()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, buffer.getvalue()


class Bench:
    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.model = work / "model.txt"
        self.pred = work / "pred.txt"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: Round | None = None
        self.probes: list[float] = []

    def command(self, argv: list[str]) -> tuple[int, float, str]:
        code, seconds, text = run_command(self.cli, argv)
        self.attempted += 1
        if code != 0:
            self.failed += 1
        return code, seconds, text

    def round(self) -> Round:
        w = self.workload
        r = Round()
        for name, argv in (
            ("train", w.train_argv(self.work, self.seed, self.model)),
            ("predict", w.predict_argv(self.work, self.model, self.pred)),
            ("eval", w.eval_argv(self.work, self.model)),
        ):
            code, r.seconds[name], text = self.command(argv)
            r.probes[name] = probe.seconds()
            self.probes.append(r.probes[name])
            r.codes.append(code)
        r.eval_text = text
        paths = {"model": self.model, "pred": self.pred}
        if w.monitored:
            paths["metrics"] = self.work / "metrics.csv"
        r.outputs = read_outputs(paths)
        if self.first is None:
            self.first = r
        else:
            self.same_as_first(r.outputs, "round")
        return r

    def same_as_first(self, outputs: dict[str, bytes], what: str) -> None:
        for key, data in outputs.items():
            if data != self.first.outputs.get(key):
                self.problems.append(f"{what}: {key} bytes differ from the first round's")

    def peak_rss_mib(self, argv: list[str]) -> float:
        """Peak resident memory of a fresh process that runs only ``argv``."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), *argv],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        self.attempted += 1
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"exit": -1}
        if report["exit"] != 0:
            self.failed += 1
            return math.nan
        return report["peak_rss_kib"] / 1024.0


def check_outputs(bench: Bench, parts) -> None:
    """Check the first round's outputs against the reference computations."""
    w = bench.workload
    problems = bench.problems
    r = bench.first
    if any(r.codes):
        return
    test = parts["test"]
    model = ref.parse_model(r.outputs["model"].decode("utf-8"))
    values = ref.decisions(model, test)
    tol = ref.DECISION_RTOL * model.term_scale()

    lines = r.outputs["pred"].decode("utf-8").splitlines()
    if len(lines) != test.m:
        problems.append(f"predict wrote {len(lines)} lines for {test.m} points")
        return
    fields = [line.split() for line in lines]
    predicted = np.array([float(f[-1]) for f in fields])
    if w.classification:
        printed = np.array([int(f[0]) for f in fields])
        if np.any(printed != ref.labels_of(predicted)):
            problems.append("a predicted label is not the sign of its value (ties to +1)")
    gap = float(np.max(np.abs(predicted - values)))
    if gap > tol:
        problems.append(f"predicted values differ from the reference by {gap} > {tol}")

    error = float(r.eval_text)
    if w.classification:
        wrong = int(np.sum(ref.labels_of(values) != test.labels))
        ambiguous = int(np.sum(np.abs(values) <= tol))
        count = round(error * test.m)
        if count / test.m != error or abs(count - wrong) > ambiguous:
            problems.append(f"eval printed {error}, reference error is {wrong}/{test.m}")
    else:
        expected = ref.tube_loss(values, test.labels, w.epsilon)
        if abs(error - expected) > tol:
            problems.append(f"eval printed {error}, reference tube loss is {expected}")

    if w.name == "moons-nystrom":
        bayes = ref.moons_bayes_error(MOONS_NOISE)
        if error > bayes + MOONS_MARGIN:
            problems.append(f"test error {error} above Bayes error {bayes} + {MOONS_MARGIN}")
    elif w.name == "sparse-fourier-monitored":
        flip = ref.planted_flip_rate(test)
        if error > flip + SPARSE_MARGIN:
            problems.append(f"test error {error} above planted flip rate {flip} + {SPARSE_MARGIN}")
    else:
        loss = ref.tube_loss(values, ref.sine_target(test), w.epsilon)
        if loss > SINE_LOSS_SHARE * SINE_NOISE:
            problems.append(f"tube loss {loss} against sin(2 pi x) above {SINE_LOSS_SHARE} * noise")

    if w.monitored:
        check_metrics_csv(problems, r.outputs["metrics"].decode("utf-8"), w)


def check_metrics_csv(problems: list[str], text: str, w) -> None:
    lines = text.splitlines()
    if lines[0] != "iteration,seconds,objective,eval_error":
        problems.append("metrics CSV header is wrong")
        return
    every = max(1, round(w.train_m / 10))
    expected = list(range(every, w.iterations, every)) + [w.iterations]
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != expected:
        problems.append(f"metrics CSV has {len(rows)} checkpoint rows, expected {len(expected)}")
        return
    objectives = [float(row[2]) for row in rows]
    errors = [float(row[3]) for row in rows]
    if not all(math.isfinite(v) for v in objectives + errors):
        problems.append("metrics CSV holds a non-finite value")
    elif objectives[-1] >= 1.0:
        problems.append(f"final hinge objective {objectives[-1]} not below the zero model's 1")
    elif not all(0.0 <= e <= 1.0 for e in errors):
        problems.append("metrics CSV eval error outside [0, 1]")
    if any(row[1] != "0.0" for row in rows):
        problems.append("metrics CSV seconds column is not 0.0")


def setup_sample(workload, seed: int, work: Path) -> float:
    """Seconds per set-up, over as many set-ups as fill ``SETUP_SAMPLE_S``.

    One set-up of the smaller workloads takes a few tens of milliseconds,
    short enough for a single scheduling hiccup to double it.
    """
    gc.collect()
    count = 0
    start = time.perf_counter()
    while True:
        workload.write(seed, work)
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_SAMPLE_S:
            return elapsed / count


def end_to_end(bench: Bench, parts, seconds: float) -> dict[str, float]:
    w = bench.workload
    rounds = []
    setup = []
    setup_probes = []
    lengths = []
    start = time.perf_counter()
    # Whole rounds only. A round starts while at least half a typical round
    # is left, so that a run lasts about ``seconds`` on every workload.
    while not rounds or time.perf_counter() - start + statistics.median(lengths) / 2 < seconds:
        began = time.perf_counter()
        # A set-up sample is taken once per round so that its samples, like
        # the commands', spread over the whole run rather than one instant.
        setup.append(setup_sample(w, bench.seed, bench.work))
        setup_probes.append(probe.seconds())
        rounds.append(bench.round())
        lengths.append(time.perf_counter() - began)

    child_model = bench.work / "model-child.txt"
    child_pred = bench.work / "pred-child.txt"
    train_rss = bench.peak_rss_mib(w.train_argv(bench.work, bench.seed, child_model))
    predict_rss = bench.peak_rss_mib(w.predict_argv(bench.work, bench.model, child_pred))
    bench.same_as_first(read_outputs({"model": child_model, "pred": child_pred}), "fresh process")
    check_outputs(bench, parts)

    # Each step's time is scaled by the probe taken right after it, then
    # the median over the run is taken; the unscaled medians are printed
    # beside them.
    steps = {
        "setup": (setup, setup_probes),
        **{name: ([r.seconds[name] for r in rounds], [r.probes[name] for r in rounds])
           for name in ("train", "predict", "eval")},
    }
    wall = {f"{name}_s": statistics.median(times) for name, (times, _) in steps.items()}
    wall["probe_s"] = statistics.median(setup_probes + bench.probes)
    print("wall " + json.dumps(wall))
    scaled = {
        name: statistics.median(t * probe.REFERENCE_S / p for t, p in zip(times, probes))
        for name, (times, probes) in steps.items()
    }
    return {
        "setup_s": scaled["setup"],
        "train_s": scaled["train"],
        "predict_pts_per_s": w.test_m / scaled["predict"],
        "eval_pts_per_s": w.test_m / scaled["eval"],
        "train_peak_rss_mb": train_rss,
        "predict_peak_rss_mb": predict_rss,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "assetsvm" / "cli.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from assetsvm import cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    parts = workload.write(args.seed, work)

    bench = Bench(cli, workload, args.seed, work)
    if args.trace:
        from layers import per_layer

        values = per_layer(bench, parts, args.seconds, OUT / f"trace-{workload.name}-{args.seed}.json")
        check_outputs(bench, parts)
    else:
        values = end_to_end(bench, parts, args.seconds)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
