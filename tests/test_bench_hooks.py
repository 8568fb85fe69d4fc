"""The program names the benchmark's traced run reaches from outside.

``bench/spans.py`` replaces module and class attributes of the program
with span wrappers, and ``bench/layers.py`` runs the solver on a stand-in
feature map. A rename in ``src/`` would break that run without failing
any other test, so these tests load both files and check the names.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from assetsvm import SolverParams, asset_train, estimate_dg, feasible_region
from helpers import planted_dataset

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans

        yield spans, layers
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_target_exists(bench_modules):
    spans, _ = bench_modules
    targets = spans._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__} has no attribute {attr!r}"
        assert callable(owner.__dict__[attr])


def test_solver_runs_on_precomputed_rows(bench_modules):
    _, layers = bench_modules
    ds = planted_dataset(12, 3, seed=0)
    rows = np.random.default_rng(1).normal(size=(ds.m, 4))
    fixed = layers.PrecomputedRows(rows)
    region = feasible_region("classification", 0.1, ds.labels)
    params = SolverParams(lam=0.1, iterations=50, seed=2)
    assert estimate_dg(fixed, ds, params, region).dg > 0.0
    gamma, b = asset_train(fixed, ds, params, region)
    assert gamma.shape == (4,)
    assert np.all(np.isfinite(gamma)) and np.isfinite(b)
