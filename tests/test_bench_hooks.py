"""The program names the benchmark's traced run reaches from outside.

``bench/spans.py`` replaces module and class attributes of the program
with span wrappers, and ``bench/layers.py`` runs the solver on a stand-in
feature map. A rename in ``src/`` would break that run without failing
any other test, so these tests load both files and check the names, and
what the traced run reads of scoring: ``predict`` still makes one
``model.decide`` call per point, and ``eval --model``, which scores dense
blocks without one, still counts every point's kernel values or cosines
in its ``cli.eval`` span.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from assetsvm import SolverParams, asset_train, cli, estimate_dg, feasible_region
from helpers import planted_dataset, write_libsvm

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


@pytest.mark.parametrize("approx, size", [("nystrom", ["--s", "9"]), ("fourier", ["--d", "13"])])
def test_each_point_is_one_traced_decision(bench_modules, approx, size, tmp_path):
    spans, _ = bench_modules
    train = write_libsvm(tmp_path / "train.svm", planted_dataset(30, 3, seed=3))
    test = write_libsvm(tmp_path / "test.svm", planted_dataset(17, 3, seed=4))
    model = str(tmp_path / "model.txt")
    args = ["train", "--task", "class", "--approx", approx, *size, "--iters", "100",
            "--data", train, "--model", model]
    assert cli.main(args) == 0
    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(
            ["predict", "--model", model, "--data", test, "--out", str(tmp_path / "pred.txt")]
        ) == 0
    decides = [s for s in tracer.spans if s.name == "model.decide"]
    assert len(decides) == 17
    assert {s.evals for s in decides} == {int(size[1])}
    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["eval", "--model", model, "--data", test]) == 0
    # eval scores its dense rows in blocks; the traced run reads only the
    # evaluations of its command span
    assert not [s for s in tracer.spans if s.name == "model.decide"]
    (evaluate,) = [s for s in tracer.spans if s.name == "cli.eval"]
    assert evaluate.evals == 17 * int(size[1])
