"""Per-layer metrics from a traced run.

Untraced and traced rounds alternate until the run's time is up. Each
traced round installs the span wrappers of ``spans.py``; its spans give
the per-layer figures, and the median over traced rounds is reported.
Two figures are measured directly instead, after the round, with the
wrappers removed: the solver loop over precomputed feature rows (so that
feature cost is excluded) and one objective evaluation. A layer that does
not run on a workload (the eigendecomposition under cosine features, the
metrics callback without ``--metrics``) reports 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from assetsvm import oracle, solver
from spans import Tracer, installed, self_seconds, write_spans


class PrecomputedRows:
    """Feature map stand-in that returns rows computed before the timed loop."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.dim = rows.shape[1]

    def training_row(self, data, index: int) -> np.ndarray:
        return self.rows[index]


def _solver_us_per_iter(tracer: Tracer) -> float:
    (fmap, data, params, region), _, _ = tracer.last_call["solver.asset_train"]
    fixed = PrecomputedRows(np.stack([fmap.training_row(data, i) for i in range(data.m)]))
    start = time.perf_counter()
    solver.estimate_dg(fixed, data, params, region)
    probe = time.perf_counter() - start
    start = time.perf_counter()
    solver.asset_train(fixed, data, params, region)
    loop = time.perf_counter() - start
    return (loop - probe) / params.iterations * 1e6


def _objective_s(tracer: Tracer) -> float:
    (fmap, data, params, _), _, (gamma, b) = tracer.last_call["solver.asset_train"]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        oracle.feature_objective(gamma, b, fmap, data, params.lam, params.epsilon)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _round_figures(tracer: Tracer, bench, parts) -> dict[str, float]:
    w = bench.workload
    spans = tracer.spans
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in named.get(name, []))

    def mean(name: str) -> float:
        found = named.get(name, [])
        return sum(s.seconds for s in found) / len(found) if found else 0.0

    (train,) = named["cli.train"]
    (predict,) = named["cli.predict"]
    (evaluate,) = named["cli.eval"]
    parses = named["data.load_libsvm"]
    decides = named["model.decide"]
    params = tracer.last_call["solver.asset_train"][0][2]
    nonzeros = parts["train"].nonzeros + 2 * parts["test"].nonzeros
    if w.monitored:
        nonzeros += parts["eval"].nonzeros
    return {
        "data.parse_us_per_line": sum(s.seconds for s in parses) / sum(s.items for s in parses) * 1e6,
        "data.nonzeros": nonzeros,
        "linalg.sym_eig_s": total("linalg.sym_eig"),
        "kernels.build_s": total("kernels.build_nystrom") + total("kernels.build_fourier"),
        "kernels.row_us": mean("kernels.training_row/first") * 1e6,
        "kernels.train_kernel_evals": train.kernel_evals,
        "kernels.train_cosine_evals": train.cosine_evals,
        "solver.us_per_iter": _solver_us_per_iter(tracer),
        "solver.estimate_dg_s": total("solver.estimate_dg"),
        "solver.iterations": params.iterations,
        "oracle.objective_s": _objective_s(tracer),
        "oracle.calls": len(named.get("oracle.feature_objective", [])),
        "model.recover_alpha_s": total("model.recover_alpha"),
        "model.save_s": total("model.save_model"),
        "model.load_s": mean("model.load_model"),
        "model.file_bytes": bench.model.stat().st_size,
        "model.decide_us_per_pt": mean("model.decide") * 1e6,
        "model.evals_per_decide": sum(s.evals for s in decides) / len(decides),
        "cli.predict_evals_per_pt": predict.evals / w.test_m,
        "cli.eval_evals_per_pt": evaluate.evals / w.test_m,
        "cli.train_self_s": self_seconds(train, spans),
        "cli.predict_self_s": self_seconds(predict, spans),
    }


def per_layer(bench, parts, seconds: float, trace_path) -> dict[str, float]:
    w = bench.workload
    tracers: list[Tracer] = []
    untraced: list[float] = []
    traced: list[float] = []
    monitored_train: list[float] = []
    plain_train: list[float] = []
    figures: list[dict[str, float]] = []
    lengths: list[float] = []
    start = time.perf_counter()
    # As in the end-to-end run: whole pairs of rounds for about ``seconds``.
    while not tracers or time.perf_counter() - start + statistics.median(lengths) / 2 < seconds:
        began = time.perf_counter()
        r = bench.round()
        untraced.append(r.total_s)
        if w.monitored:
            monitored_train.append(r.seconds["train"])
            _, plain, _ = bench.command(
                w.train_argv(bench.work, bench.seed, bench.work / "model-plain.txt", monitored=False)
            )
            plain_train.append(plain)
        tracer = Tracer()
        with installed(tracer):
            r = bench.round()
        traced.append(r.total_s)
        tracers.append(tracer)
        figures.append(_round_figures(tracer, bench, parts))
        lengths.append(time.perf_counter() - began)

    evals = {f["model.evals_per_decide"] for f in figures}
    if evals != {w.dim}:
        bench.problems.append(f"kernel/cosine evaluations per decide were {evals}, not {w.dim}")
    write_spans(trace_path, tracers)

    values = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    values["cli.metrics_overhead_s"] = (
        statistics.median(monitored_train) - statistics.median(plain_train) if w.monitored else 0.0
    )
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["machine.probe_s"] = statistics.median(bench.probes)
    return values
