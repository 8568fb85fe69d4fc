"""Span recording around the program's public functions, from outside it.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which the CLI reaches each layer with wrappers
that record a span per call: name, start, end, parent span, and the
kernel/cosine evaluation counters read before and after. Spans stay in
memory until the benchmark writes them out. The program's code is not
changed; leaving the block restores every attribute.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

from assetsvm import cli, kernels, model, solver

_FIRST = "kernels.training_row/first"
_REPEAT = "kernels.training_row/repeat"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    kernel_evals: int
    cosine_evals: int
    items: int | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    @property
    def evals(self) -> int:
        return self.kernel_evals + self.cosine_evals


class Tracer:
    """Collects spans; keeps the last arguments and result of each span name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.last_call: dict[str, tuple[tuple, dict, object]] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._rows_seen: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn: Callable, items: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "kernels.training_row":
                key = (id(args[0]), int(args[2]))
                span_name = _REPEAT if key in self._rows_seen else _FIRST
                self._rows_seen.add(key)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            before = kernels.eval_counts()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                after = kernels.eval_counts()
                self._stack.pop()
            self.spans.append(
                Span(
                    span_id, parent, span_name, start, end,
                    after["kernel"] - before["kernel"],
                    after["cosine"] - before["cosine"],
                    items(result) if items is not None else None,
                )
            )
            self.last_call[name] = (args, kwargs, result)
            return result

        return traced

    def rows(self) -> list[list]:
        return [
            [s.id, s.parent, s.name, s.start_ns, s.end_ns, s.kernel_evals, s.cosine_evals, s.items]
            for s in self.spans
        ]


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced round, one list per round."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["id", "parent", "name", "start_ns", "end_ns",
                           "kernel_evals", "cosine_evals", "items"],
                "rounds": [t.rows() for t in tracers],
            },
            handle,
            separators=(",", ":"),
        )


def _targets() -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, item counter) for every traced call site."""
    return [
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_predict", "cli.predict", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "load_libsvm", "data.load_libsvm", lambda data: data.m),
        (cli, "build_nystrom", "kernels.build_nystrom", None),
        (cli, "build_fourier", "kernels.build_fourier", None),
        (kernels, "sym_eig", "linalg.sym_eig", None),
        (kernels.NystromMap, "training_row", "kernels.training_row", None),
        (kernels.FourierMap, "training_row", "kernels.training_row", None),
        (solver, "estimate_dg", "solver.estimate_dg", None),
        (cli, "asset_train", "solver.asset_train", None),
        (cli, "feature_objective", "oracle.feature_objective", None),
        (cli, "recover_alpha", "model.recover_alpha", None),
        (cli, "save_model", "model.save_model", None),
        (cli, "load_model", "model.load_model", None),
        (cli, "decide", "model.decide", None),
        (model, "decide", "model.decide", None),
        (cli, "predict_label", "model.predict_label", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, items in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, items))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_seconds(span: Span, spans: list[Span]) -> float:
    """A span's duration minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap
    and their durations add.
    """
    return span.seconds - sum(s.seconds for s in spans if s.parent == span.id)
