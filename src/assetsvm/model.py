"""Decision functions, expansion-coefficient recovery, and model files.

A trained model carries the solver solution (gamma, b) plus whatever lets
it score arbitrary points: the cosine-feature map itself, or, for the
landmark approximation, expansion coefficients over the stored landmark
points so that prediction costs exactly one kernel evaluation per
landmark, independent of how many training examples were support vectors.

The file format is line-oriented UTF-8 text under the header
``ASSET-MODEL v1``. Floats are written with shortest-roundtrip precision,
so a loaded model reproduces its decisions bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from io import StringIO
from typing import IO

import numpy as np

from .data import DataFormatError, SparseVector, format_row, parse_row
from .kernels import (
    FourierMap,
    GaussianKernel,
    NystromMap,
    _dense_block,
    _kernel_row,
)

MODEL_HEADER = "ASSET-MODEL v1"
TASK_NAMES = ("classification", "regression")
APPROX_NAMES = ("nystrom", "fourier")


class ModelFormatError(ValueError):
    """Unreadable, unsupported, or internally inconsistent model file."""


@dataclass(frozen=True, eq=False)
class NystromRecovery:
    """Expansion coefficients over the landmark points of a trained map."""

    alpha: np.ndarray
    support_points: tuple[SparseVector, ...]
    sigma: float
    _kernel: GaussianKernel = field(init=False, repr=False)
    _dense: np.ndarray = field(init=False, repr=False)
    _norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_kernel", GaussianKernel(self.sigma))
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "support_points", tuple(self.support_points))
        if alpha.ndim != 1 or alpha.size != len(self.support_points):
            raise ValueError("alpha and support_points must have matching length")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")
        top = max((p.max_index for p in self.support_points), default=-1)
        dense, norms = _dense_block(self.support_points, top + 1)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_norms", norms)

    @property
    def sample_size(self) -> int:
        return len(self.support_points)


@dataclass(frozen=True, eq=False)
class Model:
    """Serializable decision function for either approximation family."""

    task: str
    approx: str
    gamma: np.ndarray
    b: float
    lam: float
    sigma: float
    input_dim: int
    payload: FourierMap | NystromRecovery

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=np.float64))
        if self.task not in TASK_NAMES:
            raise ValueError(f"unknown task {self.task!r}")
        if self.approx not in APPROX_NAMES:
            raise ValueError(f"unknown approximation {self.approx!r}")
        if not (
            np.all(np.isfinite(self.gamma)) and math.isfinite(self.b) and math.isfinite(self.lam)
        ):
            raise ValueError("model coefficients and lambda must be finite")
        if self.approx == "fourier":
            if not isinstance(self.payload, FourierMap):
                raise ValueError("fourier models require a FourierMap payload")
            if self.gamma.size != self.payload.dim:
                raise ValueError("gamma length must match the feature dimension")
            payload_sigma = self.payload.kernel.sigma
        else:
            if not isinstance(self.payload, NystromRecovery):
                raise ValueError("nystrom models require a NystromRecovery payload")
            payload_sigma = self.payload.sigma
        if self.sigma != payload_sigma:
            # the file stores Model.sigma, and loading rebuilds the kernel from it
            raise ValueError(
                f"sigma {self.sigma!r} differs from the payload's kernel width {payload_sigma!r}"
            )


def recover_alpha(nmap: NystromMap, gamma: np.ndarray) -> NystromRecovery:
    """Minimum-norm expansion coefficients over the landmark set.

    The coefficients are the scaled eigenbasis applied to gamma; pushing
    them back through the landmark feature rows reproduces gamma, so the
    expansion scores agree with the feature-space decision function. The
    cost is one (sample_size x dim) product, paid once at save time.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (nmap.dim,):
        raise ValueError(f"gamma must have length {nmap.dim}, got {gamma.shape}")
    alpha = nmap.basis @ (nmap.inv_sqrt_eigs * gamma)
    return NystromRecovery(alpha=alpha, support_points=nmap.sample_points, sigma=nmap.kernel.sigma)


def decide(model: Model, x: SparseVector) -> float:
    """Raw decision value for one point.

    Fourier models score through the cosine features; landmark models
    evaluate the kernel against each stored landmark exactly once.
    """
    if x.max_index >= model.input_dim:
        raise ValueError(
            f"point uses feature index {x.max_index + 1} beyond model dimension {model.input_dim}"
        )
    if model.approx == "fourier":
        return float(np.dot(model.payload.map_point(x), model.gamma)) + model.b
    payload = model.payload
    kvec = _kernel_row(payload._kernel, payload._dense, payload._norms, x)
    return float(np.dot(kvec, payload.alpha)) + model.b


def predict_label(model: Model, x: SparseVector) -> int:
    """Classification label with ties at zero resolved to +1."""
    return 1 if decide(model, x) >= 0.0 else -1


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_vector(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def save_model(model: Model, sink: str | IO[str]) -> None:
    """Write a model file (see module docstring for the layout)."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as handle:
            save_model(model, handle)
        return
    out = sink
    out.write(MODEL_HEADER + "\n")
    out.write(f"task {model.task}\n")
    out.write(f"approx {model.approx}\n")
    out.write(f"sigma {_fmt(model.sigma)}\n")
    out.write(f"lambda {_fmt(model.lam)}\n")
    out.write(f"bias {_fmt(model.b)}\n")
    out.write(f"n {model.input_dim}\n")
    out.write(f"d {model.gamma.size}\n")
    if model.approx == "fourier":
        fmap = model.payload
        out.write(f"gamma {_fmt_vector(model.gamma)}\n")
        out.write(f"offsets {_fmt_vector(fmap.offsets)}\n")
        for row in fmap.frequencies:
            out.write(f"freq {_fmt_vector(row)}\n")
    else:
        payload = model.payload
        out.write(f"s {payload.sample_size}\n")
        out.write(f"gamma {_fmt_vector(model.gamma)}\n")
        out.write(f"alpha {_fmt_vector(payload.alpha)}\n")
        for point in payload.support_points:
            out.write(f"support{format_row(point)}\n")


class _LineReader:
    def __init__(self, source: IO[str]):
        self._lines = iter(source)
        self.lineno = 0

    def next(self, expect: str | None = None) -> str:
        try:
            line = next(self._lines)
        except StopIteration:
            raise ModelFormatError("model file is truncated") from None
        self.lineno += 1
        text = line.rstrip("\n")
        if expect is not None:
            if not text.startswith(expect + " ") and text != expect:
                raise ModelFormatError(
                    f"line {self.lineno}: expected {expect!r} entry, got {text!r}"
                )
            return text[len(expect) :].strip()
        return text


def _parse_floats(text: str, count: int, what: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) != count:
        raise ModelFormatError(f"{what} has {len(tokens)} values, expected {count}")
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError:
        raise ModelFormatError(f"non-numeric value in {what}") from None
    if not np.isfinite(values).all():
        raise ModelFormatError(f"non-finite value in {what}")
    return values


def load_model(source: str | IO[str]) -> Model:
    """Read a model file back; inverse of :func:`save_model`."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_model(handle)
    reader = _LineReader(source)
    header = reader.next()
    if header != MODEL_HEADER:
        if header.startswith("ASSET-MODEL"):
            raise ModelFormatError(f"unsupported model version {header!r}")
        raise ModelFormatError("not a model file (bad header)")
    task = reader.next("task")
    approx = reader.next("approx")
    if task not in TASK_NAMES:
        raise ModelFormatError(f"unknown task {task!r}")
    if approx not in APPROX_NAMES:
        raise ModelFormatError(f"unknown approximation {approx!r}")
    try:
        sigma = float(reader.next("sigma"))
        lam = float(reader.next("lambda"))
        bias = float(reader.next("bias"))
        input_dim = int(reader.next("n"))
        dim = int(reader.next("d"))
    except ValueError:
        raise ModelFormatError("non-numeric header field") from None
    if dim < 1 or input_dim < 0:
        raise ModelFormatError("dimensions must be positive")
    try:
        kernel = GaussianKernel(sigma)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None

    if approx == "fourier":
        gamma = _parse_floats(reader.next("gamma"), dim, "gamma")
        offsets = _parse_floats(reader.next("offsets"), dim, "offsets")
        # d and n are untrusted until the gamma line and the first freq row
        # have matched them by token count; only then is the matrix allocated.
        first = _parse_floats(reader.next("freq"), input_dim, "freq row 1")
        try:
            freqs = np.empty((dim, input_dim))
        except MemoryError:
            raise ModelFormatError(
                f"a {dim} x {input_dim} frequency matrix does not fit in memory"
            ) from None
        freqs[0] = first
        for k in range(1, dim):
            freqs[k] = _parse_floats(reader.next("freq"), input_dim, f"freq row {k + 1}")
        payload: FourierMap | NystromRecovery = FourierMap(
            kernel=kernel, frequencies=freqs, offsets=offsets, input_dim=input_dim
        )
    else:
        try:
            sample_size = int(reader.next("s"))
        except ValueError:
            raise ModelFormatError("non-numeric sample size") from None
        gamma = _parse_floats(reader.next("gamma"), dim, "gamma")
        alpha = _parse_floats(reader.next("alpha"), sample_size, "alpha")
        points = []
        for k in range(sample_size):
            text = reader.next("support")
            try:
                point = parse_row(text.split(), reader.lineno)
            except DataFormatError as exc:
                raise ModelFormatError(str(exc)) from None
            if point.max_index >= input_dim:
                raise ModelFormatError(
                    f"support point {k + 1} exceeds the declared dimension {input_dim}"
                )
            points.append(point)
        try:
            payload = NystromRecovery(alpha=alpha, support_points=tuple(points), sigma=sigma)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
        except MemoryError:
            # the dense support block is as wide as the largest support index
            raise ModelFormatError("the support points' dense block does not fit in memory") from None

    try:
        return Model(
            task=task,
            approx=approx,
            gamma=gamma,
            b=bias,
            lam=lam,
            sigma=sigma,
            input_dim=input_dim,
            payload=payload,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def model_to_text(model: Model) -> str:
    buffer = StringIO()
    save_model(model, buffer)
    return buffer.getvalue()
