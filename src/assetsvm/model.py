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

import functools
import itertools
import math
import os
import shutil
from dataclasses import dataclass
from io import StringIO
from typing import IO, Iterator

import numpy as np

from . import halves
from .data import DataFormatError, SparseRows, SparseVector, format_row, not_utf8, parse_row
from .kernels import (
    FourierMap,
    GaussianKernel,
    Landmarks,
    NystromMap,
    add_eval_counts,
    eval_counts,
    reset_eval_counts,
)

MODEL_HEADER = "ASSET-MODEL v1"
TASK_NAMES = ("classification", "regression")
APPROX_NAMES = ("nystrom", "fourier")
# Characters a saved frequency takes, separator included: shortest-repr
# doubles drawn from a normal distribution print as 18-21 of them. It sizes
# a file before it is written, to decide whether to split the formatting.
FLOAT_TEXT_BYTES = 20
# Scoring splits between this process and a child once the rows' kernel
# values or cosines, points times s or d, reach this many. A decision costs
# 5-10 µs, and the split's fixed cost (fork, the child's start and exit) is
# several milliseconds. In alternating timed runs on a 2-core x86 host (one
# BLAS thread) the split broke even between 64 000 and 80 000 with dense
# rows (s = 80, d = 64) and near 100 000 with sparse 1000-feature rows
# (d = 128); from 128 000 on it won everywhere.
MIN_SPLIT_EVALS = 100_000


class ModelFormatError(ValueError):
    """Unreadable, unsupported, or internally inconsistent model file."""


@dataclass(frozen=True, eq=False)
class NystromRecovery:
    """Expansion coefficients over the landmark points of a trained map."""

    alpha: np.ndarray
    landmarks: Landmarks

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        if alpha.ndim != 1 or alpha.size != len(self.landmarks):
            raise ValueError("alpha and landmarks must have matching length")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")


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
            width = self.payload.frequencies.shape[1]
            if width != self.input_dim:
                raise ValueError(
                    f"frequencies have {width} columns for input dimension {self.input_dim}"
                )
            payload_sigma = self.payload.kernel.sigma
        else:
            if not isinstance(self.payload, NystromRecovery):
                raise ValueError("nystrom models require a NystromRecovery payload")
            width = self.payload.landmarks.width
            if width > self.input_dim:
                raise ValueError(
                    f"landmarks use feature index {width} beyond input dimension {self.input_dim}"
                )
            payload_sigma = self.payload.landmarks.kernel.sigma
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
    cost is one (len(landmarks) x dim) product, paid once at save time.
    The model shares the map's landmarks and their kernel table.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (nmap.dim,):
        raise ValueError(f"gamma must have length {nmap.dim}, got {gamma.shape}")
    alpha = nmap.basis @ (nmap.inv_sqrt_eigs * gamma)
    return NystromRecovery(alpha=alpha, landmarks=nmap.landmarks)


def decide(model: Model, x: SparseVector) -> float:
    """Raw decision value for one point.

    Fourier models score through the cosine features; landmark models
    evaluate the kernel against each stored landmark exactly once.
    """
    idx = x.indices
    if idx.size and idx[-1] >= model.input_dim:
        raise ValueError(
            f"point uses feature index {idx[-1] + 1} beyond model dimension {model.input_dim}"
        )
    if model.approx == "fourier":
        return float(model.payload.map_point(x).dot(model.gamma)) + model.b
    payload = model.payload
    return float(payload.landmarks.row(x).dot(payload.alpha)) + model.b


def predict_label(model: Model, x: SparseVector) -> int:
    """Classification label with ties at zero resolved to +1."""
    return 1 if decide(model, x) >= 0.0 else -1


def _evals_per_point(model: Model) -> int:
    if model.approx == "fourier":
        return model.payload.dim
    return len(model.payload.landmarks)


def _decide_into(model: Model, rows: SparseRows, out: np.ndarray) -> None:
    for i, x in enumerate(rows):
        # through the module attribute, which the benchmark's tracer wraps
        out[i] = decide(model, x)


def _send_scores(model: Model, rows: SparseRows, pipe: IO[bytes]) -> None:
    """The child's half of a scoring: the rows' decisions, then its kernel and cosine counts."""
    reset_eval_counts()
    scores = np.empty(len(rows))
    _decide_into(model, rows, scores)
    counts = eval_counts()
    pipe.write(scores)
    pipe.write(np.array([counts["kernel"], counts["cosine"]], dtype=np.int64))


def decide_all(model: Model, rows: SparseRows) -> np.ndarray:
    """Raw decision value of every row, one :func:`decide` call per row.

    Each score is independent of the others and costs the same s kernel
    values or d cosines, so at ``MIN_SPLIT_EVALS`` and above a forked
    child (see :mod:`assetsvm.halves`) decides the second half of the rows
    while this process decides the first; the child's evaluations are then
    added to this process's counters. After a failure on either side every
    row is decided again here, so the scores, or the error, are the same
    either way.
    """
    scores = np.empty(len(rows))
    half = len(rows) // 2
    if half and len(rows) * _evals_per_point(model) >= MIN_SPLIT_EVALS and halves.available():
        counts = np.empty(2, dtype=np.int64)
        try:
            with halves.child(functools.partial(_send_scores, model, rows[half:])) as pipe:
                _decide_into(model, rows[:half], scores[:half])
                halves.read_exact(pipe, scores[half:])
                halves.read_exact(pipe, counts)
        except Exception:
            pass  # every row is decided again below, where a failing row raises
        else:
            add_eval_counts(*counts.tolist())
            return scores
    _decide_into(model, rows, scores)
    return scores


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_vector(values: np.ndarray) -> str:
    return " ".join(map(repr, values.tolist()))


def _freq_lines(rows: np.ndarray) -> Iterator[str]:
    for row in rows:
        yield f"freq {_fmt_vector(row)}\n"


def _write(model: Model, out: IO[str], freq_stop: int | None = None) -> None:
    """Write the model file, with only its first ``freq_stop`` frequency rows if given."""
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
        out.writelines(_freq_lines(fmap.frequencies[:freq_stop]))
    else:
        payload = model.payload
        out.write(f"s {len(payload.landmarks)}\n")
        out.write(f"gamma {_fmt_vector(model.gamma)}\n")
        out.write(f"alpha {_fmt_vector(payload.alpha)}\n")
        for point in payload.landmarks.points:
            out.write(f"support{format_row(point)}\n")


def _send_freq_text(rows: np.ndarray, pipe: IO[bytes]) -> None:
    """The child's half of a save: the text of ``rows``, formatted whole, then sent."""
    pipe.write("".join(_freq_lines(rows)).encode("utf-8"))


def _save_halves(model: Model, path: str) -> bool:
    """Write a cosine model file whose second half of frequency rows a child formats.

    This process writes everything else, then copies the child's text into
    the file. Returns False when the file is too small to split, and after
    any failure, which may leave a partial file for the caller to rewrite.
    """
    freqs = model.payload.frequencies
    if len(freqs) < 2 or not halves.worth_splitting(freqs.size * FLOAT_TEXT_BYTES):
        return False
    half = len(freqs) // 2
    try:
        with open(path, "w", encoding="utf-8") as handle:
            with halves.child(functools.partial(_send_freq_text, freqs[half:])) as text:
                _write(model, handle, half)
                handle.flush()
                shutil.copyfileobj(text, handle.buffer, halves.BOUNCE_BYTES)
    except Exception:
        return False
    return True


def save_model(model: Model, sink: str | IO[str]) -> None:
    """Write a model file (see module docstring for the layout).

    Saved to a path, a large cosine model's frequency rows are formatted in
    two halves, the second by a forked child (see :mod:`assetsvm.halves`);
    after a failure on either side the sequential path writes the whole
    file again. The bytes are the same either way.
    """
    if isinstance(sink, str):
        if model.approx == "fourier" and _save_halves(model, sink):
            return
        with open(sink, "w", encoding="utf-8") as handle:
            _write(model, handle)
        return
    _write(model, sink)


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


def _read_freq_rows(reader: _LineReader, out: np.ndarray, first: int) -> None:
    """Fill the rows of ``out`` from the next freq lines; ``first`` numbers the first one."""
    width = out.shape[1]
    for i in range(len(out)):
        out[i] = _parse_floats(reader.next("freq"), width, f"freq row {first + i + 1}")


def _send_freq_rows(path: str, skip: int, first: int, count: int, width: int, pipe: IO[bytes]) -> None:
    """The child's half of a load: ``count`` frequency rows after line ``skip``, sent in C order.

    The child opens the file itself: a descriptor inherited across the fork
    shares its offset with the parent's.
    """
    with open(path, "r", encoding="utf-8") as handle:
        reader = _LineReader(itertools.islice(handle, skip, None))
        reader.lineno = skip
        block = np.empty((count, width))
        _read_freq_rows(reader, block, first)
    pipe.write(block)


def _receive_rows(pipe: IO[bytes], out: np.ndarray) -> None:
    """Fill ``out``, of any layout, with rows sent in C order, through a small buffer."""
    width = out.shape[1]
    bounce = np.empty(min(halves.BOUNCE_BYTES // 8, out.size))
    done = 0
    while done < out.size:
        chunk = bounce[: min(bounce.size, out.size - done)]
        halves.read_exact(pipe, chunk)
        while chunk.size:
            row, col = divmod(done, width)
            take = min(width - col, chunk.size)
            out[row, col : col + take] = chunk[:take]
            chunk = chunk[take:]
            done += take


def load_model(source: str | IO[str]) -> Model:
    """Read a model file back; inverse of :func:`save_model`.

    A file that is not UTF-8 text is a :class:`ModelFormatError`. Read from
    a large file, a cosine model's frequency rows are parsed in two halves,
    the second by a forked child (see :mod:`assetsvm.halves`); after a
    failure on either side the sequential path reads the whole file again,
    so the model or the error is the same either way.
    """
    if not isinstance(source, str):
        return _read(source, None)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            if halves.worth_splitting(os.fstat(handle.fileno()).st_size):
                try:
                    return _read(handle, source)
                except Exception:
                    handle.seek(0)
            return _read(handle, None)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(not_utf8("model file", exc)) from None


def _read(source: IO[str], path: str | None) -> Model:
    """Parse a model from ``source``; the frequency rows are split when ``path`` names its file."""
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
            freqs = np.empty((dim, input_dim), order="F")
        except MemoryError:
            raise ModelFormatError(
                f"a {dim} x {input_dim} frequency matrix does not fit in memory"
            ) from None
        freqs[0] = first
        if path is not None and dim >= 2:
            # row k is on line reader.lineno + k; the child reads rows half..dim-1
            half = dim // 2
            send = functools.partial(
                _send_freq_rows, path, reader.lineno + half - 1, half, dim - half, input_dim
            )
            with halves.child(send) as pipe:
                _read_freq_rows(reader, freqs[1:half], 1)
                _receive_rows(pipe, freqs[half:])
        else:
            _read_freq_rows(reader, freqs[1:], 1)
        payload: FourierMap | NystromRecovery = FourierMap(
            kernel=kernel, frequencies=freqs, offsets=offsets
        )
    else:
        try:
            sample_size = int(reader.next("s"))
        except ValueError:
            raise ModelFormatError("non-numeric sample size") from None
        gamma = _parse_floats(reader.next("gamma"), dim, "gamma")
        alpha = _parse_floats(reader.next("alpha"), sample_size, "alpha")
        points = []
        for _ in range(sample_size):
            text = reader.next("support")
            try:
                points.append(parse_row(text.split(), reader.lineno))
            except DataFormatError as exc:
                raise ModelFormatError(str(exc)) from None
        try:
            payload = NystromRecovery(alpha=alpha, landmarks=Landmarks(kernel, tuple(points)))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None

    try:
        model = Model(
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
    if approx == "nystrom":
        # Model has checked the support width against n; only now is the
        # support points' kernel table built, before any decision needs it.
        try:
            payload.landmarks.table
        except MemoryError:
            raise ModelFormatError(
                "the support points' kernel table does not fit in memory"
            ) from None
    return model


def model_to_text(model: Model) -> str:
    buffer = StringIO()
    save_model(model, buffer)
    return buffer.getvalue()
