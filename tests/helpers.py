"""Synthetic datasets and small utilities shared across the test suite."""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np

from assetsvm import (
    Dataset,
    FourierMap,
    GaussianKernel,
    Landmarks,
    SparseVector,
    format_libsvm,
    halves,
)
from assetsvm import model as model_module


def dense_vector(values) -> SparseVector:
    values = np.asarray(values, dtype=np.float64)
    return SparseVector(np.arange(values.size, dtype=np.int64), values)


def to_dense(x: SparseVector, n: int) -> np.ndarray:
    """The vector as a length-n array; n must exceed its largest index."""
    out = np.zeros(n)
    out[x.indices] = x.values
    return out


def norm_sq(x: SparseVector) -> float:
    return float(np.dot(x.values, x.values))


def dot(s: SparseVector, t: SparseVector) -> float:
    n = max(s.max_index, t.max_index) + 1
    return float(np.dot(to_dense(s, n), to_dense(t, n)))


def sq_dist(s: SparseVector, t: SparseVector) -> float:
    n = max(s.max_index, t.max_index) + 1
    diff = to_dense(s, n) - to_dense(t, n)
    return float(np.dot(diff, diff))


def kernel_eval(kernel: GaussianKernel, s: SparseVector, t: SparseVector) -> float:
    """exp(-sigma * ||s - t||^2) from the difference of the dense vectors.

    A reference for tests: it shares no code with the program's kernel and
    leaves its evaluation counters alone.
    """
    return math.exp(-kernel.sigma * sq_dist(s, t))


def gathered_kernel_row(landmarks: Landmarks, x: SparseVector) -> np.ndarray:
    """``landmarks.row(x)`` computed through a gather of the table rows at
    x's nonzeros, also when x holds every feature of the table."""
    table = landmarks.table
    keep = x.indices < len(table)
    cross = x.values[keep].dot(table.take(x.indices[keep], axis=0))
    norm = -landmarks.kernel.sigma * x.values.dot(x.values)
    return np.exp(np.minimum(cross + landmarks.neg_norms + norm, 0.0))


def gathered_features(fmap: FourierMap, x: SparseVector) -> np.ndarray:
    """``fmap.map_point(x)`` computed through a gather of the frequency
    columns at x's nonzeros, also when x holds every input feature."""
    phase = fmap.frequencies[:, x.indices] @ x.values + fmap.offsets
    return np.cos(phase) * math.sqrt(2.0 / fmap.dim)


def matrix_dataset(X: np.ndarray, labels: np.ndarray, task: str) -> Dataset:
    examples = tuple(dense_vector(row) for row in X)
    return Dataset(examples, np.asarray(labels, dtype=np.float64), X.shape[1], task)


def planted_dataset(m: int, n: int, seed: int) -> Dataset:
    """Gaussian points labeled by a random hyperplane through the origin."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n))
    w = rng.normal(size=n)
    y = np.where(X @ w >= 0.0, 1.0, -1.0)
    return matrix_dataset(X, y, "classification")


def two_moons(m: int, seed: int, noise: float = 0.2) -> Dataset:
    """Two interleaved half-circles with Gaussian coordinate noise."""
    rng = np.random.default_rng(seed)
    half = m // 2
    t_up = rng.uniform(0.0, np.pi, size=half)
    t_dn = rng.uniform(0.0, np.pi, size=m - half)
    upper = np.column_stack([np.cos(t_up), np.sin(t_up)])
    lower = np.column_stack([1.0 - np.cos(t_dn), 0.5 - np.sin(t_dn)])
    X = np.vstack([upper, lower]) + rng.normal(scale=noise, size=(m, 2))
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    order = rng.permutation(m)
    return matrix_dataset(X[order], y[order], "classification")


def sinusoid_dataset(m: int, seed: int, noise: float = 0.0) -> Dataset:
    """1-d regression: y = sin(2*pi*x) on [0, 1), optionally noisy."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=m)
    y = np.sin(2.0 * np.pi * x)
    if noise:
        y = y + rng.normal(scale=noise, size=m)
    X = x[:, np.newaxis]
    return matrix_dataset(X, y, "regression")


def write_libsvm(path, data: Dataset) -> str:
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_libsvm(data))
    return path


@contextlib.contextmanager
def split_files(on: bool):
    """Split every model file and every scoring between two processes (on)
    or none (off); yield each split's outcome.

    The list gets None for a split whose child delivered its half and the
    exception type for one that failed and fell back to the sequential path,
    so a test can tell a working split from a silent fallback.
    """
    outcomes: list[type | None] = []
    real = halves.child

    @contextlib.contextmanager
    def recorded(work):
        try:
            with real(work) as pipe:
                yield pipe
        except BaseException as exc:
            outcomes.append(type(exc))
            raise
        outcomes.append(None)

    threshold = 0 if on else 1 << 62
    with mock.patch.object(halves, "MIN_BYTES", threshold), \
            mock.patch.object(model_module, "MIN_SPLIT_EVALS", threshold), \
            mock.patch.object(model_module, "MIN_BLOCK_SPLIT_EVALS", threshold), \
            mock.patch.object(halves, "child", recorded):
        yield outcomes
