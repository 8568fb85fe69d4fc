"""Gaussian kernel evaluation and its two low-dimensional feature maps.

Both maps send a point x to a short dense row whose inner products
approximate kernel values, <row(x), row(y)> ~ k(x, y):

* ``NystromMap`` factorizes the kernel block over a uniformly sampled set
  of landmark points and projects new points through the scaled leading
  eigenvectors of that block.
* ``FourierMap`` draws random cosine features whose inner products are
  unbiased estimates of the (shift-invariant) Gaussian kernel.

``Landmarks`` is the one kernel evaluation: the landmark map, a landmark
model's decisions and the exact kernel matrix all go through it.

Module-level evaluation counters support cost assertions in tests: every
kernel value and every cosine feature computed anywhere is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .data import Dataset, SparseRows, SparseVector
from .linalg import sym_eig
from .rng import FOURIER_STREAM, NYSTROM_SAMPLE_STREAM, stream


# Rows are mapped in blocks of about this many dense entries: block
# height times the widest row a map builds (``block_width``).
ROW_BLOCK_VALUES = 1 << 14


class DegenerateKernelError(RuntimeError):
    """No eigenvalue of the sampled kernel block met the retention threshold."""


_counts = {"kernel": 0, "cosine": 0}


def reset_eval_counts() -> None:
    _counts["kernel"] = 0
    _counts["cosine"] = 0


def eval_counts() -> dict[str, int]:
    """Snapshot of {'kernel': #kernel values, 'cosine': #cosine features}."""
    return dict(_counts)


def add_eval_counts(kernel: int, cosine: int) -> None:
    """Count evaluations made elsewhere, such as by a scoring child process."""
    _counts["kernel"] += kernel
    _counts["cosine"] += cosine


@dataclass(frozen=True)
class GaussianKernel:
    """k(s, t) = exp(-sigma * ||s - t||^2) with width parameter sigma > 0."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")


# The clip bound of _gaussian as a 0-d array: numpy 2 spends about 0.5 µs
# converting a Python float operand, half of a small ufunc call's cost.
_ZERO = np.array(0.0)


def _gaussian(
    cross: np.ndarray, norms_a: np.ndarray | float, norms_b: np.ndarray | float
) -> np.ndarray:
    # exp(min(2 sigma <a,b> - sigma ||a||^2 - sigma ||b||^2, 0)) = exp(-sigma ||a - b||^2),
    # from pre-scaled inputs: ``cross`` holds 2 sigma <a,b> and the norms
    # -sigma ||.||^2, broadcast to its shape. The exponent is built in
    # ``cross``, which is overwritten and returned; every entry is one
    # counted kernel value. Cancellation can leave a tiny positive
    # exponent, clipped to 0.
    _counts["kernel"] += cross.size
    cross += norms_a
    cross += norms_b
    np.minimum(cross, _ZERO, out=cross)
    return np.exp(cross, out=cross)


@dataclass(frozen=True, eq=False)
class Landmarks:
    """A point set in CSR form, and the kernel that scores against it.

    Every kernel value is :func:`_gaussian` over two pre-scaled tables:
    ``table``, the points times 2 sigma with one column per point, and
    ``neg_norms``, -sigma times each point's squared norm. The table has a
    row per feature up to the points' largest index, so its size follows
    the points, not a declared dimension. It is built on first use:
    ``width`` comes from the CSR indices alone, so a caller can check it
    against a dimension before anything that large is allocated. A
    landmark map and the model recovered from it share one instance.
    """

    kernel: GaussianKernel
    points: SparseRows

    def __post_init__(self):
        if not isinstance(self.points, SparseRows):
            object.__setattr__(self, "points", SparseRows.of(self.points))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def width(self) -> int:
        return self.points.width

    @cached_property
    def table(self) -> np.ndarray:
        """2 sigma times the points, as a (width x len) array: column i is point i."""
        points = self.points
        table = np.zeros((self.width, len(points)))
        owners = np.repeat(np.arange(len(points)), np.diff(points.indptr))
        table[points.indices, owners] = (2.0 * self.kernel.sigma) * points.values
        return table

    @cached_property
    def neg_norms(self) -> np.ndarray:
        return -self.kernel.sigma * self.points.sq_norms()

    def block(self) -> np.ndarray:
        """Symmetrized kernel matrix of the points against each other."""
        block = self.rows(self.points)
        return (block + block.T) / 2.0

    def rows(self, x: SparseRows) -> np.ndarray:
        """The kernel values of each row of ``x`` against each point, one row per row.

        The cross products gather the table's rows at the rows' nonzeros,
        so a block costs its nonzeros times the number of points, not the
        points' width. Each row adds its products one feature at a time,
        in its own order, so its values do not depend on the block it is
        mapped in. Coordinates beyond the points' width are zero for every
        point, so they enter only the rows' norms.
        """
        table = self.table
        starts = x.indptr[:-1] - x.indptr[0]
        lengths = np.diff(x.indptr)
        cross = np.zeros((len(x), len(self)))
        for k in range(int(lengths.max(initial=0))):
            live = np.flatnonzero(lengths > k)
            at = starts[live] + k
            inside = x.indices[at] < len(table)
            live, at = live[inside], at[inside]
            cross[live] += x.values[at, np.newaxis] * table[x.indices[at]]
        norms = -self.kernel.sigma * x.sq_norms()
        return _gaussian(cross, norms[:, np.newaxis], self.neg_norms)

    def row(self, x: SparseVector) -> np.ndarray:
        """The kernel values of one point against each point, in order.

        A decision scores one point at a time, so this gathers the table
        rows at the point's nonzeros instead of densifying a one-row
        block: the cost follows its nonzeros, not the points' width. It
        rounds differently from :meth:`rows`. A point that holds every
        feature of the table multiplies the table itself: the gather would
        copy it whole, to the same layout, so the product's bits agree.
        """
        table = self.table
        width = len(table)
        idx, values = x.indices, x.values
        norm = -self.kernel.sigma * values.dot(values)
        if idx.size and idx[-1] >= width:
            keep = idx < width
            idx, values = idx[keep], values[keep]
        # every index is now below the width, and they strictly increase,
        # so as many of them as the width means exactly 0 .. width - 1
        if idx.size != width:
            table = table.take(idx, axis=0)
        return _gaussian(values.dot(table), self.neg_norms, norm)

    def dense_rows(self, x: np.ndarray) -> np.ndarray:
        """:meth:`row` of each row of ``x``, a (height x width) block, with its bits.

        The norms and the cross products are stacks of one-row products:
        one BLAS call per row, the call :meth:`row` makes for a point that
        holds every feature of the table.
        """
        stack = x[:, np.newaxis, :]
        norms = np.matmul(stack, x[:, :, np.newaxis])[:, 0]
        norms *= -self.kernel.sigma
        return _gaussian(np.matmul(stack, self.table)[:, 0, :], self.neg_norms, norms)


class _TrainingRows:
    """One dataset's rows, mapped once in blocks by ``map_rows``, then reused.

    Each map defines its own ``training_row``; the benchmark wraps it there.
    ``block_width`` is the widest row its ``map_rows`` builds.
    """

    _built: tuple | None = None

    def map_all(self, rows: SparseRows) -> np.ndarray:
        """Every row mapped, in blocks of about ROW_BLOCK_VALUES dense entries."""
        matrix = np.empty((len(rows), self.dim))
        step = max(1, ROW_BLOCK_VALUES // max(1, self.block_width))
        for start in range(0, len(rows), step):
            matrix[start : start + step] = self.map_rows(rows[start : start + step])
        return matrix

    def training_matrix(self, data: Dataset) -> np.ndarray:
        built = self._built
        if built is None or built[0] is not data:
            # one assignment publishes matrix and dataset together, never half-built
            built = self._built = (data, self.map_all(data.examples))
        return built[1]


@dataclass(eq=False)
class NystromMap(_TrainingRows):
    """Feature map from the eigendecomposition of a sampled kernel block.

    ``basis`` holds the leading eigenvector columns of the landmark block
    and ``inv_sqrt_eigs`` the inverse square roots of their eigenvalues;
    mapping a point costs one kernel row over the landmarks plus a
    (len(landmarks) x dim) product. Training rows come from the matrix of
    :class:`_TrainingRows`, so each is mapped once per dataset.
    """

    landmarks: Landmarks
    sample_indices: np.ndarray
    basis: np.ndarray
    inv_sqrt_eigs: np.ndarray
    _projector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._projector = self.basis * self.inv_sqrt_eigs[np.newaxis, :]

    @property
    def dim(self) -> int:
        return int(self.inv_sqrt_eigs.size)

    @property
    def block_width(self) -> int:
        # a kernel value per landmark, at least as many as the features
        return len(self.landmarks)

    def map_rows(self, rows: SparseRows) -> np.ndarray:
        # a stack of one-row products, one BLAS call per row: a row maps to
        # the same bits in a block of any height, map_point's one-row block
        # included. A plain block product rounds by the block's height.
        values = self.landmarks.rows(rows)
        return np.matmul(values[:, np.newaxis, :], self._projector)[:, 0, :]

    def map_point(self, x: SparseVector) -> np.ndarray:
        return self.map_rows(SparseRows.of((x,)))[0]

    def training_row(self, data: Dataset, index: int) -> np.ndarray:
        return self.training_matrix(data)[index]


@dataclass(eq=False)
class FourierMap(_TrainingRows):
    """Random cosine features for the Gaussian kernel.

    ``frequencies`` has one row per feature, drawn from the Gaussian with
    per-coordinate variance 2*sigma; offsets are uniform on [0, 2*pi).
    Mapping a point is sqrt(2/dim) * cos(frequencies @ x + offsets).
    The frequencies are kept column-major, so their transpose is a
    row-major (n x dim) view of the same buffer, one row per input
    feature. A sparse point gathers the rows at its nonzeros and a point
    that holds every input feature takes the view itself; both then make
    the same BLAS call on the same layout, and so get the same bits.
    """

    kernel: GaussianKernel
    frequencies: np.ndarray
    offsets: np.ndarray
    _scale: np.ndarray = field(init=False, repr=False)
    # frequencies.T, made once rather than for every point (about 0.1 µs each)
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a copy only for frequencies not built column-major
        self.frequencies = np.asfortranarray(self.frequencies)
        self._rows = self.frequencies.T
        # 0-d, like _ZERO
        self._scale = np.array(math.sqrt(2.0 / self.offsets.size))

    @property
    def dim(self) -> int:
        return int(self.offsets.size)

    block_width = dim

    def map_point(self, x: SparseVector) -> np.ndarray:
        # one buffer: the phase, then its cosine, then the scaled feature
        idx = x.indices
        if idx.size:
            rows = self._rows
            # strictly increasing indices, as many as the rows and the last
            # one the last row, are exactly every row
            if idx.size != rows.shape[0] or idx[-1] != idx.size - 1:
                rows = rows.take(idx, axis=0)
            # .dot, not @: the same vector-matrix product, with less overhead
            phase = x.values.dot(rows)
            phase += self.offsets
        else:
            phase = self.offsets.copy()
        _counts["cosine"] += phase.size
        np.cos(phase, out=phase)
        phase *= self._scale
        return phase

    def map_dense(self, x: np.ndarray) -> np.ndarray:
        """:meth:`map_point` of each row of ``x``, a (height x n) block, with its bits.

        The phases are a stack of one-row products: one BLAS call per row,
        the call :meth:`map_point` makes for a point that holds every
        input feature. The cosines are taken in place, as there.
        """
        phase = np.matmul(x[:, np.newaxis, :], self._rows)[:, 0, :]
        phase += self.offsets
        _counts["cosine"] += phase.size
        np.cos(phase, out=phase)
        phase *= self._scale
        return phase

    def map_rows(self, rows: SparseRows) -> np.ndarray:
        dense = rows.dense(self.frequencies.shape[1])
        if dense is not None:
            cosines = _counts["cosine"]
            try:
                return self.map_dense(dense)
            except FloatingPointError:
                # row by row, so a row fails with map_point's own message
                _counts["cosine"] = cosines
        # any other block row by row: a gather of its frequency columns is no faster
        out = np.empty((len(rows), self.dim))
        for i, x in enumerate(rows):
            out[i] = self.map_point(x)
        return out

    def training_row(self, data: Dataset, index: int) -> np.ndarray:
        return self.training_matrix(data)[index]


FeatureMap = Union[NystromMap, FourierMap]


def build_nystrom(
    data: Dataset,
    kernel: GaussianKernel,
    sample_size: int,
    target_dim: int,
    eps_d: float = 1e-16,
    seed: int = 0,
) -> NystromMap:
    """Sample landmarks without replacement and factorize their kernel block.

    The retained dimension is the number of eigenvalues >= ``eps_d``,
    capped at ``target_dim``.
    """
    if data.m < 1:
        raise ValueError("dataset must contain at least one example")
    if not (0 < target_dim <= sample_size):
        raise ValueError(
            f"need 0 < target_dim <= sample_size, got {target_dim} and {sample_size}"
        )
    if sample_size > data.m:
        raise ValueError(f"sample_size {sample_size} exceeds dataset size {data.m}")
    if not (eps_d > 0.0):
        raise ValueError(f"eps_d must be positive, got {eps_d}")

    rng = stream(seed, NYSTROM_SAMPLE_STREAM)
    indices = np.sort(rng.choice(data.m, size=sample_size, replace=False))
    landmarks = Landmarks(kernel, data.examples.take(indices))

    eig = sym_eig(landmarks.block())
    # An absolute eps_d below machine noise cannot separate true rank from
    # factorization roundoff, so the cut never drops beneath the standard
    # rank-detection floor for this block.
    noise_floor = sample_size * np.finfo(float).eps * max(float(eig.values[0]), 0.0)
    cut = max(eps_d, noise_floor)
    eligible = int(np.sum(eig.values >= cut))
    dim = min(eligible, target_dim)
    if dim == 0:
        raise DegenerateKernelError(
            f"all eigenvalues of the sampled kernel block fall below eps_d={eps_d}"
        )
    return NystromMap(
        landmarks=landmarks,
        sample_indices=indices,
        basis=np.ascontiguousarray(eig.vectors[:, :dim]),
        inv_sqrt_eigs=1.0 / np.sqrt(eig.values[:dim]),
    )


def build_fourier(
    input_dim: int,
    dim: int,
    kernel: GaussianKernel,
    seed: int = 0,
) -> FourierMap:
    """Draw a random cosine-feature map of the requested dimension."""
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = stream(seed, FOURIER_STREAM)
    # the values of one (dim x input_dim) draw, drawn in blocks of rows into
    # the column-major layout FourierMap keeps, so no second copy is made
    frequencies = np.empty((dim, input_dim), order="F")
    scale = math.sqrt(2.0 * kernel.sigma)
    step = max(1, ROW_BLOCK_VALUES // input_dim)
    for start in range(0, dim, step):
        block = frequencies[start : start + step]
        block[:] = rng.normal(0.0, scale, size=block.shape)
    offsets = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    return FourierMap(kernel=kernel, frequencies=frequencies, offsets=offsets)
