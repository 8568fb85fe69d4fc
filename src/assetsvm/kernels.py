"""Gaussian kernel evaluation and its two low-dimensional feature maps.

Both maps send a point x to a short dense row whose inner products
approximate kernel values, <row(x), row(y)> ~ k(x, y):

* ``NystromMap`` factorizes the kernel block over a uniformly sampled set
  of landmark points and projects new points through the scaled leading
  eigenvectors of that block.
* ``FourierMap`` draws random cosine features whose inner products are
  unbiased estimates of the (shift-invariant) Gaussian kernel.

Module-level evaluation counters support cost assertions in tests: every
kernel value and every cosine feature computed anywhere is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import Dataset, SparseVector
from .linalg import sym_eig
from .rng import FOURIER_STREAM, NYSTROM_SAMPLE_STREAM, stream


class DegenerateKernelError(RuntimeError):
    """No eigenvalue of the sampled kernel block met the retention threshold."""


_counts = {"kernel": 0, "cosine": 0}


def reset_eval_counts() -> None:
    _counts["kernel"] = 0
    _counts["cosine"] = 0


def eval_counts() -> dict[str, int]:
    """Snapshot of {'kernel': #kernel values, 'cosine': #cosine features}."""
    return dict(_counts)


@dataclass(frozen=True)
class GaussianKernel:
    """k(s, t) = exp(-sigma * ||s - t||^2) with width parameter sigma > 0."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")


def kernel_eval(kernel: GaussianKernel, s: SparseVector, t: SparseVector) -> float:
    """Single kernel value in (0, 1]."""
    _counts["kernel"] += 1
    return math.exp(-kernel.sigma * s.sq_dist(t))


def _dense_block(points: tuple[SparseVector, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    dense = np.zeros((len(points), n))
    for i, p in enumerate(points):
        if p.indices.size:
            dense[i, p.indices] = p.values
    norms = np.einsum("ij,ij->i", dense, dense)
    return dense, norms


def _gaussian(
    kernel: GaussianKernel, norms_a: np.ndarray, norms_b: np.ndarray | float, cross: np.ndarray
) -> np.ndarray:
    # exp(-sigma * ||a - b||^2) from squared norms and cross products, which
    # broadcast to the shape of ``cross``; every entry is one counted kernel
    # value. Cancellation can leave a tiny negative distance, clipped to 0.
    _counts["kernel"] += cross.size
    return np.exp(-kernel.sigma * np.maximum(norms_a + norms_b - 2.0 * cross, 0.0))


def _kernel_block(kernel: GaussianKernel, points: tuple[SparseVector, ...], n: int) -> np.ndarray:
    # Symmetrized kernel matrix of a point set against itself.
    dense, norms = _dense_block(points, n)
    block = _gaussian(kernel, norms[:, np.newaxis], norms[np.newaxis, :], dense @ dense.T)
    return (block + block.T) / 2.0


def _kernel_row(
    kernel: GaussianKernel,
    dense_points: np.ndarray,
    point_norms: np.ndarray,
    x: SparseVector,
) -> np.ndarray:
    # One batch of len(dense_points) kernel values against a single point.
    if x.indices.size:
        idx = x.indices
        if int(idx[-1]) >= dense_points.shape[1]:
            # Coordinates beyond the stored width are zero for every stored
            # point, so they contribute nothing to the cross terms.
            mask = idx < dense_points.shape[1]
            cross = dense_points[:, idx[mask]] @ x.values[mask]
        else:
            cross = dense_points[:, idx] @ x.values
    else:
        cross = np.zeros(len(dense_points))
    return _gaussian(kernel, point_norms, x.norm_sq(), cross)


class _TrainingRows:
    """One dataset's rows, each mapped once by ``map_point``, then reused.

    Each map defines its own ``training_row``; the benchmark wraps it there.
    """

    _built: tuple | None = None

    def training_matrix(self, data: Dataset) -> np.ndarray:
        return self._rows_for(data)[1]

    def _rows_for(self, data: Dataset) -> tuple:
        built = self._built
        if built is None or built[0] is not data:
            matrix = np.empty((data.m, self.dim))
            for i, x in enumerate(data.examples):
                matrix[i] = self.map_point(x)
            # one assignment publishes rows and dataset together, never half-built
            built = self._built = (data, matrix, list(matrix))
        return built


@dataclass(eq=False)
class NystromMap(_TrainingRows):
    """Feature map from the eigendecomposition of a sampled kernel block.

    ``basis`` holds the leading eigenvector columns of the landmark block
    and ``inv_sqrt_eigs`` the inverse square roots of their eigenvalues;
    mapping a point costs one kernel batch over the landmarks plus a
    (sample_size x dim) product. Training rows come from the matrix of
    :class:`_TrainingRows`, so each is mapped once per dataset.
    """

    kernel: GaussianKernel
    sample_points: tuple[SparseVector, ...]
    sample_indices: np.ndarray
    basis: np.ndarray
    inv_sqrt_eigs: np.ndarray
    eps_d: float
    input_dim: int
    _dense: np.ndarray = field(init=False, repr=False)
    _norms: np.ndarray = field(init=False, repr=False)
    _projector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._dense, self._norms = _dense_block(self.sample_points, self.input_dim)
        self._projector = self.basis * self.inv_sqrt_eigs[np.newaxis, :]

    @property
    def dim(self) -> int:
        return int(self.inv_sqrt_eigs.size)

    @property
    def sample_size(self) -> int:
        return len(self.sample_points)

    def map_point(self, x: SparseVector) -> np.ndarray:
        kvec = _kernel_row(self.kernel, self._dense, self._norms, x)
        return kvec @ self._projector

    def training_row(self, data: Dataset, index: int) -> np.ndarray:
        return self._rows_for(data)[2][index]


@dataclass(eq=False)
class FourierMap(_TrainingRows):
    """Random cosine features for the Gaussian kernel.

    ``frequencies`` has one row per feature, drawn from the Gaussian with
    per-coordinate variance 2*sigma; offsets are uniform on [0, 2*pi).
    Mapping a point is sqrt(2/dim) * cos(frequencies @ x + offsets).
    """

    kernel: GaussianKernel
    frequencies: np.ndarray
    offsets: np.ndarray
    input_dim: int
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self._scale = math.sqrt(2.0 / self.offsets.size)

    @property
    def dim(self) -> int:
        return int(self.offsets.size)

    def map_point(self, x: SparseVector) -> np.ndarray:
        if x.indices.size:
            phase = self.frequencies[:, x.indices] @ x.values + self.offsets
        else:
            phase = self.offsets
        _counts["cosine"] += self.dim
        return self._scale * np.cos(phase)

    def training_row(self, data: Dataset, index: int) -> np.ndarray:
        return self._rows_for(data)[2][index]


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
    points = tuple(data.examples[int(i)] for i in indices)

    eig = sym_eig(_kernel_block(kernel, points, data.n))
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
        kernel=kernel,
        sample_points=points,
        sample_indices=indices,
        basis=np.ascontiguousarray(eig.vectors[:, :dim]),
        inv_sqrt_eigs=1.0 / np.sqrt(eig.values[:dim]),
        eps_d=eps_d,
        input_dim=data.n,
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
    frequencies = rng.normal(0.0, math.sqrt(2.0 * kernel.sigma), size=(dim, input_dim))
    offsets = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    return FourierMap(kernel=kernel, frequencies=frequencies, offsets=offsets, input_dim=input_dim)
