"""Dense symmetric eigendecomposition in a canonical form.

``sym_eig`` delegates to LAPACK through ``numpy.linalg.eigh`` and returns
the result in a canonical form, so that a model depends only on the
matrix and not on choices LAPACK leaves open:

* eigenvalues are sorted nonincreasing by a stable sort; tied values keep
  their diagonal positions when the input is already diagonal, and
  LAPACK's order otherwise;
* each eigenvector's sign is fixed so that its largest-magnitude entry is
  positive (the first such entry on a tie).

The output is bit-reproducible for a fixed numpy/LAPACK build and BLAS
thread count; LAPACK's blocked kernels may round differently when the
thread count changes (see the README's Reproducibility section).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Column-orthonormal eigenvectors with nonincreasing eigenvalues."""

    vectors: np.ndarray
    values: np.ndarray


def sym_eig(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix in canonical form.

    The input is checked to be square, finite and symmetric, then
    symmetrized exactly before factorization. A LAPACK convergence
    failure is raised as :class:`ConvergenceError`.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix must be symmetric")

    size = a.shape[0]
    if size == 0:
        return EigenDecomposition(np.zeros((0, 0)), np.zeros(0))
    a = (a + a.T) / 2.0
    diagonal = np.diag(a)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        # LAPACK sorts by selection, which scrambles tied eigenvalues even on
        # diagonal input; here the unit vectors are exact and ties keep their
        # diagonal positions.
        values, vectors = diagonal.copy(), np.eye(size)
    else:
        try:
            values, vectors = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from None

    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    # argmax picks the first of tied magnitudes
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(size)]
    vectors = vectors * np.where(lead < 0.0, -1.0, 1.0)
    return EigenDecomposition(np.ascontiguousarray(vectors), values)
