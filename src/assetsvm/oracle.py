"""Exact small-instance baselines and objective evaluation.

Two views of the same regularized empirical risk are provided: one over a
feature map (weight vector + intercept) and one over expansion
coefficients against the exact kernel matrix. ``solve_exact`` minimizes
the latter deterministically on instances small enough to factorize the
full kernel matrix, and serves as the reference optimum in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import FeatureMap, GaussianKernel, _kernel_block
from .linalg import ConvergenceError, sym_eig
from .solver import _mean_loss, feasible_region, loss_directions

GRAM_LIMIT = 200


@dataclass(frozen=True)
class ExactSolution:
    """Expansion coefficients, intercept, and the objective they achieve."""

    alpha: np.ndarray
    b: float
    objective: float


def gram_matrix(kernel: GaussianKernel, data: Dataset) -> np.ndarray:
    """Full m x m kernel matrix (symmetrized)."""
    return _kernel_block(kernel, data.examples, data.n)


def feature_objective(
    gamma: np.ndarray,
    b: float,
    feature_map: FeatureMap,
    data: Dataset,
    lam: float,
    epsilon: float = 0.0,
) -> float:
    """Regularized mean loss of (gamma, b) over the mapped training set."""
    gamma = np.asarray(gamma, dtype=np.float64)
    rows = np.stack([feature_map.training_row(data, i) for i in range(data.m)])
    scores = rows @ gamma + b
    quad = 0.5 * lam * float(np.dot(gamma, gamma))
    return quad + _mean_loss(scores, data.labels, data.task, epsilon)


def kernel_objective(
    alpha: np.ndarray,
    b: float,
    data: Dataset,
    kernel: GaussianKernel,
    lam: float,
    epsilon: float = 0.0,
) -> float:
    """Regularized mean loss of expansion coefficients on the exact kernel.

    Guarded to test-scale instances (m <= 200) since it materializes the
    full kernel matrix.
    """
    if data.m > GRAM_LIMIT:
        raise ValueError(f"kernel_objective is limited to m <= {GRAM_LIMIT}, got {data.m}")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (data.m,):
        raise ValueError(f"alpha must have length m={data.m}")
    gram = gram_matrix(kernel, data)
    scores = gram @ alpha + b
    quad = 0.5 * lam * float(alpha @ gram @ alpha)
    return quad + _mean_loss(scores, data.labels, data.task, epsilon)


def solve_exact(
    data: Dataset,
    kernel: GaussianKernel,
    lam: float,
    task: str | None = None,
    epsilon: float = 0.0,
    iterations: int = 30_000,
    include_bias: bool = True,
    intercept_bound: float | None = None,
) -> ExactSolution:
    """Deterministic reference solve of the exact-kernel problem.

    Works in the feature coordinates of the kernel matrix's own
    eigendecomposition, where the duality ball on the weight norm is a
    plain Euclidean ball. Runs full (batch) subgradient descent with
    diminishing steps at three deterministic step scales, tracking the
    best iterate and a tail average of each run, for 2 x ``iterations``
    steps; raises if the second half of the budget still moved the best
    objective by more than 1e-4 relative.
    """
    if data.m > GRAM_LIMIT:
        raise ValueError(f"solve_exact is limited to m <= {GRAM_LIMIT}, got {data.m}")
    if data.m < 1:
        raise ValueError("dataset must contain at least one example")
    task = data.task if task is None else task
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    gram = gram_matrix(kernel, data)
    eig = sym_eig(gram)
    keep = eig.values > max(eig.values[0], 0.0) * 1e-12
    if not np.any(keep):
        raise ValueError("kernel matrix has no positive eigenvalues")
    vectors = eig.vectors[:, keep]
    values = eig.values[keep]
    features = vectors * np.sqrt(values)[np.newaxis, :]
    rank = features.shape[1]

    region = feasible_region(task, lam, data.labels, epsilon, intercept_bound, include_bias)
    radius = region.gamma_radius
    labels = data.labels
    m = data.m
    row_norm = math.sqrt(float(np.max(np.einsum("ij,ij->i", features, features))))
    grad_bound = lam * radius + row_norm + (1.0 if include_bias else 0.0)

    def objective(gamma: np.ndarray, b: float) -> float:
        scores = features @ gamma + b
        return 0.5 * lam * float(np.dot(gamma, gamma)) + _mean_loss(scores, labels, task, epsilon)

    best_f = math.inf
    best_half_f = math.inf
    best_gamma = np.zeros(rank)
    best_b = 0.0
    total = 2 * iterations

    for scale in (0.25, 1.0, 4.0):
        gamma = np.zeros(rank)
        b = 0.0
        # a run at budget T reports min(best iterate, average of its last
        # T/2 iterates); the half- and full-budget runs therefore keep
        # separate tail accumulators over (T/2, T] and (T, 2T]
        half_tail = (np.zeros(rank), 0.0, 0)
        full_tail = (np.zeros(rank), 0.0, 0)
        run_best = math.inf
        run_best_pair = (gamma.copy(), 0.0)
        step_base = scale * radius / grad_bound
        for t in range(1, total + 1):
            scores = features @ gamma + b
            f = 0.5 * lam * float(np.dot(gamma, gamma)) + _mean_loss(scores, labels, task, epsilon)
            if f < run_best:
                run_best = f
                run_best_pair = (gamma.copy(), b)
            if t == iterations and run_best < best_half_f:
                best_half_f = run_best
            d = loss_directions(scores, labels, task, epsilon)
            eta = step_base / math.sqrt(t)
            gamma = gamma - eta * (lam * gamma + (features.T @ d) / m)
            nrm = float(np.linalg.norm(gamma))
            if nrm > radius:
                gamma *= radius / nrm
            if include_bias:
                b -= eta * float(np.mean(d))
                bound = region.intercept_bound
                b = min(max(b, -bound), bound)
            if iterations // 2 < t <= iterations:
                g_avg, b_avg, count = half_tail
                count += 1
                half_tail = (g_avg + (gamma - g_avg) / count, b_avg + (b - b_avg) / count, count)
            elif t > iterations:
                g_avg, b_avg, count = full_tail
                count += 1
                full_tail = (g_avg + (gamma - g_avg) / count, b_avg + (b - b_avg) / count, count)
        if run_best < best_f:
            best_f = run_best
            best_gamma, best_b = run_best_pair[0].copy(), run_best_pair[1]
        for is_half, (g_avg, b_avg, count) in ((True, half_tail), (False, full_tail)):
            if count:
                f = objective(g_avg, b_avg)
                if f < best_f:
                    best_f = f
                    best_gamma = g_avg.copy()
                    best_b = b_avg
                if is_half and f < best_half_f:
                    best_half_f = f

    if best_half_f - best_f > 1e-4 * max(1.0, abs(best_f)):
        raise ConvergenceError(
            "reference solve failed its stability check: doubling the budget "
            f"moved the objective from {best_half_f} to {best_f}"
        )

    alpha = vectors @ (best_gamma / np.sqrt(values))
    value = kernel_objective(alpha, best_b, data, kernel, lam, epsilon)
    return ExactSolution(alpha=alpha, b=float(best_b), objective=value)
