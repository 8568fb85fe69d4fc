"""Exact small-instance baselines and objective evaluation.

Two views of the same regularized empirical risk are provided: one over a
feature map (weight vector + intercept) and one over expansion
coefficients against the exact kernel matrix. ``solve_exact`` minimizes
the latter on instances small enough to hold the full kernel matrix: SMO
on the dual, certified by its duality gap. It is the reference optimum in
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import FeatureMap, GaussianKernel, Landmarks
from .linalg import ConvergenceError
from .solver import feasible_region, mean_loss

GRAM_LIMIT = 200
# Stop when the largest KKT violation falls below STEP_TOL; accept when the
# duality gap is within GAP_TOL of max(1, |objective|).
STEP_TOL = 1e-12
GAP_TOL = 1e-9


@dataclass(frozen=True)
class ExactSolution:
    """Expansion coefficients, intercept, their objective and its duality gap."""

    alpha: np.ndarray
    b: float
    objective: float
    gap: float


def gram_matrix(kernel: GaussianKernel, data: Dataset) -> np.ndarray:
    """Full m x m kernel matrix (symmetrized)."""
    return Landmarks(kernel, data.examples).block()


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
    scores = feature_map.training_matrix(data) @ gamma + b
    quad = 0.5 * lam * float(np.dot(gamma, gamma))
    return quad + mean_loss(scores, data.labels, data.task, epsilon)


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
    return quad + mean_loss(scores, data.labels, data.task, epsilon)


def solve_exact(
    data: Dataset,
    kernel: GaussianKernel,
    lam: float,
    epsilon: float = 0.0,
    iterations: int = 30_000,
    include_bias: bool = True,
    intercept_bound: float | None = None,
) -> ExactSolution:
    """Certified reference solve of the exact-kernel problem by SMO on its dual.

    The dual is  min 1/2 beta'Q beta + p'beta + B |z'beta|  over
    0 <= beta <= 1/m, with Q = (z z' * K) / lam and B the intercept bound
    (0 without a bias). Classification has z = y and p = -1; regression
    stacks each example's two tube multipliers, with K tiled 2 x 2,
    z = (1, -1) and p = (eps - y, eps + y). Each SMO step moves the pair
    of the largest KKT violation and the best second-order decrease
    against it (Fan, Chen & Lin 2005). ``iterations`` caps the steps;
    raises ``ConvergenceError`` if the duality gap is then above 1e-9
    relative.
    """
    if data.m > GRAM_LIMIT:
        raise ValueError(f"solve_exact is limited to m <= {GRAM_LIMIT}, got {data.m}")
    if data.m < 1:
        raise ValueError("dataset must contain at least one example")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    region = feasible_region(data.task, lam, data.labels, epsilon, intercept_bound, include_bias)
    bound = region.intercept_bound
    m = data.m
    y = data.labels
    gram = gram_matrix(kernel, data)
    if data.task == "classification":
        z, p = y, -np.ones(m)
    else:
        z = np.concatenate([np.ones(m), -np.ones(m)])
        p = np.concatenate([epsilon - y, epsilon + y])
        gram = np.tile(gram, (2, 2))
    n = z.size
    q = np.outer(z, z) * gram / lam
    # Two slack multipliers s+, s- in [0, n/m] with cost B and signs -1, +1
    # turn B |z'beta| into the equality z'beta = s+ - s-, which SMO keeps;
    # their KKT conditions hold the intercept within [-B, B].
    zs = np.concatenate([z, [-1.0, 1.0]])
    upper = np.concatenate([np.full(n, 1.0 / m), [n / m, n / m]])
    qs = np.zeros((n + 2, n + 2))
    qs[:n, :n] = q
    diag = np.diag(qs)
    beta = np.zeros(n + 2)
    grad = np.concatenate([p, [bound, bound]])
    for step in range(iterations + 1):
        # a variable in ``up`` bounds the intercept below by its score, one
        # in ``low`` bounds it above
        score = -zs * grad
        up = np.where(zs > 0, beta < upper, beta > 0.0)
        low = np.where(zs > 0, beta > 0.0, beta < upper)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        lo, hi = score[i], np.min(score, where=low, initial=np.inf)
        if lo - hi <= STEP_TOL or step == iterations:
            break
        # floored: regression pairs i and i + m have zero curvature
        curv = np.maximum(diag[i] + diag - 2.0 * zs[i] * zs * qs[i], 1e-12)
        diff = lo - score
        j = int(np.argmax(np.where(low & (diff > 0.0), diff * diff / curv, -np.inf)))
        room_i = upper[i] - beta[i] if zs[i] > 0 else beta[i]
        room_j = beta[j] if zs[j] > 0 else upper[j] - beta[j]
        t = min(diff[j] / curv[j], room_i, room_j)
        old_i, old_j = beta[i], beta[j]
        beta[i] = min(max(old_i + zs[i] * t, 0.0), upper[i])
        beta[j] = min(max(old_j - zs[j] * t, 0.0), upper[j])
        grad += qs[:, i] * (beta[i] - old_i) + qs[:, j] * (beta[j] - old_j)

    # a positive slack multiplier pins the intercept to its bound
    slack_up, slack_down = beta[n:]
    if slack_up > 0.0 or not bound:
        b = bound
    elif slack_down > 0.0:
        b = -bound
    else:
        b = min(max(float(lo + hi) / 2.0, -bound), bound)
    beta = beta[:n]
    alpha = (z * beta).reshape(-1, m).sum(axis=0) / lam
    value = kernel_objective(alpha, b, data, kernel, lam, epsilon)
    dual = -(0.5 * float(beta @ q @ beta) + float(p @ beta)) - bound * abs(float(z @ beta))
    gap = value - dual
    if gap > GAP_TOL * max(1.0, abs(value)):
        raise ConvergenceError(
            f"reference solve left a duality gap of {gap:.3g} after {step} SMO steps"
        )
    return ExactSolution(alpha=alpha, b=b, objective=value, gap=gap)
