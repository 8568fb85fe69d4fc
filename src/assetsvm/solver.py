"""Projected stochastic-subgradient training over an approximate feature map.

Each iteration draws one training example uniformly at random, takes a
subgradient step of the regularized loss restricted to that example, and
projects back onto the feasible region (a norm ball for the weight vector
times an interval for the intercept). Two step schedules are supported:

* ``averaged``: steps shrink like 1/sqrt(j) scaled by the region radius
  over an estimated subgradient-norm bound, and the reported solution is
  the steplength-weighted running average of the tail iterates.
* ``strongly_convex``: the intercept is dropped (making the objective
  strongly convex in all remaining variables), steps are 1/(lambda*j),
  and the final iterate is reported without averaging.

Training is deterministic: identical (data, params, seed) produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .kernels import FeatureMap
from .rng import DG_STREAM, XI_STREAM, stream

VARIANTS = ("averaged", "strongly_convex")
# Example draws are taken from the XI stream this many at a time; the chunk
# size leaves the drawn sequence unchanged and only caps the memory it holds.
XI_CHUNK = 4096


class TrivialRegressionError(ValueError):
    """The tube half-width covers every label, so the zero model is optimal."""


@dataclass(frozen=True)
class FeasibleRegion:
    """Ball on the weight vector times [-B, B] on the intercept."""

    gamma_radius: float
    intercept_bound: float
    include_bias: bool

    def __post_init__(self):
        if not (self.gamma_radius > 0.0 and math.isfinite(self.gamma_radius)):
            raise ValueError(f"gamma_radius must be positive, got {self.gamma_radius}")
        if self.intercept_bound < 0.0:
            raise ValueError(f"intercept bound must be nonnegative, got {self.intercept_bound}")

    @property
    def max_norm(self) -> float:
        """Largest Euclidean norm of any feasible point."""
        if self.include_bias:
            return math.sqrt(self.gamma_radius**2 + self.intercept_bound**2)
        return self.gamma_radius


@dataclass(frozen=True)
class SolverParams:
    """Training knobs.

    ``avg_start`` defaults to max(1, iterations - 100): only the final 100
    iterates are averaged unless the caller widens the window.
    """

    lam: float
    iterations: int
    avg_start: int | None = None
    variant: str = "averaged"
    dg_sample: int = 1000
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.dg_sample < 1:
            raise ValueError(f"dg_sample must be >= 1, got {self.dg_sample}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.avg_start is None:
            object.__setattr__(self, "avg_start", max(1, self.iterations - 100))
        if not (1 <= self.avg_start <= self.iterations):
            raise ValueError(
                f"avg_start must lie in [1, iterations], got {self.avg_start}"
            )


@dataclass(frozen=True)
class GradientStats:
    """Root-mean-square bound estimate for the stochastic subgradient norm."""

    dg: float

    def __post_init__(self):
        if not (self.dg > 0.0 and math.isfinite(self.dg)):
            raise ValueError(f"dg must be positive, got {self.dg}")


def default_intercept_bound(labels: Sequence[float]) -> float:
    """Generous default interval half-width: 10 * max(1, ||y||_inf)."""
    arr = np.asarray(labels, dtype=np.float64)
    top = float(np.max(np.abs(arr))) if arr.size else 0.0
    return 10.0 * max(1.0, top)


def feasible_region(
    task: str,
    lam: float,
    labels: Sequence[float],
    epsilon: float = 0.0,
    intercept_bound: float | None = None,
    include_bias: bool = True,
) -> FeasibleRegion:
    """Feasible region whose ball radius is the duality-derived bound.

    Classification uses radius 1/sqrt(lambda); regression uses
    sqrt(2 * (||y||_inf - epsilon) / lambda) and rejects tubes that cover
    every label (the optimum would be identically zero).
    """
    if not (lam > 0.0):
        raise ValueError(f"lambda must be positive, got {lam}")
    if task == "classification":
        radius = 1.0 / math.sqrt(lam)
    elif task == "regression":
        arr = np.asarray(labels, dtype=np.float64)
        y_inf = float(np.max(np.abs(arr))) if arr.size else 0.0
        if epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
        if epsilon >= y_inf:
            raise TrivialRegressionError(
                f"tube half-width {epsilon} covers every label "
                f"(||y||_inf = {y_inf}); the optimal model is identically zero"
            )
        radius = math.sqrt(2.0 * (y_inf - epsilon) / lam)
    else:
        raise ValueError(f"unknown task {task!r}")
    if not include_bias:
        return FeasibleRegion(radius, 0.0, False)
    bound = default_intercept_bound(labels) if intercept_bound is None else float(intercept_bound)
    return FeasibleRegion(radius, bound, True)


def loss_direction(score: float, label: float, task: str, epsilon: float) -> float:
    """Derivative of one example's loss with respect to its score.

    Hinge loss: -label while the margin label * score is strictly below one,
    zero otherwise (zero is the chosen subgradient at the kink). Tube loss:
    -1 or +1 while the label lies strictly above or below the tube
    [score - epsilon, score + epsilon], zero inside it and on its boundary.
    """
    if task == "classification":
        return -label if label * score < 1.0 else 0.0
    if label > score + epsilon:
        return -1.0
    if label < score - epsilon:
        return 1.0
    return 0.0


def _mean_loss(scores: np.ndarray, labels: np.ndarray, task: str, epsilon: float) -> float:
    if task == "classification":
        losses = np.maximum(1.0 - labels * scores, 0.0)
    else:
        losses = np.maximum(np.abs(labels - scores) - epsilon, 0.0)
    return float(np.mean(losses))


def running_average(avg, value, weight_sum: float, weight: float):
    """Fold one value into a weight-proportional running mean.

    Returns the updated mean and total weight. Works elementwise for
    arrays and plainly for scalars; with zero prior weight the value is
    adopted exactly.
    """
    total = weight_sum + weight
    w_old = weight_sum / total
    w_new = weight / total
    return avg * w_old + value * w_new, total


def estimate_dg(
    feature_map: FeatureMap,
    data: Dataset,
    params: SolverParams,
    region: FeasibleRegion,
) -> GradientStats:
    """Probe subgradient norms at the zero iterate on a random subsample.

    This mirrors what the first solver steps would see: the loss direction
    at zero, times the squared feature-row norm (plus one for the
    intercept slot when a bias is kept). It is a practical estimate, not a
    certified bound. If every probed subgradient vanishes, a conservative
    fallback of sqrt(lambda) * gamma_radius avoids a zero divisor.
    """
    m = data.m
    if m < 1:
        raise ValueError("dataset must contain at least one example")
    rng = stream(params.seed, DG_STREAM)
    labels = data.labels
    bias_term = 1.0 if region.include_bias else 0.0
    total = 0.0
    for u in rng.random(params.dg_sample):
        i = int(u * m)
        d = loss_direction(0.0, float(labels[i]), data.task, params.epsilon)
        if d:
            row = feature_map.training_row(data, i)
            total += d * d * (float(np.dot(row, row)) + bias_term)
    dg_sq = total / params.dg_sample
    if dg_sq == 0.0:
        return GradientStats(math.sqrt(params.lam) * region.gamma_radius)
    return GradientStats(math.sqrt(dg_sq))


def asset_train(
    feature_map: FeatureMap,
    data: Dataset,
    params: SolverParams,
    region: FeasibleRegion,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[int, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, float]:
    """Run the full training loop and return the reported solution.

    The averaged variant returns the running tail average; the strongly
    convex variant returns the final iterate with a zero intercept. When
    ``checkpoint_every`` is set, ``on_checkpoint(j, gamma, b)`` receives
    the current reporting iterate at that cadence (and at the final
    iteration).
    """
    if data.m < 1:
        raise ValueError("dataset must contain at least one example")
    strongly = params.variant == "strongly_convex"
    if strongly and region.include_bias:
        raise ValueError("the strongly convex variant requires a bias-free region")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")

    stats = None if strongly else estimate_dg(feature_map, data, params, region)

    m = data.m
    labels = data.labels.tolist()
    task = data.task
    eps = params.epsilon
    lam = params.lam
    radius = region.gamma_radius
    radius_sq = radius * radius
    include_bias = region.include_bias
    bound = region.intercept_bound
    avg_start = params.avg_start
    total = params.iterations
    dx = region.max_norm
    dg = stats.dg if stats is not None else 0.0
    fetch = feature_map.training_row
    rows: list = [None] * m
    sqrt = math.sqrt
    dot = np.dot

    gamma = np.zeros(feature_map.dim)
    b = 0.0
    avg_gamma = np.zeros(feature_map.dim)
    avg_b = 0.0
    eta_sum = 0.0

    xi_rng = stream(params.seed, XI_STREAM)
    emitting = checkpoint_every is not None and on_checkpoint is not None
    next_check = min(checkpoint_every, total) if emitting else total + 1

    for first in range(1, total + 1, XI_CHUNK):
        draws = xi_rng.random(min(XI_CHUNK, total + 1 - first)).tolist()
        for j, u in enumerate(draws, first):
            if strongly:
                eta = 1.0 / (lam * j)
            else:
                eta = dx / (dg * sqrt(j))
            xi = int(u * m)
            row = rows[xi]
            if row is None:
                row = fetch(data, xi)
                rows[xi] = row
            d = loss_direction(float(dot(row, gamma)) + b, labels[xi], task, eps)
            scale = 1.0 - eta * lam
            if d:
                gamma = gamma * scale - (eta * d) * row
            else:
                gamma = gamma * scale
            nrm_sq = float(dot(gamma, gamma))
            if nrm_sq > radius_sq:
                gamma *= radius / sqrt(nrm_sq)
            if include_bias:
                if d:
                    b = b - eta * d
                if b > bound:
                    b = bound
                elif b < -bound:
                    b = -bound
            if not strongly and j >= avg_start:
                avg_gamma, _ = running_average(avg_gamma, gamma, eta_sum, eta)
                avg_b, eta_sum = running_average(avg_b, b, eta_sum, eta)
            if j == next_check:
                if strongly or j < avg_start:
                    on_checkpoint(j, gamma.copy(), float(b))
                else:
                    on_checkpoint(j, avg_gamma.copy(), float(avg_b))
                next_check = min(j + checkpoint_every, total) if j < total else total + 1

    if strongly:
        return gamma, 0.0
    return avg_gamma, float(avg_b)
