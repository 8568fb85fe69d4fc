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

Each step costs O(d). The weight vector is kept as a scale times a vector,
gamma = a * v (as in Pegasos, Shalev-Shwartz et al. 2011), with ||v||^2
updated from the step's own score and a cached squared row norm, so the
(1 - eta * lambda) shrink and the ball projection only change a. The tail
average is kept lazily as p * v + q * u (as in averaged SGD, Xu 2011): a step
whose loss is inactive changes only scalars, and an active step adds one
multiple of its row to v and one to u.

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
# The iterate is kept as a scale a times a vector v. Once |a| leaves
# [RENORM_BELOW, 1], a is multiplied into v. The averaged iterate p*v + q*u
# cancels terms up to 1/|a| times its size, so this floor caps that loss at
# about two digits; renormalizing costs about one step and is rare.
RENORM_BELOW = 1e-2


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
            return math.hypot(self.gamma_radius, self.intercept_bound)
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
        if math.isinf(radius):
            raise FloatingPointError(
                f"ball radius overflows for ||y||_inf = {y_inf} and lambda = {lam}"
            )
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


def _fold_scale(a: float, v: np.ndarray, p: float, q: float, u: np.ndarray) -> float:
    """Multiply the scale ``a`` into ``v`` in place and return the new ||v||^2.

    The average's share ``p * v`` moves into ``u`` first, so afterwards the
    caller sets ``a = 1`` and ``p = 0`` and both iterates are unchanged.
    """
    if p:
        u += (p / q) * v
    v *= a
    return float(np.dot(v, v))


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
    total = params.iterations
    # the strongly convex variant never averages
    avg_start = total + 1 if strongly else params.avg_start
    dx = region.max_norm
    dg = stats.dg if stats is not None else 0.0
    renorm_below = RENORM_BELOW
    fetch = feature_map.training_row
    rows: list = [None] * m
    row_sq = [0.0] * m
    sqrt = math.sqrt
    dot = np.dot

    # gamma = a * v with ||v||^2 = v_sq; avg_gamma = p * v + q * u.
    dim = feature_map.dim
    a = 1.0
    v = np.zeros(dim)
    v_sq = 0.0
    b = 0.0
    p = 0.0
    q = 1.0
    u = np.zeros(dim)
    avg_b = 0.0
    eta_sum = 0.0

    xi_rng = stream(params.seed, XI_STREAM)
    emitting = checkpoint_every is not None and on_checkpoint is not None
    next_check = min(checkpoint_every, total) if emitting else total + 1

    for first in range(1, total + 1, XI_CHUNK):
        draws = xi_rng.random(min(XI_CHUNK, total + 1 - first)).tolist()
        for j, draw in enumerate(draws, first):
            if strongly:
                eta = 1.0 / (lam * j)
            else:
                eta = dx / (dg * sqrt(j))
            xi = int(draw * m)
            row = rows[xi]
            if row is None:
                row = fetch(data, xi)
                rows[xi] = row
                row_sq[xi] = float(dot(row, row))
            s = float(dot(row, v))
            d = loss_direction(a * s + b, labels[xi], task, eps)
            a *= 1.0 - eta * lam
            if abs(a) < renorm_below:
                v_sq = _fold_scale(a, v, p, q, u)
                s *= a
                a, p = 1.0, 0.0
            if d:
                c = eta * d / a
                v -= c * row
                v_sq += c * (c * row_sq[xi] - 2.0 * s)
                if p:
                    u += (p * c / q) * row
            nrm_sq = a * a * v_sq
            if not nrm_sq <= radius_sq:
                nrm = abs(a) * sqrt(v_sq)
                if not math.isfinite(nrm):
                    raise FloatingPointError(f"iterate norm overflowed at step {j}")
                a *= radius / nrm
            if abs(a) > 1.0:
                # only a shrink factor below -1 gets here; a * v is in the ball
                v_sq = _fold_scale(a, v, p, q, u)
                a, p = 1.0, 0.0
            if include_bias:
                if d:
                    b = b - eta * d
                if b > bound:
                    b = bound
                elif b < -bound:
                    b = -bound
            if j >= avg_start:
                if eta_sum:
                    weight = eta_sum + eta
                    w_old = eta_sum / weight
                    w_new = eta / weight
                    p = p * w_old + a * w_new
                    q *= w_old
                    avg_b = avg_b * w_old + b * w_new
                    eta_sum = weight
                else:
                    # the first averaged step adopts the iterate exactly
                    p = a
                    avg_b = b
                    eta_sum = eta
            if j == next_check:
                if j < avg_start:
                    on_checkpoint(j, a * v, float(b))
                else:
                    on_checkpoint(j, p * v + q * u, float(avg_b))
                next_check = min(j + checkpoint_every, total) if j < total else total + 1

    if strongly:
        gamma, b = a * v, 0.0
    else:
        gamma, b = p * v + q * u, float(avg_b)
    if not (np.all(np.isfinite(gamma)) and math.isfinite(b)):
        raise FloatingPointError("training produced a non-finite model")
    return gamma, b
