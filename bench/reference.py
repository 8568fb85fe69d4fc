"""Reference computations kept apart from the program under test.

Nothing here imports ``assetsvm``: model files are parsed from their text,
decision values are recomputed in numpy from the parameters in the file,
and the accuracy references (the two-moons Bayes error, the planted flip
rate, the noise-free sine target) come from the generators' own
definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import Points

# A decision value recomputed here may differ from the program's by
# rounding only; both sum the same terms in another order, so the gap is
# bounded by a small multiple of machine epsilon times the sum of the
# absolute terms. 1e-9 of that sum leaves seven orders of margin.
DECISION_RTOL = 1e-9
CHUNK = 1000


@dataclass
class ModelFile:
    task: str
    approx: str
    sigma: float
    bias: float
    n: int
    d: int
    gamma: np.ndarray
    offsets: np.ndarray | None = None
    freq: np.ndarray | None = None
    alpha: np.ndarray | None = None
    support: np.ndarray | None = None

    def term_scale(self) -> float:
        """Sum of the absolute terms of a decision value, bounding its rounding."""
        if self.approx == "nystrom":
            return float(np.sum(np.abs(self.alpha))) + abs(self.bias)
        return math.sqrt(2.0 / self.d) * float(np.sum(np.abs(self.gamma))) + abs(self.bias)


def parse_model(text: str) -> ModelFile:
    lines = text.splitlines()
    if lines[0] != "ASSET-MODEL v1":
        raise ValueError("not a model file")
    fields: dict[str, list[str]] = {}
    rows: dict[str, list[str]] = {"freq": [], "support": []}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key in rows:
            rows[key].append(rest)
        else:
            fields[key] = rest.split()

    def vec(key: str) -> np.ndarray:
        return np.array([float(t) for t in fields[key]])

    model = ModelFile(
        task=fields["task"][0],
        approx=fields["approx"][0],
        sigma=float(fields["sigma"][0]),
        bias=float(fields["bias"][0]),
        n=int(fields["n"][0]),
        d=int(fields["d"][0]),
        gamma=vec("gamma"),
    )
    if model.approx == "fourier":
        model.offsets = vec("offsets")
        model.freq = np.array([[float(t) for t in row.split()] for row in rows["freq"]])
    else:
        model.alpha = vec("alpha")
        support = np.zeros((len(rows["support"]), model.n))
        for k, row in enumerate(rows["support"]):
            for token in row.split():
                idx, _, val = token.partition(":")
                support[k, int(idx) - 1] = float(val)
        model.support = support
    return model


def decisions(model: ModelFile, points: Points) -> np.ndarray:
    """Decision value of every point, recomputed from the model file.

    Landmark model: sum_i alpha_i * exp(-sigma * ||x - s_i||^2) + b.
    Cosine model: gamma . sqrt(2/d) * cos(W x + o) + b.
    """
    X = points.dense(model.n)
    out = np.empty(points.m)
    for lo in range(0, points.m, CHUNK):
        block = X[lo : lo + CHUNK]
        if model.approx == "nystrom":
            diff = block[:, np.newaxis, :] - model.support[np.newaxis, :, :]
            kernel = np.exp(-model.sigma * np.einsum("ijk,ijk->ij", diff, diff))
            out[lo : lo + CHUNK] = kernel @ model.alpha + model.bias
        else:
            phase = block @ model.freq.T + model.offsets
            features = math.sqrt(2.0 / model.d) * np.cos(phase)
            out[lo : lo + CHUNK] = features @ model.gamma + model.bias
    return out


def labels_of(values: np.ndarray) -> np.ndarray:
    """Classification labels with ties at zero going to +1."""
    return np.where(values >= 0.0, 1.0, -1.0)


def tube_loss(values: np.ndarray, targets: np.ndarray, epsilon: float) -> float:
    return float(np.mean(np.maximum(np.abs(targets - values) - epsilon, 0.0)))


def _legendre_on_half_turn(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(nodes)
    # map [-1, 1] to [0, pi]; weights then average over the uniform angle
    return (t + 1.0) * (math.pi / 2.0), w / 2.0


def moons_densities(X: np.ndarray, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Class-conditional densities of the two-moons generator at points X.

    Each class is a uniform angle on [0, pi] placed on its half-circle,
    convolved with isotropic Gaussian noise of standard deviation ``noise``;
    the angle integral is done by Gauss-Legendre quadrature with nodes
    spaced well below the noise width along the curve.
    """
    t, w = _legendre_on_half_turn(max(48, math.ceil(2.0 * math.pi / noise)))
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    norm = 1.0 / (2.0 * math.pi * noise * noise)
    out = []
    for curve in (upper, lower):
        dens = np.empty(len(X))
        for lo in range(0, len(X), 4096):
            block = X[lo : lo + 4096]
            sq = ((block[:, np.newaxis, :] - curve[np.newaxis, :, :]) ** 2).sum(axis=2)
            dens[lo : lo + 4096] = norm * (np.exp(-sq / (2.0 * noise * noise)) @ w)
        out.append(dens)
    return out[0], out[1]


def moons_bayes_error(noise: float) -> float:
    """Bayes error of the two-moons generator with equal class priors.

    Integrates min(p+, p-)/2 over a grid that covers both half-circles
    with eight noise widths of border, by the midpoint rule with cells an
    eighth of the noise width (halving the cells moves the result by less
    than 1e-6 at the benchmark's noise level).
    """
    h = noise / 8.0
    pad = 8.0 * noise
    xs = np.arange(-1.0 - pad, 2.0 + pad, h) + h / 2.0
    ys = np.arange(-0.5 - pad, 1.0 + pad, h) + h / 2.0
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    p_up, p_dn = moons_densities(grid, noise)
    return float(0.5 * np.sum(np.minimum(p_up, p_dn)) * h * h)


def planted_flip_rate(points: Points) -> float:
    """Share of labels the sparse generator flipped: the Bayes error of its task."""
    return float(np.mean(points.extra["flipped"]))


def sine_target(points: Points) -> np.ndarray:
    """Noise-free regression target sin(2 pi x) at the points' coordinate."""
    return np.sin(2.0 * math.pi * points.dense(1)[:, 0])
