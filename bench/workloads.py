"""Seeded synthetic inputs for the three benchmark workloads.

Every generator draws from ``numpy.random.default_rng([seed, tag])`` so the
same ``--seed`` always writes byte-identical libsvm files. The generators
return plain arrays plus the facts the reference checks need (which labels
were flipped, the noise-free target); the program under test only ever
sees the libsvm text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MOONS_NOISE = 0.25
SPARSE_FEATURES = 1000
SPARSE_CLUSTERS = 10
SPARSE_SUPPORT = 30
SPARSE_CLUSTER_NNZ = 16
SPARSE_NOISE_NNZ = 4
SPARSE_FLIP = 0.1
SINE_NOISE = 0.1
SINE_EPSILON = 0.05


@dataclass
class Points:
    """Rows as (0-based indices, values) pairs with one label each."""

    indices: list[np.ndarray]
    values: list[np.ndarray]
    labels: np.ndarray
    extra: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def nonzeros(self) -> int:
        return sum(len(i) for i in self.indices)

    def dense(self, n: int) -> np.ndarray:
        out = np.zeros((self.m, n))
        for row, (idx, val) in enumerate(zip(self.indices, self.values)):
            out[row, idx] = val
        return out


def _dense_points(X: np.ndarray, labels: np.ndarray, **extra) -> Points:
    cols = np.arange(X.shape[1], dtype=np.int64)
    return Points([cols] * X.shape[0], list(X), np.asarray(labels, dtype=np.float64), extra)


def libsvm_text(points: Points, classification: bool) -> str:
    lines = []
    for idx, val, y in zip(points.indices, points.values, points.labels):
        head = ("+1" if y > 0 else "-1") if classification else repr(float(y))
        feats = "".join(f" {i + 1}:{v!r}" for i, v in zip(idx.tolist(), val.tolist()))
        lines.append(head + feats + "\n")
    return "".join(lines)


def two_moons(rng: np.random.Generator, m: int, noise: float = MOONS_NOISE) -> Points:
    """Two interleaved half-circles, half the points each, plus Gaussian noise."""
    half = m // 2
    t_up = rng.uniform(0.0, math.pi, size=half)
    t_dn = rng.uniform(0.0, math.pi, size=m - half)
    upper = np.column_stack([np.cos(t_up), np.sin(t_up)])
    lower = np.column_stack([1.0 - np.cos(t_dn), 0.5 - np.sin(t_dn)])
    X = np.vstack([upper, lower]) + rng.normal(scale=noise, size=(m, 2))
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    order = rng.permutation(m)
    return _dense_points(X[order], y[order])


def sparse_clusters(rng: np.random.Generator, m: int, flip: float = SPARSE_FLIP) -> Points:
    """Clustered sparse rows with a planted label-flip rate.

    Cluster k owns features [k*SUPPORT, (k+1)*SUPPORT) and the label
    (-1)^k. Each row takes CLUSTER_NNZ of its cluster's features plus up
    to NOISE_NNZ features drawn from all SPARSE_FEATURES, with values in
    [0.5, 1.5); then each label flips with probability ``flip``.
    """
    cluster = rng.integers(0, SPARSE_CLUSTERS, size=m)
    picks = np.argsort(rng.random((m, SPARSE_SUPPORT)), axis=1)[:, :SPARSE_CLUSTER_NNZ]
    own = picks + (cluster * SPARSE_SUPPORT)[:, np.newaxis]
    noise = rng.integers(0, SPARSE_FEATURES, size=(m, SPARSE_NOISE_NNZ))
    indices = [np.unique(np.concatenate([a, b])) for a, b in zip(own, noise)]
    values = [rng.uniform(0.5, 1.5, size=idx.size) for idx in indices]
    clean = np.where(cluster % 2 == 0, 1.0, -1.0)
    flipped = rng.random(m) < flip
    labels = np.where(flipped, -clean, clean)
    return Points(indices, values, labels, {"flipped": flipped})


def noisy_sine(rng: np.random.Generator, m: int, noise: float = SINE_NOISE) -> Points:
    x = rng.uniform(0.0, 1.0, size=m)
    y = np.sin(2.0 * math.pi * x) + rng.normal(scale=noise, size=m)
    return _dense_points(x[:, np.newaxis], y)


def sine_grid(rng: np.random.Generator, m: int) -> Points:
    """One jittered point per cell of a uniform grid on [0, 1), noise-free labels."""
    x = (np.arange(m) + rng.uniform(0.0, 1.0, size=m)) / m
    return _dense_points(x[:, np.newaxis], np.sin(2.0 * math.pi * x))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs, its CLI flags and its sizes."""

    name: str
    task: str
    approx: str
    train_m: int
    test_m: int
    eval_m: int
    train_flags: tuple[str, ...]
    eval_flags: tuple[str, ...] = ()

    @property
    def classification(self) -> bool:
        return self.task == "class"

    @property
    def monitored(self) -> bool:
        return self.eval_m > 0

    def _flag(self, name: str) -> str | None:
        return dict(zip(self.train_flags[::2], self.train_flags[1::2])).get(name)

    @property
    def iterations(self) -> int:
        iters = self._flag("--iters")
        if iters is not None:
            return int(iters)
        return max(1, round(float(self._flag("--epochs")) * self.train_m))

    @property
    def dim(self) -> int:
        """Landmarks (s) or cosine features (d): kernel values or cosines per decision."""
        return int(self._flag("--s") or self._flag("--d"))

    @property
    def epsilon(self) -> float:
        return float(self._flag("--epsilon") or 0.0)

    def generate(self, seed: int) -> dict[str, Points]:
        rng = np.random.default_rng([seed, WORKLOAD_TAGS[self.name]])
        if self.name == "moons-nystrom":
            return {"train": two_moons(rng, self.train_m), "test": two_moons(rng, self.test_m)}
        if self.name == "sparse-fourier-monitored":
            return {
                "train": sparse_clusters(rng, self.train_m),
                "eval": sparse_clusters(rng, self.eval_m),
                "test": sparse_clusters(rng, self.test_m),
            }
        return {"train": noisy_sine(rng, self.train_m), "test": sine_grid(rng, self.test_m)}

    def write(self, seed: int, directory: Path) -> dict[str, Points]:
        """Generate the inputs and write one libsvm file per part."""
        parts = self.generate(seed)
        for part, points in parts.items():
            (directory / f"{part}.svm").write_text(
                libsvm_text(points, self.classification), encoding="utf-8"
            )
        return parts

    def train_argv(self, directory: Path, seed: int, model: Path, monitored: bool = True) -> list[str]:
        argv = [
            "train", "--task", self.task, "--approx", self.approx,
            *self.train_flags, "--seed", str(seed),
            "--data", str(directory / "train.svm"), "--model", str(model),
        ]
        if monitored and self.monitored:
            argv += ["--eval-data", str(directory / "eval.svm"),
                     "--metrics", str(directory / "metrics.csv")]
        return argv

    def predict_argv(self, directory: Path, model: Path, out: Path) -> list[str]:
        return ["predict", "--model", str(model), "--data", str(directory / "test.svm"),
                "--out", str(out)]

    def eval_argv(self, directory: Path, model: Path) -> list[str]:
        return ["eval", "--model", str(model), "--data", str(directory / "test.svm"),
                *self.eval_flags]


WORKLOAD_TAGS = {"moons-nystrom": 1, "sparse-fourier-monitored": 2, "sine-regress": 3}

# Each workload loads different layers (bench/README.md has the table):
# moons-nystrom the Jacobi eigensolve and per-point kernel decisions,
# sparse-fourier-monitored parsing, the metrics callback and a large model
# file, sine-regress the solver loop and its running average.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moons-nystrom", task="class", approx="nystrom",
            train_m=4000, test_m=10000, eval_m=0,
            train_flags=("--s", "80", "--sigma", "2.0", "--lambda", "0.001", "--epochs", "3"),
        ),
        Workload(
            name="sparse-fourier-monitored", task="class", approx="fourier",
            train_m=2000, test_m=4000, eval_m=500,
            train_flags=("--d", "128", "--sigma", "0.01", "--lambda", "0.001", "--epochs", "3"),
        ),
        Workload(
            name="sine-regress", task="regress", approx="fourier",
            train_m=2000, test_m=4000, eval_m=0,
            train_flags=("--d", "64", "--sigma", "20.0", "--lambda", "0.0001",
                         "--epsilon", repr(SINE_EPSILON), "--iters", "100000",
                         "--nbar", "50001"),
            eval_flags=("--epsilon", repr(SINE_EPSILON)),
        ),
    )
}
