"""libsvm-format datasets: parsing, validation, serialization, splitting.

Feature indices are 1-based in files (libsvm convention) and 0-based
internally; the translation happens only at the parse/format boundary.
Datasets are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Literal, Sequence

import numpy as np

from .rng import SPLIT_STREAM, stream

TaskKind = Literal["classification", "regression"]

TASKS = ("classification", "regression")


class DataFormatError(ValueError):
    """Malformed libsvm text or inconsistent dataset contents."""


@dataclass(frozen=True, eq=False, slots=True)
class SparseVector:
    """Feature vector stored as parallel index/value arrays.

    Indices are 0-based, strictly increasing, and free of duplicates;
    values are finite floats.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise DataFormatError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx[0] < 0:
                raise DataFormatError("feature indices must be nonnegative")
            if np.any(np.diff(idx) <= 0):
                raise DataFormatError("feature indices must be strictly increasing")
        if not np.all(np.isfinite(val)):
            raise DataFormatError("feature values must be finite")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    @property
    def max_index(self) -> int:
        """Largest 0-based index present, or -1 for the zero vector."""
        return int(self.indices[-1]) if self.indices.size else -1

    def norm_sq(self) -> float:
        return float(np.dot(self.values, self.values))

    def dot(self, other: "SparseVector") -> float:
        _, ia, ib = np.intersect1d(
            self.indices, other.indices, assume_unique=True, return_indices=True
        )
        if ia.size == 0:
            return 0.0
        return float(np.dot(self.values[ia], other.values[ib]))

    def sq_dist(self, other: "SparseVector") -> float:
        d = self.norm_sq() + other.norm_sq() - 2.0 * self.dot(other)
        return max(d, 0.0)

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        if self.indices.size:
            out[self.indices] = self.values
        return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of labeled sparse examples.

    ``n`` is the feature dimension (every stored index is < n). Parsed
    datasets always contain at least one example; empty instances appear
    only as the unused parts of a split or as empty prediction inputs.
    """

    examples: tuple[SparseVector, ...]
    labels: np.ndarray
    n: int
    task: TaskKind

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "examples", tuple(self.examples))
        if self.task not in TASKS:
            raise DataFormatError(f"unknown task {self.task!r}")
        if labels.ndim != 1 or len(self.examples) != labels.size:
            raise DataFormatError("examples and labels must have matching length")
        if not np.all(np.isfinite(labels)):
            raise DataFormatError("labels must be finite")
        if self.task == "classification" and labels.size:
            bad = labels[(labels != 1.0) & (labels != -1.0)]
            if bad.size:
                raise DataFormatError(f"classification label {bad[0]} not in {{-1, +1}}")
        if self.n < 0:
            raise DataFormatError("feature dimension must be nonnegative")
        for k, ex in enumerate(self.examples):
            if ex.max_index >= self.n:
                raise DataFormatError(
                    f"example {k + 1} uses feature index {ex.max_index + 1} "
                    f"beyond dimension {self.n}"
                )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.task == other.task
            and self.n == other.n
            and np.array_equal(self.labels, other.labels)
            and self.examples == other.examples
        )

    @property
    def m(self) -> int:
        return len(self.examples)

    def subset(self, order: Sequence[int]) -> "Dataset":
        """New dataset holding the examples at ``order``, in that order."""
        idx = [int(i) for i in order]
        return Dataset(
            examples=tuple(self.examples[i] for i in idx),
            labels=self.labels[idx] if idx else np.zeros(0),
            n=self.n,
            task=self.task,
        )


def _parse_feature(token: str, lineno: int) -> tuple[int, float]:
    head, sep, tail = token.partition(":")
    if not sep:
        raise DataFormatError(f"line {lineno}: feature token {token!r} lacks ':'")
    try:
        index = int(head)
        value = float(tail)
    except ValueError:
        raise DataFormatError(f"line {lineno}: non-numeric feature token {token!r}") from None
    if index < 1:
        raise DataFormatError(f"line {lineno}: feature index {index} must be >= 1")
    if not math.isfinite(value):
        raise DataFormatError(f"line {lineno}: non-finite feature value in {token!r}")
    return index, value


def _map_class_labels(raw: list[float]) -> list[float]:
    seen = set(raw)
    if seen <= {-1.0, 1.0}:
        return raw
    if seen <= {0.0, 1.0} and seen != {0.0}:
        # 0/1 files are accepted only when the two-value convention is clear.
        return [1.0 if v == 1.0 else -1.0 for v in raw]
    bad = sorted(seen - {-1.0, 0.0, 1.0}) or [0.0]
    raise DataFormatError(f"classification label {bad[0]} not mappable to {{-1, +1}}")


def parse_libsvm(
    source: Iterable[str] | IO[str],
    task: TaskKind,
    n_override: int | None = None,
) -> Dataset:
    """Parse ``label idx:val idx:val ...`` lines into a Dataset.

    '#' starts a comment running to end of line; blank lines are skipped;
    fields are separated by spaces or tabs. The dimension is the largest
    index seen, unless ``n_override`` raises it (lowering is rejected).
    """
    if task not in TASKS:
        raise DataFormatError(f"unknown task {task!r}")
    examples: list[SparseVector] = []
    raw_labels: list[float] = []
    max_index = 0
    for lineno, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise DataFormatError(f"line {lineno}: non-finite label")
        indices: list[int] = []
        values: list[float] = []
        prev = 0
        for token in tokens[1:]:
            index, value = _parse_feature(token, lineno)
            if index <= prev:
                raise DataFormatError(
                    f"line {lineno}: feature indices not strictly increasing "
                    f"({index} after {prev})"
                )
            prev = index
            indices.append(index - 1)
            values.append(value)
        max_index = max(max_index, prev)
        examples.append(SparseVector(np.array(indices, dtype=np.int64), np.array(values)))
        raw_labels.append(label)

    if task == "classification" and raw_labels:
        raw_labels = _map_class_labels(raw_labels)

    n = max_index
    if n_override is not None:
        if n_override < max_index:
            raise DataFormatError(
                f"dimension override {n_override} is below the largest index {max_index}"
            )
        n = n_override
    return Dataset(tuple(examples), np.array(raw_labels), n, task)


def load_libsvm(path: str, task: TaskKind, n_override: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_libsvm(handle, task, n_override)


def format_libsvm(data: Dataset) -> str:
    """Serialize a dataset back to libsvm text (1-based indices)."""
    lines = []
    for ex, label in zip(data.examples, data.labels):
        if data.task == "classification":
            head = "+1" if label > 0 else "-1"
        else:
            head = repr(float(label))
        feats = "".join(
            f" {int(i) + 1}:{float(v)!r}" for i, v in zip(ex.indices, ex.values)
        )
        lines.append(head + feats + "\n")
    return "".join(lines)


def split(
    data: Dataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint (train, valid, test) partition by a seeded permutation.

    Valid and test sizes are the rounded fractions; the remainder goes to
    train. The same seed always yields the same partition.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must be (train, valid, test)")
    f_train, f_valid, f_test = (float(f) for f in fractions)
    if min(f_train, f_valid, f_test) < 0.0:
        raise ValueError("fractions must be nonnegative")
    if abs(f_train + f_valid + f_test - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    m = data.m
    n_valid = int(math.floor(m * f_valid + 0.5))
    n_test = int(math.floor(m * f_test + 0.5))
    n_train = m - n_valid - n_test
    if n_train <= 0:
        raise ValueError("split leaves the training set empty")
    perm = stream(seed, SPLIT_STREAM).permutation(m)
    train_idx = np.sort(perm[:n_train])
    valid_idx = np.sort(perm[n_train : n_train + n_valid])
    test_idx = np.sort(perm[n_train + n_valid :])
    return data.subset(train_idx), data.subset(valid_idx), data.subset(test_idx)
