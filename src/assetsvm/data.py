"""libsvm-format datasets: parsing, validation, serialization, splitting.

Feature indices are 1-based in files (libsvm convention) and 0-based
internally; the translation happens only at the parse/format boundary.
A dataset keeps its rows in CSR arrays (``SparseRows``). Datasets are
immutable once built and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .rng import SPLIT_STREAM, stream

TaskKind = Literal["classification", "regression"]

TASKS = ("classification", "regression")
# The parser converts about this many characters of lines at a time: its
# token lists stay a few thousand entries long whatever the file's size.
# A block holds about 15 bytes of Python objects per character while it is
# converted. A quarter of this size (8192) cut predict's peak RSS by only
# 0.2-0.3 MiB on the benchmark workloads, and made load_libsvm 4-14% slower.
BLOCK_CHARS = 1 << 15
_COLON, _SPACE = ord(":"), ord(" ")
# Largest 1-based feature index: its 0-based index and the width it implies
# both fit the int64 index arrays.
MAX_INDEX = np.iinfo(np.int64).max


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

    @classmethod
    def view(cls, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        """A vector over arrays known to meet the invariants; nothing is checked or copied."""
        x = object.__new__(cls)
        object.__setattr__(x, "indices", indices)
        object.__setattr__(x, "values", values)
        return x

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


class SparseRows(Sequence[SparseVector]):
    """Consecutive sparse rows in CSR form.

    Row ``i`` holds ``indices[indptr[i]:indptr[i + 1]]`` and the matching
    ``values``; every row keeps the invariants of :class:`SparseVector`.
    The constructor trusts its arrays: rows come from validated
    SparseVectors (:meth:`of`), from the parser, or from slicing another
    SparseRows. Indexing yields SparseVector views of the arrays, and a
    slice is a SparseRows sharing them; neither copies or re-validates.
    """

    __slots__ = ("indptr", "indices", "values")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self.values = values

    @classmethod
    def of(cls, vectors: Iterable[SparseVector]) -> "SparseRows":
        """Rows holding copies of the vectors' arrays, in order."""
        vectors = list(vectors)
        indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum([x.indices.size for x in vectors], out=indptr[1:])
        if not vectors:
            return cls(indptr, np.zeros(0, dtype=np.int64), np.zeros(0))
        return cls(
            indptr,
            np.concatenate([x.indices for x in vectors]),
            np.concatenate([x.values for x in vectors]),
        )

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("SparseRows slices must be contiguous")
            stop = max(start, stop)
            lo, hi = self.indptr[start], self.indptr[stop]
            indptr = self.indptr[start : stop + 1] - lo
            return SparseRows(indptr, self.indices[lo:hi], self.values[lo:hi])
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector.view(self.indices[lo:hi], self.values[lo:hi])

    def __iter__(self) -> Iterator[SparseVector]:
        # SparseVector.view, inlined: the slot descriptors set the fields of
        # the frozen class directly, one C call each
        indices, values = self.indices, self.values
        bounds = self.indptr.tolist()
        new, cls = object.__new__, SparseVector
        set_indices, set_values = cls.indices.__set__, cls.values.__set__
        for lo, hi in zip(bounds, bounds[1:]):
            x = new(cls)
            set_indices(x, indices[lo:hi])
            set_values(x, values[lo:hi])
            yield x

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseRows)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    @property
    def width(self) -> int:
        """Largest index present + 1, or 0 if no row has a feature."""
        return int(self.indices.max()) + 1 if self.indices.size else 0

    def take(self, order: Sequence[int] | np.ndarray) -> "SparseRows":
        """New rows holding the rows at ``order``, in that order."""
        order = np.asarray(order, dtype=np.int64).reshape(-1)
        m = len(self)
        if order.size and (order.min() < -m or order.max() >= m):
            raise IndexError("row index out of range")
        order = np.where(order < 0, order + m, order)
        starts = self.indptr[order]
        lengths = self.indptr[order + 1] - starts
        indptr = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        picks = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return SparseRows(indptr, self.indices[picks], self.values[picks])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of labeled sparse examples, stored as CSR rows.

    ``examples`` accepts any iterable of SparseVectors and is kept as
    :class:`SparseRows`; iterating it yields row views. ``n`` is the
    feature dimension (every stored index is < n). Parsed datasets always
    contain at least one example; empty instances appear only as the
    unused parts of a split or as empty prediction inputs.
    """

    examples: SparseRows
    labels: np.ndarray
    n: int
    task: TaskKind

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64)
        rows = self.examples
        if not isinstance(rows, SparseRows):
            rows = SparseRows.of(rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "examples", rows)
        if self.task not in TASKS:
            raise DataFormatError(f"unknown task {self.task!r}")
        if labels.ndim != 1 or len(rows) != labels.size:
            raise DataFormatError("examples and labels must have matching length")
        if not np.all(np.isfinite(labels)):
            raise DataFormatError("labels must be finite")
        if self.task == "classification" and labels.size:
            bad = labels[(labels != 1.0) & (labels != -1.0)]
            if bad.size:
                raise DataFormatError(f"classification label {bad[0]} not in {{-1, +1}}")
        if self.n < 0:
            raise DataFormatError("feature dimension must be nonnegative")
        if rows.width > self.n:
            first = int(np.argmax(rows.indices >= self.n))
            k = int(np.searchsorted(rows.indptr, first, side="right")) - 1
            raise DataFormatError(
                f"example {k + 1} uses feature index {rows[k].max_index + 1} "
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

    def subset(self, order: Sequence[int] | np.ndarray) -> "Dataset":
        """New dataset holding the examples at ``order``, in that order."""
        order = np.asarray(order, dtype=np.int64).reshape(-1)
        return Dataset(self.examples.take(order), self.labels[order], self.n, self.task)


def parse_row(tokens: Sequence[str], lineno: int) -> SparseVector:
    """One line's ``idx:val`` tokens (1-based, strictly increasing) as a SparseVector."""
    indices: list[int] = []
    values: list[float] = []
    prev = 0
    for token in tokens:
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
        if index > MAX_INDEX:
            raise DataFormatError(f"line {lineno}: feature index {index} exceeds {MAX_INDEX}")
        if not math.isfinite(value):
            raise DataFormatError(f"line {lineno}: non-finite feature value in {token!r}")
        if index <= prev:
            raise DataFormatError(
                f"line {lineno}: feature indices not strictly increasing "
                f"({index} after {prev})"
            )
        prev = index
        indices.append(index - 1)
        values.append(value)
    return SparseVector(np.array(indices, dtype=np.int64), np.array(values))


def format_row(x: SparseVector) -> str:
    """The features of ``x`` as 1-based ``idx:val`` tokens, each preceded by a space."""
    return "".join(f" {i + 1}:{v!r}" for i, v in zip(x.indices.tolist(), x.values.tolist()))


def _map_class_labels(raw: np.ndarray) -> np.ndarray:
    seen = set(raw.tolist())
    if seen <= {-1.0, 1.0}:
        return raw
    if seen <= {0.0, 1.0} and seen != {0.0}:
        # 0/1 files are accepted only when the two-value convention is clear.
        return np.where(raw == 1.0, 1.0, -1.0)
    bad = sorted(seen - {-1.0, 0.0, 1.0}) or [0.0]
    raise DataFormatError(f"classification label {bad[0]} not mappable to {{-1, +1}}")


def _parse_lines(lines: Iterable[str], lineno: int) -> tuple[list[SparseVector], list[float]]:
    """The line path: each line after line ``lineno`` as a row and a raw label."""
    examples: list[SparseVector] = []
    raw_labels: list[float] = []
    for lineno, line in enumerate(lines, start=lineno + 1):
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
        examples.append(parse_row(tokens[1:], lineno))
        raw_labels.append(label)
    return examples, raw_labels


def _parse_block(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels, row lengths, 0-based indices and values of a block of lines.

    Returns None when any line is not plain data that the line path would
    accept unchanged: a comment, a token without exactly one ':' between
    nonempty parts, a non-numeric or non-finite number, an index below 1
    or out of order. Numbers go through the same int() and float() rules
    as the line path's, one numpy conversion per column.
    """
    if any("#" in line for line in lines):
        return None
    rows = [tokens for tokens in map(str.split, lines) if tokens]
    features = [token for tokens in rows for token in tokens[1:]]
    joined = " ".join(features)
    if features:
        # Only "head:tail head:tail ..." has one colon before each joining space.
        raw = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        marks = raw[(raw == _COLON) | (raw == _SPACE)]
        if marks.size != 2 * len(features) - 1 or np.any(marks[1::2] != _SPACE):
            return None
    parts = joined.replace(":", " ").split()
    if len(parts) != 2 * len(features):
        return None
    try:
        labels = np.array([tokens[0] for tokens in rows], dtype=np.float64)
        indices = np.array(parts[0::2], dtype=np.int64)
        values = np.array(parts[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    lengths = np.array([len(tokens) - 1 for tokens in rows], dtype=np.int64)
    if not (np.all(np.isfinite(labels)) and np.all(np.isfinite(values))):
        return None
    if indices.size and indices.min() < 1:
        return None
    row_of = np.repeat(np.arange(lengths.size), lengths)
    if np.any(np.diff(indices)[row_of[1:] == row_of[:-1]] <= 0):
        return None
    return labels, lengths, indices - 1, values


class _Column:
    """A 1-d array filled piece by piece, its capacity doubled when a piece does not fit."""

    def __init__(self, dtype, capacity: int):
        self.data = np.empty(max(capacity, 16), dtype=dtype)
        self.size = 0

    def grow(self, count: int) -> np.ndarray:
        """The next ``count`` slots, appended unfilled: the caller fills them."""
        end = self.size + count
        if end > self.data.size:
            grown = np.empty(max(end, 2 * self.data.size), dtype=self.data.dtype)
            grown[: self.size] = self.data[: self.size]
            self.data = grown
        self.size = end
        return self.data[end - count : end]

    def extend(self, piece: np.ndarray) -> None:
        self.grow(piece.size)[:] = piece

    def view(self) -> np.ndarray:
        return self.data[: self.size]


def _columns(rows_hint: int, nonzeros_hint: int) -> tuple[_Column, _Column, _Column, _Column]:
    """Empty label, row-length, index and value columns."""
    return (
        _Column(np.float64, rows_hint),
        _Column(np.int64, rows_hint),
        _Column(np.int64, nonzeros_hint),
        _Column(np.float64, nonzeros_hint),
    )


def _take_block(lines: Iterator[str]) -> list[str]:
    """The next lines of ``lines`` up to the first that brings the block past BLOCK_CHARS."""
    block: list[str] = []
    size = 0
    for line in lines:
        block.append(line)
        size += len(line)
        if size > BLOCK_CHARS:
            break
    return block


def _dataset(
    rows: SparseRows, raw_labels: np.ndarray, task: TaskKind, n_override: int | None
) -> Dataset:
    if task == "classification" and raw_labels.size:
        raw_labels = _map_class_labels(raw_labels)
    n = rows.width
    if n_override is not None:
        if n_override < n:
            raise DataFormatError(
                f"dimension override {n_override} is below the largest index {n}"
            )
        n = n_override
    return Dataset(rows, raw_labels, n, task)


def _parsed_blocks(
    source: Iterable[str],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The labels, row lengths, 0-based indices and values of each block of lines.

    From the first block that :func:`_parse_block` rejects on, the last
    item is the line path's result for that block and every line after it.
    """
    lines = iter(source)
    lineno = 0
    while block := _take_block(lines):
        parsed = _parse_block(block)
        if parsed is None:
            rest, rest_labels = _parse_lines(itertools.chain(block, lines), lineno)
            tail = SparseRows.of(rest)
            yield np.array(rest_labels), np.diff(tail.indptr), tail.indices, tail.values
            return
        yield parsed
        lineno += len(block)


def _parse_into(columns: tuple[_Column, ...], source: Iterable[str]) -> None:
    """Append the labels, row lengths, indices and values of every line to ``columns``."""
    for parsed in _parsed_blocks(source):
        for column, piece in zip(columns, parsed):
            column.extend(piece)


def _block_rows(lengths: np.ndarray, indices: np.ndarray, values: np.ndarray) -> SparseRows:
    """CSR rows from their lengths and their concatenated indices and values."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return SparseRows(indptr, indices, values)


def _columns_dataset(
    columns: tuple[_Column, ...], task: TaskKind, n_override: int | None
) -> Dataset:
    labels, lengths, indices, values = (column.view() for column in columns)
    return _dataset(_block_rows(lengths, indices, values), labels, task, n_override)


def parse_libsvm(
    source: Iterable[str] | IO[str],
    task: TaskKind,
    n_override: int | None = None,
) -> Dataset:
    """Parse ``label idx:val idx:val ...`` lines into a Dataset.

    '#' starts a comment running to end of line; blank lines are skipped;
    fields are separated by spaces or tabs. The dimension is the largest
    index seen, unless ``n_override`` raises it (lowering is rejected).

    Lines are read in blocks of about BLOCK_CHARS characters, and each
    block's numbers are converted with one numpy call per column. From the
    first block that holds a comment or anything malformed on, the line
    path (:func:`parse_libsvm_lines`) parses instead, so errors and their
    line numbers are the line path's own.
    """
    if task not in TASKS:
        raise DataFormatError(f"unknown task {task!r}")
    columns = _columns(0, 0)
    _parse_into(columns, source)
    return _columns_dataset(columns, task, n_override)


def parse_libsvm_lines(
    source: Iterable[str] | IO[str],
    task: TaskKind,
    n_override: int | None = None,
) -> Dataset:
    """The line path alone: what :func:`parse_libsvm` must agree with."""
    if task not in TASKS:
        raise DataFormatError(f"unknown task {task!r}")
    examples, raw_labels = _parse_lines(source, 0)
    return _dataset(SparseRows.of(examples), np.array(raw_labels), task, n_override)


def not_utf8(what: str, exc: UnicodeDecodeError) -> str:
    """The message of a format error for a file, named by ``what``, that is not UTF-8 text."""
    return f"{what} is not UTF-8 text ({exc.reason}: {exc.object[exc.start : exc.end]!r})"


def _text(raw: IO[bytes]) -> io.TextIOWrapper:
    return io.TextIOWrapper(raw, encoding="utf-8")


class _Prefix(io.RawIOBase):
    """The next ``limit`` bytes of a binary file, read from its current position."""

    def __init__(self, source: IO[bytes], limit: int):
        self.source = source
        self.left = limit

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.source.readinto(memoryview(buffer)[: self.left])
        self.left -= count
        return count


class _Survey(NamedTuple):
    """What a first pass over a file finds: the counts that size
    :func:`load_libsvm`'s columns, and where ``model.score_file`` splits it."""

    newlines: int
    colons: int
    size: int
    # just past the first newline at or after the middle of the file, or
    # None when no line starts in its second half
    split: int | None
    head_newlines: int


def _survey(raw: IO[bytes]) -> _Survey:
    middle = os.fstat(raw.fileno()).st_size // 2
    newlines = colons = size = 0
    split = head_newlines = None
    for chunk in iter(lambda: raw.read(1 << 16), b""):
        if split is None and size + len(chunk) > middle:
            at = chunk.find(b"\n", max(middle - size, 0)) + 1
            if at:
                split = size + at
                head_newlines = newlines + chunk.count(b"\n", 0, at)
        newlines += chunk.count(b"\n")
        colons += chunk.count(b":")
        size += len(chunk)
    if split == size:
        split = None
    return _Survey(newlines, colons, size, split, head_newlines)


def _head_text(raw: IO[bytes], survey: _Survey) -> io.TextIOWrapper:
    """The text of ``raw`` from its current position up to the survey's split point."""
    return _text(io.BufferedReader(_Prefix(raw, survey.split)))


@contextlib.contextmanager
def _tail_text(path: str, survey: _Survey) -> Iterator[io.TextIOWrapper]:
    """The text of ``path`` from the survey's split point on.

    The child of ``model.score_file``'s split reads this; it opens the
    file itself, because a descriptor inherited across the fork shares its
    offset with the parent's.
    """
    with open(path, "rb") as raw:
        raw.seek(survey.split)
        yield _text(raw)


def load_libsvm(path: str, task: TaskKind, n_override: int | None = None) -> Dataset:
    """Parse a libsvm file (see :func:`parse_libsvm`), all of it in this process.

    A file that is not UTF-8 text is a :class:`DataFormatError`.
    """
    if task not in TASKS:
        raise DataFormatError(f"unknown task {task!r}")
    try:
        with open(path, "rb") as raw:
            if raw.seekable():
                # a first pass counts newlines and colons, so the arrays are sized once
                survey = _survey(raw)
                raw.seek(0)
                columns = _columns(survey.newlines + 1, survey.colons)
            else:
                # a pipe is read only once, and its arrays grow as they fill
                columns = _columns(0, 0)
            with _text(raw) as handle:
                _parse_into(columns, handle)
            return _columns_dataset(columns, task, n_override)
    except UnicodeDecodeError as exc:
        raise DataFormatError(not_utf8("libsvm file", exc)) from None


def format_libsvm(data: Dataset) -> str:
    """Serialize a dataset back to libsvm text (1-based indices)."""
    lines = []
    for ex, label in zip(data.examples, data.labels.tolist()):
        if data.task == "classification":
            head = "+1" if label > 0 else "-1"
        else:
            head = repr(label)
        lines.append(head + format_row(ex) + "\n")
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
