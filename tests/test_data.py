import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assetsvm import (
    DataFormatError,
    Dataset,
    SparseVector,
    data,
    format_libsvm,
    parse_libsvm,
    split,
)
from assetsvm import halves, load_libsvm
from assetsvm.data import parse_libsvm_lines
from helpers import dot, matrix_dataset, norm_sq, planted_dataset, split_files, sq_dist, to_dense


def parse_text(text, task="classification", n_override=None):
    return parse_libsvm(io.StringIO(text), task, n_override=n_override)


class TestParse:
    def test_basic_line(self):
        ds = parse_text("+1 1:0.5 3:1.2\n")
        assert ds.m == 1
        assert ds.n == 3
        assert ds.labels[0] == 1.0
        ex = ds.examples[0]
        assert ex.indices.tolist() == [0, 2]
        assert ex.values.tolist() == [0.5, 1.2]

    def test_label_only_line_is_zero_vector(self):
        ds = parse_text("-1\n")
        assert ds.labels[0] == -1.0
        assert ds.examples[0].indices.size == 0
        assert ds.n == 0

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(DataFormatError, match="increasing"):
            parse_text("+1 3:1 2:5\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(DataFormatError, match="increasing"):
            parse_text("+1 2:1 2:5\n")

    def test_non_numeric_tokens_rejected(self):
        with pytest.raises(DataFormatError, match="label"):
            parse_text("abc 1:1\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            parse_text("+1 1:xyz\n")
        with pytest.raises(DataFormatError, match="':'"):
            parse_text("+1 notafeature\n")

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n+1 1:2.0 # trailing\n   \n-1 2:1.0\n"
        ds = parse_text(text)
        assert ds.m == 2
        assert ds.n == 2

    def test_tabs_as_separators(self):
        ds = parse_text("+1\t1:1.5\t2:2.5\n")
        assert ds.examples[0].values.tolist() == [1.5, 2.5]

    def test_zero_one_labels_mapped(self):
        ds = parse_text("1 1:1\n0 1:2\n")
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_mixed_zero_and_minus_one_rejected(self):
        with pytest.raises(DataFormatError, match="label"):
            parse_text("0 1:1\n-1 1:2\n")

    def test_all_zero_labels_rejected(self):
        with pytest.raises(DataFormatError, match="label"):
            parse_text("0 1:1\n0 1:2\n")

    def test_other_labels_rejected_for_classification(self):
        with pytest.raises(DataFormatError, match="label"):
            parse_text("2 1:1\n-1 1:2\n")

    def test_regression_labels_pass_through(self):
        ds = parse_text("0.25 1:1\n-3.5 1:2\n", task="regression")
        assert ds.labels.tolist() == [0.25, -3.5]

    def test_dimension_override_upward(self):
        ds = parse_text("+1 1:1\n", n_override=10)
        assert ds.n == 10

    def test_dimension_override_downward_rejected(self):
        with pytest.raises(DataFormatError, match="override"):
            parse_text("+1 5:1\n", n_override=3)

    def test_order_preserved(self):
        ds = parse_text("0.1 1:1\n0.2 1:2\n0.3 1:3\n", task="regression")
        assert ds.labels.tolist() == [0.1, 0.2, 0.3]
        assert [ex.values[0] for ex in ds.examples] == [1.0, 2.0, 3.0]

    def test_empty_stream_gives_empty_dataset(self):
        ds = parse_text("")
        assert ds.m == 0


class TestRoundtrip:
    def test_roundtrip_random_datasets(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            task = "classification" if trial % 2 == 0 else "regression"
            m = int(rng.integers(1, 8))
            lines = []
            for _ in range(m):
                if task == "classification":
                    label = "+1" if rng.random() < 0.5 else "-1"
                else:
                    label = repr(float(rng.normal()))
                k = int(rng.integers(0, 5))
                idx = np.sort(rng.choice(20, size=k, replace=False)) + 1
                feats = "".join(f" {i}:{float(rng.normal())!r}" for i in idx)
                lines.append(label + feats + "\n")
            text = "".join(lines)
            first = parse_text(text, task)
            second = parse_text(format_libsvm(first), task)
            assert first == second

    def test_roundtrip_preserves_exact_values(self):
        ds = parse_text("0.1 1:0.30000000000000004 7:-1e-17\n", task="regression")
        again = parse_text(format_libsvm(ds), task="regression")
        assert again.examples[0].values.tolist() == [0.30000000000000004, -1e-17]


class TestSparseVector:
    def test_rejects_nan(self):
        with pytest.raises(DataFormatError):
            SparseVector(np.array([0]), np.array([np.nan]))

    def test_dot_and_distance(self):
        a = SparseVector(np.array([0, 2]), np.array([1.0, 2.0]))
        b = SparseVector(np.array([1, 2]), np.array([3.0, 4.0]))
        assert dot(a, b) == 8.0
        assert sq_dist(a, b) == pytest.approx(1.0 + 9.0 + 4.0)

    def test_to_dense(self):
        v = SparseVector(np.array([1]), np.array([2.0]))
        assert to_dense(v, 3).tolist() == [0.0, 2.0, 0.0]


class TestDatasetInvariants:
    def test_label_example_length_mismatch(self):
        with pytest.raises(DataFormatError):
            Dataset((SparseVector(np.array([0]), np.array([1.0])),), np.array([1.0, -1.0]), 1, "classification")

    def test_index_beyond_dimension(self):
        with pytest.raises(DataFormatError, match="beyond"):
            Dataset((SparseVector(np.array([5]), np.array([1.0])),), np.array([1.0]), 3, "classification")

    def test_classification_needs_pm1(self):
        with pytest.raises(DataFormatError):
            Dataset((SparseVector(np.array([0]), np.array([1.0])),), np.array([2.0]), 1, "classification")


class TestSplit:
    def test_sizes_example(self):
        ds = planted_dataset(10, 3, seed=0)
        train, valid, test = split(ds, (0.8, 0.1, 0.1), seed=7)
        assert (train.m, valid.m, test.m) == (8, 1, 1)

    def test_all_train(self):
        ds = planted_dataset(6, 2, seed=0)
        train, valid, test = split(ds, (1.0, 0.0, 0.0), seed=3)
        assert (train.m, valid.m, test.m) == (6, 0, 0)

    def test_same_seed_same_partition(self):
        ds = planted_dataset(20, 3, seed=1)
        a = split(ds, (0.5, 0.25, 0.25), seed=11)
        b = split(ds, (0.5, 0.25, 0.25), seed=11)
        for x, y in zip(a, b):
            assert x == y

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        ds = planted_dataset(23, 4, seed=2)
        for seed in range(10):
            f = rng.dirichlet([1.0, 1.0, 1.0])
            if round(23 * f[1]) + round(23 * f[2]) >= 23:
                continue
            train, valid, test = split(ds, tuple(f), seed=seed)
            pools = [train, valid, test]
            assert sum(p.m for p in pools) == ds.m
            # every original example appears exactly once across the parts
            seen = []
            for part in pools:
                for ex, label in zip(part.examples, part.labels):
                    seen.append((tuple(ex.indices.tolist()), tuple(ex.values.tolist()), label))
            original = [
                (tuple(ex.indices.tolist()), tuple(ex.values.tolist()), label)
                for ex, label in zip(ds.examples, ds.labels)
            ]
            assert sorted(seen) == sorted(original)

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 40),
        weights=st.tuples(*[st.integers(0, 5)] * 3).filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parts_are_disjoint_and_cover_the_dataset(self, m, weights, seed):
        # row i is [i+1, 0, -(i+1), 2(i+1)]: its first value names its index,
        # and its four stored entries exercise the CSR row pointers
        k = np.arange(1.0, m + 1.0)
        X = np.column_stack([k, np.zeros(m), -k, 2.0 * k])
        ds = matrix_dataset(X, np.where(np.arange(m) % 2, 1.0, -1.0), "classification")
        fractions = tuple(w / sum(weights) for w in weights)
        n_held_out = sum(int(math.floor(m * f + 0.5)) for f in fractions[1:])
        if m - n_held_out <= 0:
            with pytest.raises(ValueError, match="empty"):
                split(ds, fractions, seed=seed)
            return
        parts = split(ds, fractions, seed=seed)
        indices = [[int(ex.values[0]) - 1 for ex in part.examples] for part in parts]
        assert sorted(i for part in indices for i in part) == list(range(m))
        for part, index in zip(parts, indices):
            assert list(part.examples) == [ds.examples[i] for i in index]
            np.testing.assert_array_equal(part.labels, ds.labels[index])

    def test_empty_train_rejected(self):
        ds = planted_dataset(4, 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split(ds, (0.0, 0.5, 0.5), seed=0)

    def test_bad_fractions_rejected(self):
        ds = planted_dataset(4, 2, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            split(ds, (1.5, -0.5, 0.0), seed=0)


class TestRowViews:
    def test_rows_are_views_of_the_csr_arrays(self):
        ds = parse_text("+1 1:0.5 3:1.2\n-1\n+1 2:2.0\n")
        rows = ds.examples
        assert rows.indptr.tolist() == [0, 2, 2, 3]
        assert [x.indices.tolist() for x in rows] == [[0, 2], [], [1]]
        assert rows[-1].values.base is rows.values.base
        assert rows[1:] == ds.subset([1, 2]).examples

    def test_iterating_rows_skips_validation(self, monkeypatch):
        ds = parse_text("+1 1:0.5 3:1.2\n-1 2:1.0\n")
        calls = []
        monkeypatch.setattr(SparseVector, "__post_init__", lambda self: calls.append(self))
        assert [x.max_index for x in ds.examples] == [2, 1]
        assert norm_sq(ds.examples[0]) == 0.25 + 1.2 * 1.2
        assert calls == []

    def test_dataset_from_vectors_matches_parsed(self):
        ds = parse_text("0.5 1:2.0 4:-1.0\n-2 3:1.5\n", task="regression")
        rebuilt = Dataset(tuple(ds.examples), ds.labels, ds.n, ds.task)
        assert rebuilt == ds


def _outcome(parse, source, task, n_override):
    """The parsed dataset, or the type and message of the error."""
    try:
        return parse(source, task, n_override=n_override)
    except Exception as exc:  # noqa: BLE001 - both parsers must fail alike
        return type(exc), str(exc)


def _both(text, task="classification", n_override=None):
    block = _outcome(parse_libsvm, io.StringIO(text), task, n_override)
    line = _outcome(parse_libsvm_lines, io.StringIO(text), task, n_override)
    return block, line


def _loaded(content, task="classification", n_override=None):
    """load_libsvm's outcome on ``content`` (text or bytes) written to a temporary file."""
    if isinstance(content, str):
        content = content.encode("utf-8")
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "data.svm")
        with open(path, "wb") as handle:
            handle.write(content)
        return _outcome(load_libsvm, path, task, n_override)


ANOMALIES = [
    "nan", "inf", "1e999", "x", "notafeature", "1:nan", "1:-inf", "2:1e999", "0:1",
    "-1:2", "1:2:3", ":", "1:", ":1", "1e0:1", "+3:1", "1_0:2", "3:x", "5:1 2:1",
    "4:1 4:2", "99999999999999999999:1", "1:0x10", "#", "# 1:2",
]


@st.composite
def libsvm_texts(draw):
    """Mostly well-formed lines, with blank lines, comments and anomalies mixed in."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append("#" + draw(st.sampled_from(["", " note", " 1:2", "#"])))
            continue
        tokens = [draw(st.sampled_from(["+1", "-1", "1", "0", "0.25", "-3", "1e-300"]))]
        for index in sorted(draw(st.sets(st.integers(1, 12), max_size=5))):
            value = draw(st.floats(allow_nan=False, allow_infinity=False))
            tokens.append(f"{index}:{value!r}")
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ANOMALIES))
        line = draw(st.sampled_from([" ", "\t", "  "])).join(tokens)
        if draw(st.integers(0, 9)) == 0:
            line += " # trailing"
        lines.append(line)
    return "".join(line + "\n" for line in lines)


class TestBlockParser:
    @settings(max_examples=200, deadline=None)
    @given(
        text=libsvm_texts(),
        task=st.sampled_from(["classification", "regression"]),
        n_override=st.sampled_from([None, 0, 5, 20]),
        block=st.sampled_from([1, 16, 64, data.BLOCK_CHARS]),
    )
    def test_block_and_line_paths_agree(self, text, task, n_override, block):
        with mock.patch.object(data, "BLOCK_CHARS", block):
            block_result, line_result = _both(text, task, n_override)
            loaded = _loaded(text, task, n_override)
        assert block_result == line_result == loaded

    @pytest.mark.parametrize("lineno", [4, 6], ids=["first-of-block", "last-of-block"])
    @pytest.mark.parametrize(
        "line, expected",
        [
            ("+1 1:nan\n", "non-finite feature value in '1:nan'"),
            ("+1 2:1 1\n", "feature token '1' lacks ':'"),
            ("+1 0:0.5\n", "feature index 0 must be >= 1"),
            ("x9 1:0.5\n", "non-numeric label 'x9'"),
            ("+1 2:1 1:\n", "non-numeric feature token '1:'"),
        ],
    )
    def test_anomaly_at_block_edges_reports_its_line(self, line, expected, lineno):
        # nine-character lines in blocks of three: lines 4-6 make the second block
        good = "+1 1:0.5\n"
        lines = [good] * 9
        lines[lineno - 1] = line
        with mock.patch.object(data, "BLOCK_CHARS", 3 * len(good) - 1):
            block_result, line_result = _both("".join(lines))
        assert block_result == line_result
        assert block_result == (DataFormatError, f"line {lineno}: {expected}")

    @pytest.mark.parametrize("index", ["9223372036854775808", "99999999999999999999"])
    def test_index_past_int64_is_a_format_error(self, index):
        # the largest index whose width fits int64 loads; one more fails on its line
        top = parse_text("+1 1:0.5 9223372036854775807:1\n")
        assert top.n == 9223372036854775807
        expected = (DataFormatError, f"line 2: feature index {index} exceeds 9223372036854775807")
        assert _both(f"+1 1:0.5\n-1 {index}:1\n") == (expected, expected)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("+1 1:2:3 4\n", "line 1: non-numeric feature token '1:2:3'"),
            ("+1 1:2:3\n-1 4\n", "line 1: non-numeric feature token '1:2:3'"),
            ("+1 1: :2\n", "line 1: non-numeric feature token '1:'"),
        ],
    )
    def test_colon_miscounts_do_not_cancel(self, text, expected):
        # a token with two colons beside one with none, or an empty head
        # beside an empty tail, still has one colon per token on average
        block_result, line_result = _both(text)
        assert block_result == line_result == (DataFormatError, expected)

    @pytest.mark.parametrize("lineno", [4, 6], ids=["first-of-block", "last-of-block"])
    def test_comment_at_block_edges_parses_all_lines(self, lineno):
        good = "+1 1:0.5\n"
        lines = [good.replace("0.5", str(k)) for k in range(1, 10)]
        lines[lineno - 1] = "-1 1:5 #\n"
        with mock.patch.object(data, "BLOCK_CHARS", 3 * len(good) - 1):
            block_result, line_result = _both("".join(lines))
        assert block_result == line_result
        assert block_result.m == 9
        assert block_result.labels[lineno - 1] == -1.0


GOOD = "".join(f"{'+1' if k % 3 else '-1'} 1:{k}.5 {k % 7 + 2}:0.25\n" for k in range(40))


def with_line(line, where):
    """GOOD with its line ``where`` (0-based) replaced."""
    lines = GOOD.splitlines(True)
    lines[where] = line
    return "".join(lines)


def _loaded_alone(content):
    """load_libsvm's outcome on ``content`` with every split forced on, and
    the line path's on the same file; fails if anything forks."""
    if isinstance(content, str):
        content = content.encode("utf-8")
    forked = mock.patch.object(os, "fork", side_effect=AssertionError("load_libsvm forked"))
    with tempfile.TemporaryDirectory() as root, split_files(True) as outcomes, forked:
        assert len(content) >= halves.MIN_BYTES
        path = os.path.join(root, "data.svm")
        with open(path, "wb") as handle:
            handle.write(content)
        loaded = _outcome(load_libsvm, path, "classification", 12)
        with open(path, encoding="utf-8") as text:
            line = _outcome(parse_libsvm_lines, text, "classification", 12)
    assert outcomes == []
    return loaded, line


class TestLoadInOneProcess:
    """load_libsvm parses a file of any size in this process, with the line path's outcome."""

    @pytest.mark.parametrize(
        "text",
        [
            GOOD,
            GOOD.replace("\n", "\r\n"),
            GOOD.replace("\n", "\r", 10),
            with_line("# note\n", 30),
            GOOD.replace("-1 1:3.5", "2 1:3.5"),
            with_line("+1 3:1 2:1\n", 5),
            with_line("+1 3:1 2:1\n", 35),
            GOOD.replace("\n", "\r"),
        ],
        ids=["plain", "crlf", "cr-in-head", "comment", "bad-label", "error-in-head",
             "error-in-tail", "cr-only"],
    )
    def test_load_agrees_with_the_line_path(self, text):
        loaded, line = _loaded_alone(text)
        assert loaded == line

    def test_carriage_returns_alone_end_lines(self):
        # no line break is a newline, so no line starts after the file's middle
        loaded, _ = _loaded_alone(GOOD.replace("\n", "\r"))
        assert loaded == _loaded(GOOD, n_override=12)

    def test_invalid_utf8_is_a_format_error(self):
        loaded, _ = _loaded_alone(GOOD.encode("utf-8")[:-20] + b"\xff\n")
        assert loaded == (
            DataFormatError, "libsvm file is not UTF-8 text (invalid start byte: b'\\xff')"
        )


@st.composite
def canonical_texts(draw):
    """libsvm text exactly as format_libsvm writes it."""
    task = draw(st.sampled_from(["classification", "regression"]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        if task == "classification":
            head = draw(st.sampled_from(["+1", "-1"]))
        else:
            head = repr(draw(finite))
        indices = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        lines.append(head + "".join(f" {i}:{draw(finite)!r}" for i in indices) + "\n")
    return task, "".join(lines)


class TestFormatRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(canonical_texts())
    def test_format_inverts_parse(self, case):
        task, text = case
        assert format_libsvm(parse_text(text, task)) == text
