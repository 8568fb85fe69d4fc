"""One split per file for ``predict`` and ``eval --model``.

Both commands score a libsvm file through ``model.score_file``. From
``halves.MIN_BYTES`` bytes on, or for ``predict``, which decides one point
at a time, from ``halves.MIN_EVALS`` kernel values or cosines on, it forks
one child, which parses and decides the points after the middle of the
file while this process parses and decides those before it; ``eval``'s
block scoring splits by size alone. These tests force that split
(``helpers.split_files``) on inputs far below both thresholds, check that
only the size and the per-point evaluations decide it, and check that it
changes nothing a user or the benchmark can see: the exit code and
message of a failing point or line, the labels of a 0/1 file, the
evaluation counters, the traced spans, and the output bytes in fresh
interpreters at one and two BLAS threads. Each command forks once, and
no child outlives it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from assetsvm import data as data_module
from assetsvm import eval_counts, halves, kernels, reset_eval_counts
from assetsvm import model as model_module
from assetsvm.cli import main
from helpers import split_files, two_moons, write_libsvm

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
APPROXES = [("nystrom", ["--s", "9"]), ("fourier", ["--d", "13"])]


def head_rows(path) -> int:
    """The rows before the split point: lines up to the first newline at or after the middle."""
    raw = Path(path).read_bytes()
    return raw[: raw.index(b"\n", len(raw) // 2) + 1].count(b"\n")


def model_splits(approx) -> list:
    """The outcomes of a forced split of loading a model file: a cosine model's is split."""
    return [None] if approx == "fourier" else []


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def train_model(approx, size, root) -> str:
    train = write_libsvm(root / "train.svm", two_moons(40, seed=3))
    model = str(root / f"{approx}.txt")
    args = ["train", "--task", "class", "--approx", approx, *size, "--sigma", "2.0",
            "--iters", "200", "--data", train, "--model", model]
    assert main(args) == 0
    return model


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans

        yield spans
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("approx, size, value",
                         [("nystrom", ["--s", "9"], "1e200"), ("fourier", ["--d", "13"], "1e308")],
                         ids=["nystrom", "fourier"])
@pytest.mark.parametrize("position", ["parent", "child"])
@pytest.mark.parametrize("layout", ["sparse", "dense"])
def test_a_failing_point_fails_alike_in_either_half(approx, size, value, position, layout,
                                                    tmp_path, capsys):
    # a point whose squared norm or cosine phase overflows, first (in the
    # parent's half) or last (in the child's): the split falls back and
    # the rerun fails on that point, as an unsplit scoring does. A dense
    # point's block is scored by eval in blocks, and then by decide.
    model = train_model(approx, size, tmp_path)
    lines = [f"+1 1:{0.1 * k} 2:-0.5\n" for k in range(10)]
    bad = f"+1 1:{value} 2:0.5\n" if layout == "dense" else f"+1 1:{value}\n"
    lines[0 if position == "parent" else -1] = bad
    data = tmp_path / "points.svm"
    data.write_text("".join(lines))
    out = tmp_path / "preds.txt"
    for command in (
        ["predict", "--model", model, "--data", str(data), "--out", str(out)],
        ["eval", "--model", model, "--data", str(data)],
    ):
        with split_files(False):
            assert main(command) == 3
        expected = capsys.readouterr()
        with split_files(True) as outcomes:
            assert main(command) == 3
        captured = capsys.readouterr()
        # one split of the points, and the rerun after it stays in this
        # process; a cosine model's file was split as it loaded
        failed = FloatingPointError if position == "parent" else halves.ChildFailed
        assert outcomes == model_splits(approx) + [failed]
        assert captured == expected
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("numeric failure: overflow encountered in ")
        assert not out.exists()


@pytest.mark.parametrize("approx, size", APPROXES, ids=["nystrom", "fourier"])
def test_split_scoring_keeps_counts_and_spans(spans, approx, size, tmp_path):
    model = train_model(approx, size, tmp_path)
    m, per_point = 41, int(size[1])
    test = write_libsvm(tmp_path / "test.svm", two_moons(m, seed=4))
    kind = "kernel" if approx == "nystrom" else "cosine"
    for name, command in (
        ("cli.predict", ["predict", "--model", model, "--data", test,
                         "--out", str(tmp_path / "pred.txt")]),
        ("cli.eval", ["eval", "--model", model, "--data", test]),
    ):
        with split_files(True) as outcomes:
            reset_eval_counts()
            assert main(command) == 0
            # the child's evaluations are added to this process's counters
            assert eval_counts() == {"kernel": 0, "cosine": 0, kind: m * per_point}
            with spans.installed(spans.Tracer()) as tracer:
                assert main(command) == 0
        # one split of the points per command, and each child delivered its half
        assert outcomes == 2 * (model_splits(approx) + [None])
        decides = [s for s in tracer.spans if s.name == "model.decide"]
        if name == "cli.predict":
            # the parent's half, the rows before the byte split point, is
            # traced one span per point; the child's spans stay in the child
            assert 0 < head_rows(test) < m
            assert len(decides) == head_rows(test)
            assert {s.evals for s in decides} == {per_point}
        else:
            # eval scores the dense rows of both halves in blocks
            assert not decides
        # the child's evaluations reach the command's span
        (command_span,) = [s for s in tracer.spans if s.name == name]
        assert command_span.evals == m * per_point


@pytest.mark.parametrize("approx, size", APPROXES, ids=["nystrom", "fourier"])
@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
def test_block_scored_eval_counts_every_evaluation_once(approx, size, split, tmp_path):
    # eval scores the dense rows of each half in blocks, without a decide call
    model = train_model(approx, size, tmp_path)
    m, per_point = 41, int(size[1])
    test = write_libsvm(tmp_path / "test.svm", two_moons(m, seed=4))
    kind = "kernel" if approx == "nystrom" else "cosine"
    no_decide = mock.patch.object(model_module, "decide", side_effect=AssertionError("decide"))
    with split_files(split) as outcomes, no_decide:
        reset_eval_counts()
        assert main(["eval", "--model", model, "--data", test]) == 0
        assert eval_counts() == {"kernel": 0, "cosine": 0, kind: m * per_point}
    assert outcomes == (model_splits(approx) + [None] if split else [])


@pytest.mark.parametrize("approx, size", APPROXES, ids=["nystrom", "fourier"])
def test_only_per_point_scoring_splits_by_evaluations(approx, size, tmp_path, capsys):
    # below MIN_BYTES, predict's per-point decisions split by their count;
    # eval's dense blocks split by the file's size alone
    model = train_model(approx, size, tmp_path)
    test = write_libsvm(tmp_path / "test.svm", two_moons(41, seed=4))
    out = tmp_path / "preds.txt"
    predict = ["predict", "--model", model, "--data", test, "--out", str(out)]
    evaluate = ["eval", "--model", model, "--data", test]
    with split_files(False):
        assert main(predict) == 0
        assert main(evaluate) == 0
    expected = out.read_bytes(), capsys.readouterr()
    out.unlink()
    with split_files(False) as outcomes, mock.patch.object(halves, "MIN_EVALS", 1):
        assert main(evaluate) == 0
        assert outcomes == []
        assert main(predict) == 0
    assert outcomes == [None]
    assert (out.read_bytes(), capsys.readouterr()) == expected


@pytest.mark.parametrize("approx, size", APPROXES, ids=["nystrom", "fourier"])
def test_a_failed_child_gives_the_unsplit_output_and_counts(approx, size, tmp_path):
    # the parent decided its half before the child failed; the rerun
    # decides every point again, and each evaluation is counted once
    model = train_model(approx, size, tmp_path)
    m, per_point = 41, int(size[1])
    test = write_libsvm(tmp_path / "test.svm", two_moons(m, seed=4))
    out = tmp_path / "preds.txt"
    command = ["predict", "--model", model, "--data", test, "--out", str(out)]
    with split_files(False):
        assert main(command) == 0
    expected = out.read_bytes()
    failing = mock.patch.object(model_module, "_send_tail_scores",
                                side_effect=RuntimeError("child fails"))
    with split_files(True) as outcomes, failing:
        reset_eval_counts()
        assert main(command) == 0
        assert sum(eval_counts().values()) == m * per_point
    assert outcomes == model_splits(approx) + [halves.ChildFailed]
    assert out.read_bytes() == expected


def test_labels_of_a_01_file_are_mapped_over_both_halves(tmp_path, capsys):
    # the first half holds only label 1 and the second only label 0: each
    # half alone would keep its 1s or reject its 0s, the whole file maps
    # 0 to -1
    model = train_model("nystrom", ["--s", "9"], tmp_path)
    data = tmp_path / "points.svm"
    # the labels have one character each, so the split point does not move
    # when they change
    points = two_moons(40, seed=8).examples
    features = [" 1:{!r} 2:{!r}\n".format(*x.values.tolist()) for x in points]
    data.write_text("".join("1" + line for line in features))
    head = head_rows(data)
    assert 0 < head < len(features)
    data.write_text("".join(("1" if k < head else "0") + line for k, line in enumerate(features)))
    command = ["eval", "--model", model, "--data", str(data)]
    with split_files(False):
        assert main(command) == 0
    expected = capsys.readouterr()
    # the split's own labels and scores, not a sequential rerun's, are printed
    rerun = mock.patch.object(data_module, "load_libsvm", side_effect=AssertionError("rerun"))
    with split_files(True) as outcomes, rerun:
        assert main(command) == 0
    assert outcomes == [None]
    assert capsys.readouterr() == expected
    assert float(expected.out) > 0.0


@pytest.mark.parametrize("last, message", [
    (b"+1 1:0.5 2:x\n", "line 10: non-numeric feature token '2:x'"),
    (b"+1 1:0.5 3:0.25\n", "dimension override 2 is below the largest index 3"),
    (b"+1 1:0.5 2:\xff\n", "libsvm file is not UTF-8 text (invalid start byte: b'\\xff')"),
], ids=["malformed", "past-the-model", "not-utf8"])
def test_a_bad_line_in_the_childs_half_fails_as_unsplit(last, message, tmp_path, capsys):
    model = train_model("nystrom", ["--s", "9"], tmp_path)
    data = tmp_path / "points.svm"
    data.write_bytes(b"".join(f"+1 1:{0.1 * k} 2:-0.5\n".encode() for k in range(9)) + last)
    assert head_rows(data) < 9
    out = tmp_path / "preds.txt"
    for command in (
        ["predict", "--model", model, "--data", str(data), "--out", str(out)],
        ["eval", "--model", model, "--data", str(data)],
    ):
        with split_files(False):
            assert main(command) == 2
        expected = capsys.readouterr()
        with split_files(True) as outcomes:
            assert main(command) == 2
        assert outcomes == [halves.ChildFailed]
        assert no_child_left()
        assert capsys.readouterr() == expected
        assert expected.err == f"data error: {message}\n"
        assert not out.exists()


# Trains, predicts and evaluates each case with every split off, then on,
# and writes each output file under argv[1]/<case>-<split>/. The
# "nystrom-blocks" case trains on the wide file: 600 rows over 80 landmarks
# map in several blocks of kernels.ROW_BLOCK_VALUES // 80 rows.
CASES = (
    ("nystrom", "nystrom", ["--s", "9"], "train"),
    ("fourier", "fourier", ["--d", "13"], "train"),
    ("nystrom-blocks", "nystrom", ["--s", "80"], "wide"),
)
RUN_CASES = f"CASES = {CASES!r}\n" + """
import contextlib, io, os, sys
from assetsvm.cli import main
from assetsvm.model import decide_block, load_model, score_file
from helpers import split_files

root, train, wide, test = sys.argv[1:]
for case, approx, size, data in CASES:
    data = wide if data == "wide" else train
    for split in (False, True):
        out = os.path.join(root, f"{case}-{split}")
        os.mkdir(out)
        model, preds = os.path.join(out, "model.txt"), os.path.join(out, "preds.txt")
        with split_files(split), contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(["train", "--task", "class", "--approx", approx, *size,
                         "--sigma", "2.0", "--iters", "300", "--seed", "4", "--data", data,
                         "--model", model, "--eval-data", test,
                         "--metrics", os.path.join(out, "metrics.csv")]) == 0
            assert main(["predict", "--model", model, "--data", test, "--out", preds]) == 0
            assert main(["eval", "--model", model, "--data", test]) == 0
            assert main(["eval", "--pred", preds, "--data", test, "--task", "class"]) == 0
            # the scores eval computes, in blocks, beside those predict wrote
            _, scores = score_file(load_model(model), test, "classification", decide_block)
        with open(os.path.join(out, "eval.txt"), "w") as handle:
            handle.write(text.getvalue())
        with open(os.path.join(out, "scores.txt"), "w") as handle:
            handle.writelines(f"{value!r}\\n" for value in scores.tolist())
"""


def test_outputs_are_identical_across_interpreters_threads_and_splits(tmp_path):
    train = write_libsvm(tmp_path / "train.svm", two_moons(60, seed=5))
    wide = write_libsvm(tmp_path / "wide.svm", two_moons(600, seed=7))
    test = write_libsvm(tmp_path / "test.svm", two_moons(30, seed=6))
    assert 600 > 2 * (kernels.ROW_BLOCK_VALUES // 80)
    runs = []
    for threads, hash_seed in (("1", "1"), ("2", "2")):
        root = tmp_path / f"threads-{threads}"
        root.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
        runs.append((root, subprocess.Popen(
            [sys.executable, "-c", RUN_CASES, str(root), train, wide, test],
            env=env, stderr=subprocess.PIPE, text=True,
        )))
    try:
        for _, process in runs:
            _, err = process.communicate(timeout=120)
            assert process.returncode == 0, err
    finally:
        for _, process in runs:
            process.kill()
            process.wait()
    for case, *_ in CASES:
        outputs = [
            {f.name: f.read_bytes() for f in (root / f"{case}-{split}").iterdir()}
            for root, _ in runs
            for split in (False, True)
        ]
        first = outputs[0]
        assert sorted(first) == ["eval.txt", "metrics.csv", "model.txt", "preds.txt", "scores.txt"]
        assert first["eval.txt"].count(b"\n") == 2
        for files in outputs:
            # a point scored alone, by predict, and inside a block, by eval,
            # gets the same bits
            alone = [line.split()[1] for line in files["preds.txt"].splitlines()]
            assert files["scores.txt"].splitlines() == alone
        for files in outputs[1:]:
            assert files == first


@pytest.mark.parametrize("approx, size", APPROXES, ids=["nystrom", "fourier"])
@pytest.mark.parametrize("layout", ["plain", "comment-in-parent", "comment-in-child", "crlf"])
def test_small_parser_blocks_score_as_the_default(approx, size, layout, tmp_path, capsys,
                                                  monkeypatch):
    # each half is parsed and decided a block of about BLOCK_CHARS at a time;
    # with blocks of one or two lines, the split delivers the bytes and counts
    # of an unsplit run with the default blocks, and a comment sends the rest
    # of its half, in whichever process, through the line path
    model = train_model(approx, size, tmp_path)
    m = 41
    lines = write_libsvm(tmp_path / "points.svm", two_moons(m, seed=4))
    lines = Path(lines).read_text().splitlines(keepends=True)
    if layout == "comment-in-parent":
        lines.insert(2, "# a note in the first half\n")
    elif layout == "comment-in-child":
        lines.insert(m - 2, "# a note in the second half\n")
    data = tmp_path / "points.svm"
    newline = "\r\n" if layout == "crlf" else "\n"
    data.write_bytes("".join(lines).replace("\n", newline).encode())
    head = head_rows(data)
    assert 2 < head < m - 2
    commands = (
        ["predict", "--model", model, "--data", str(data)],
        ["eval", "--model", model, "--data", str(data)],
    )
    expected = []
    for command in commands:
        reset_eval_counts()
        assert main(command) == 0
        expected.append((capsys.readouterr(), eval_counts()))
    assert expected[0][0].out.count("\n") == m
    monkeypatch.setattr(data_module, "BLOCK_CHARS", 40)
    line_path = mock.patch.object(data_module, "_parse_lines", wraps=data_module._parse_lines)
    for command, (output, counts) in zip(commands, expected):
        with split_files(True) as outcomes, line_path as parsed_by_lines:
            reset_eval_counts()
            assert main(command) == 0
            assert eval_counts() == counts
        assert capsys.readouterr() == output
        assert outcomes == model_splits(approx) + [None]
        # this process parses the first half; the child's calls stay in the child
        assert parsed_by_lines.called == (layout == "comment-in-parent")
