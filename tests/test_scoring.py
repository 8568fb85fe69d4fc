"""One scoring function, ``decide_all``, split between two processes.

``predict`` and ``eval --model`` score every point through
``model.decide_all``. From ``model.MIN_SPLIT_EVALS`` kernel values or
cosines on, a forked child decides the second half of the rows. These
tests force that split (``helpers.split_files``) on inputs far below the
threshold and check that it changes nothing a user or the benchmark can
see: the exit code and message of a failing point, the evaluation
counters, the traced spans, and the output bytes in fresh interpreters at
one and two BLAS threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from assetsvm import eval_counts, halves, reset_eval_counts
from assetsvm.cli import main
from helpers import split_files, two_moons, write_libsvm

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
APPROXES = [("nystrom", ["--s", "9"]), ("fourier", ["--d", "13"])]


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
def test_a_failing_point_fails_alike_in_either_half(approx, size, value, position, tmp_path,
                                                    capsys):
    # a point whose squared norm or cosine phase overflows, first (in the
    # parent's half) or last (in the child's): the split falls back and
    # the rerun fails on that point, as an unsplit scoring does
    model = train_model(approx, size, tmp_path)
    lines = [f"+1 1:{0.1 * k} 2:-0.5\n" for k in range(10)]
    lines[0 if position == "parent" else -1] = f"+1 1:{value}\n"
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
        assert outcomes[-1] is (FloatingPointError if position == "parent" else halves.ChildFailed)
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
        assert outcomes and all(outcome is None for outcome in outcomes)
        # the parent's half is traced one span per point; the child's spans
        # stay in the child, but its evaluations reach the command's span
        decides = [s for s in tracer.spans if s.name == "model.decide"]
        assert len(decides) == m // 2
        assert {s.evals for s in decides} == {per_point}
        (command_span,) = [s for s in tracer.spans if s.name == name]
        assert command_span.evals == m * per_point


# Trains, predicts and evaluates each case with every split off, then on,
# and writes each output file under argv[1]/<case>-<split>/.
RUN_CASES = """
import contextlib, io, os, sys
from assetsvm.cli import main
from helpers import split_files

root, train, test = sys.argv[1:]
for approx, size in (("nystrom", ["--s", "9"]), ("fourier", ["--d", "13"])):
    for split in (False, True):
        out = os.path.join(root, f"{approx}-{split}")
        os.mkdir(out)
        model, preds = os.path.join(out, "model.txt"), os.path.join(out, "preds.txt")
        with split_files(split), contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(["train", "--task", "class", "--approx", approx, *size,
                         "--sigma", "2.0", "--iters", "300", "--seed", "4", "--data", train,
                         "--model", model, "--eval-data", test,
                         "--metrics", os.path.join(out, "metrics.csv")]) == 0
            assert main(["predict", "--model", model, "--data", test, "--out", preds]) == 0
            assert main(["eval", "--model", model, "--data", test]) == 0
            assert main(["eval", "--pred", preds, "--data", test, "--task", "class"]) == 0
        with open(os.path.join(out, "eval.txt"), "w") as handle:
            handle.write(text.getvalue())
"""


def test_outputs_are_identical_across_interpreters_threads_and_splits(tmp_path):
    train = write_libsvm(tmp_path / "train.svm", two_moons(60, seed=5))
    test = write_libsvm(tmp_path / "test.svm", two_moons(30, seed=6))
    runs = []
    for threads, hash_seed in (("1", "1"), ("2", "2")):
        root = tmp_path / f"threads-{threads}"
        root.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
        runs.append((root, subprocess.Popen(
            [sys.executable, "-c", RUN_CASES, str(root), train, test],
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
    for approx, _ in APPROXES:
        outputs = [
            {f.name: f.read_bytes() for f in (root / f"{approx}-{split}").iterdir()}
            for root, _ in runs
            for split in (False, True)
        ]
        first = outputs[0]
        assert sorted(first) == ["eval.txt", "metrics.csv", "model.txt", "preds.txt"]
        assert first["eval.txt"].count(b"\n") == 2
        for files in outputs[1:]:
            assert files == first
