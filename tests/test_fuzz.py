"""Mutated and truncated input files end in exit 0 or 2, never a traceback.

Every untrusted file the CLI reads (a landmark model, a cosine model, a
libsvm file and a predictions file) is cut after each of its lines and
has single tokens swapped for hostile ones, a few hundred times in all;
each variant goes through ``cli.main``.
"""

from __future__ import annotations

import numpy as np
import pytest

from assetsvm.cli import main
from helpers import two_moons, write_libsvm

SWAPS = 200
TOKENS = ["nan", "inf", "0", "-1", "1e999", "x", "0:1", "2:1 1:1", "1000000:1.0", ""]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    train = write_libsvm(root / "train.svm", two_moons(30, seed=0))
    data = write_libsvm(root / "data.svm", two_moons(6, seed=1))
    models = {}
    for approx, size in (("nystrom", ["--s", "6"]), ("fourier", ["--d", "4"])):
        models[approx] = str(root / f"{approx}.txt")
        args = ["train", "--task", "class", "--approx", approx, *size, "--sigma", "2.0",
                "--iters", "50", "--data", train, "--model", models[approx]]
        assert main(args) == 0
    preds = str(root / "preds.txt")
    assert main(["predict", "--model", models["nystrom"], "--data", data, "--out", preds]) == 0
    return root, data, models, preds


def _commands(kind, path, data, models, preds):
    """The CLI runs that read a file of ``kind`` found at ``path``.

    A model goes through ``predict`` only: ``eval --model`` loads it the
    same way and prints no decision values.
    """
    if kind in models:
        return [["predict", "--model", path, "--data", data]]
    if kind == "libsvm":
        return [["predict", "--model", models["nystrom"], "--data", path],
                ["eval", "--model", models["fourier"], "--data", path],
                ["eval", "--pred", preds, "--data", path, "--task", "class"]]
    return [["eval", "--pred", path, "--data", data, "--task", task]
            for task in ("class", "regress")]


def _variants(texts, rng):
    for kind, text in texts.items():
        lines = text.splitlines(True)
        for cut in range(len(lines)):
            yield kind, "".join(lines[:cut])
    kinds = sorted(texts)
    for _ in range(SWAPS):
        kind = kinds[rng.integers(len(kinds))]
        lines = texts[kind].splitlines()
        row = int(rng.integers(len(lines)))
        tokens = lines[row].split()
        tokens[rng.integers(len(tokens))] = TOKENS[rng.integers(len(TOKENS))]
        lines[row] = " ".join(t for t in tokens if t)
        yield kind, "\n".join(lines) + "\n"


def test_mutated_files_exit_cleanly(files, capsys):
    root, data, models, preds = files
    sources = {**models, "libsvm": data, "predictions": preds}
    texts = {kind: open(path, encoding="utf-8").read() for kind, path in sources.items()}
    path = str(root / "mutated.txt")
    runs = 0
    for kind, text in _variants(texts, np.random.default_rng(0)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in _commands(kind, path, data, models, preds):
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 2), (argv, text)
            if code == 0:
                assert "nan" not in out and "inf" not in out, (argv, text)
            runs += 1
    assert runs > SWAPS
