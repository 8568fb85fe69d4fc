import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from assetsvm import (
    ModelFormatError,
    decide,
    eval_counts,
    load_libsvm,
    load_model,
    reset_eval_counts,
)
from assetsvm import cli
from assetsvm.cli import build_parser, main
from helpers import matrix_dataset, sinusoid_dataset, split_files, two_moons, write_libsvm


@pytest.fixture()
def moons_files(tmp_path):
    train = write_libsvm(tmp_path / "train.svm", two_moons(500, seed=0, noise=0.15))
    test = write_libsvm(tmp_path / "test.svm", two_moons(300, seed=1, noise=0.15))
    return train, test


def _bounded(allocate):
    """``allocate`` (np.zeros or np.empty) refusing more than a million
    entries instead of asking the host."""

    def bounded(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape).tolist()) > 1_000_000:
            raise MemoryError(f"cannot allocate {shape}")
        return allocate(shape, *args, **kwargs)

    return bounded


bounded_zeros = _bounded(np.zeros)
bounded_empty = _bounded(np.empty)


def train_args(train, model, **overrides):
    base = {
        "--task": "class",
        "--approx": "nystrom",
        "--s": "64",
        "--sigma": "2.0",
        "--lambda": "0.001",
        "--epochs": "10",
        "--seed": "0",
        "--data": train,
        "--model": model,
    }
    base.update(overrides)
    args = ["train"]
    for key, value in base.items():
        if value is None:
            args.append(key)
        else:
            args.extend([key, str(value)])
    return args


def run_module(args, cwd, stdin=None):
    """``python -m assetsvm *args`` in a process of its own, outside pytest's warning filter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "assetsvm", *args],
        input=stdin, capture_output=True, text=True, env=env, cwd=str(cwd), timeout=120,
    )


class TestTrain:
    def test_two_moons_low_error(self, moons_files, tmp_path, capsys):
        train, test = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model)) == 0
        assert main(["eval", "--model", model, "--data", test]) == 0
        error = float(capsys.readouterr().out.strip())
        assert error <= 0.05

    def test_identical_flags_identical_bytes(self, moons_files, tmp_path):
        train, test = moons_files
        outputs = []
        for tag in ("a", "b"):
            model = str(tmp_path / f"model_{tag}.txt")
            metrics = str(tmp_path / f"metrics_{tag}.csv")
            code = main(
                train_args(
                    train,
                    model,
                    **{"--epochs": "2", "--metrics": metrics, "--eval-data": test},
                )
            )
            assert code == 0
            with open(model, "rb") as mh, open(metrics, "rb") as ch:
                outputs.append((mh.read(), ch.read()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("approx, size", [("nystrom", "--s"), ("fourier", "--d")])
    def test_metrics_leave_the_model_bytes_unchanged(self, approx, size, moons_files, tmp_path):
        train, test = moons_files
        # checkpoints every 50 steps, most of them inside the averaging window
        args = [
            "train", "--task", "class", "--approx", approx, size, "32", "--sigma", "2.0",
            "--epochs", "2", "--nbar", "200", "--data", train,
        ]
        plain, monitored = str(tmp_path / "plain.txt"), str(tmp_path / "monitored.txt")
        metrics = str(tmp_path / "metrics.csv")
        assert main([*args, "--model", plain]) == 0
        assert main([*args, "--model", monitored, "--metrics", metrics, "--eval-data", test]) == 0
        with open(metrics) as handle:
            assert len(handle.readlines()) == 1 + 20
        assert open(monitored, "rb").read() == open(plain, "rb").read()

    def test_metrics_rows_strictly_increasing(self, moons_files, tmp_path):
        train, test = moons_files
        model = str(tmp_path / "model.txt")
        metrics = str(tmp_path / "metrics.csv")
        assert main(train_args(train, model, **{"--epochs": "3", "--metrics": metrics})) == 0
        with open(metrics) as handle:
            header = handle.readline().strip()
            assert header == "iteration,seconds,objective,eval_error"
            iterations = [int(line.split(",")[0]) for line in handle if line.strip()]
        assert iterations == sorted(set(iterations))
        assert len(iterations) >= 3

    def test_fourier_zero_dim_is_usage_error(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        code = main(
            train_args(train, model, **{"--approx": "fourier", "--d": "0", "--s": None})
        )
        assert code == 1
        assert not os.path.exists(model)

    def test_no_writes_when_config_invalid(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        metrics = str(tmp_path / "metrics.csv")
        code = main(
            train_args(
                train,
                model,
                **{"--variant": "strong", "--metrics": metrics},
            )
        )
        assert code == 1  # strong variant without --no-bias
        assert not os.path.exists(model)
        assert not os.path.exists(metrics)

    def test_strong_variant_trains_without_bias(self, moons_files, tmp_path):
        train, test = moons_files
        model = str(tmp_path / "model.txt")
        code = main(
            train_args(train, model, **{"--variant": "strong", "--no-bias": None})
        )
        assert code == 0

    def test_sample_exceeding_dataset_is_data_error(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--s": "501"})) == 2
        assert not os.path.exists(model)

    def test_missing_file_is_data_error(self, tmp_path):
        model = str(tmp_path / "model.txt")
        assert main(train_args(str(tmp_path / "nope.svm"), model)) == 2

    def test_degenerate_kernel_block_is_numeric_error(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        code = main(
            train_args(train, model, **{"--sigma": "100.0", "--eps-d": "1.5", "--s": "8"})
        )
        assert code == 3
        assert not os.path.exists(model)

    def test_eigensolver_failure_is_numeric_error(self, moons_files, tmp_path, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--s": "16"})) == 3
        assert not os.path.exists(model)

    def test_conflicting_budgets_rejected(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--iters": "50", "--epochs": "2"})) == 1

    @pytest.mark.parametrize("value", ["0", "10000001", "100000000000"])
    def test_dg_sample_out_of_range_is_usage_error(self, value, moons_files, tmp_path, capsys):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--dg-sample": value})) == 1
        err = capsys.readouterr().err
        assert "--dg-sample" in err and "Traceback" not in err
        assert not os.path.exists(model)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "flag", ["--sigma", "--lambda", "--B", "--epochs", "--epsilon", "--eps-d"]
    )
    def test_nonfinite_float_option_is_usage_error(
        self, flag, value, moons_files, tmp_path, capsys
    ):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{flag: value})) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not os.path.exists(model)


class TestPredict:
    def test_training_set_predictions_match_labels(self, tmp_path):
        # well-separated moons: the trained model reaches zero training
        # error, so predicting its own training file must reproduce labels
        train = write_libsvm(tmp_path / "sep.svm", two_moons(400, seed=5, noise=0.05))
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--epochs": "20"})) == 0
        out = str(tmp_path / "preds.txt")
        assert main(["predict", "--model", model, "--data", train, "--out", out]) == 0
        with open(out) as handle:
            predicted = [int(line.split()[0]) for line in handle]
        with open(train) as handle:
            actual = [int(line.split()[0]) for line in handle]
        assert predicted == actual

    def test_empty_input_gives_empty_output(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model)) == 0
        empty = str(tmp_path / "empty.svm")
        open(empty, "w").close()
        out = str(tmp_path / "preds.txt")
        assert main(["predict", "--model", model, "--data", empty, "--out", out]) == 0
        assert open(out).read() == ""

    def test_truncated_model_is_data_error(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model)) == 0
        text = open(model).read()
        with open(model, "w") as handle:
            handle.write(text[: len(text) // 3])
        assert main(["predict", "--model", model, "--data", train]) == 2

    def test_dimension_mismatch_is_data_error(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model)) == 0
        wide = str(tmp_path / "wide.svm")
        with open(wide, "w") as handle:
            handle.write("+1 1:0.5 9:1.0\n")
        assert main(["predict", "--model", model, "--data", wide]) == 2

    def test_one_decision_per_point(self, moons_files, tmp_path):
        train, test = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--s": "16", "--epochs": "1"})) == 0
        out = str(tmp_path / "preds.txt")
        reset_eval_counts()
        assert main(["predict", "--model", model, "--data", test, "--out", out]) == 0
        assert eval_counts() == {"kernel": 300 * 16, "cosine": 0}

    @pytest.mark.parametrize(
        "approx, size, evals",
        [
            ("nystrom", ["--s", "16"], {"kernel": 16 * 16 + (500 + 300) * 16, "cosine": 0}),
            ("fourier", ["--d", "32"], {"kernel": 0, "cosine": (500 + 300) * 32}),
        ],
        ids=["nystrom", "fourier"],
    )
    def test_training_maps_each_row_once(self, approx, size, evals, moons_files, tmp_path):
        # the landmark block, then every training and eval row once; the
        # ten metrics checkpoints add nothing
        train, test = moons_files
        args = [
            "train", "--task", "class", "--approx", approx, *size, "--sigma", "2.0",
            "--epochs", "1", "--data", train, "--model", str(tmp_path / "model.txt"),
            "--eval-data", test, "--metrics", str(tmp_path / "metrics.csv"),
        ]
        reset_eval_counts()
        assert main(args) == 0
        assert eval_counts() == evals

    def test_oversized_frequency_header_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox fourier\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 1000000000000000\nd 1\n"
            "gamma 0.5\noffsets 0.25\nfreq 1.0\n"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_oversized_support_index_is_data_error(self, tmp_path, capsys, monkeypatch):
        # a 10**12 x 1 table: the bounded np.zeros refuses it as the host would
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 1000000000000000\nd 1\ns 1\n"
            "gamma 1.0\nalpha 1.0\nsupport 1000000000000:1.0\n"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        monkeypatch.setattr(np, "zeros", bounded_zeros)
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert capsys.readouterr().err == (
            "data error: the support points' kernel table does not fit in memory\n"
        )

    def test_support_width_is_checked_before_densifying(self, tmp_path, capsys, monkeypatch):
        # an 8 GB support block for a 2-dimensional model: the width check
        # must reject the file before anything that size is allocated
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 2\nd 1\ns 1\n"
            "gamma 1.0\nalpha 1.0\nsupport 1000000000:1.0\n"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        monkeypatch.setattr(np, "zeros", bounded_zeros)
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert "beyond input dimension 2" in err
        assert "memory" not in err

    def test_nonfinite_expansion_coefficient_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 2\nd 1\ns 1\n"
            "gamma 1.0\nalpha nan\nsupport 1:1.0\n"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "approx, sigma, body",
        [
            ("fourier", "-1.0", "d 1\ngamma 0.5\noffsets 0.25\nfreq 1.0 0.0\n"),
            ("nystrom", "nan", "d 1\ns 1\ngamma 1.0\nalpha 1.0\nsupport 1:1.0\n"),
        ],
        ids=["fourier", "nystrom"],
    )
    def test_bad_sigma_is_data_error(self, approx, sigma, body, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            f"ASSET-MODEL v1\ntask classification\napprox {approx}\nsigma {sigma}\n"
            f"lambda 0.001\nbias 0.0\nn 2\n{body}"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert "sigma" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "header, body, message",
        [
            ("lambda 0.001", "offsets 0.25 nan\nfreq 1.0 0.0\nfreq 0.0 1.0\n", "in offsets"),
            ("lambda 0.001", "offsets 0.25 0.5\nfreq inf 0.0\nfreq 0.0 1.0\n", "in freq row 1"),
            ("lambda nan", "offsets 0.25 0.5\nfreq 1.0 0.0\nfreq 0.0 1.0\n", "lambda"),
        ],
        ids=["offsets", "freq", "lambda"],
    )
    def test_nonfinite_fourier_value_is_data_error(self, header, body, message, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox fourier\nsigma 1.0\n"
            f"{header}\nbias 0.0\nn 2\nd 2\ngamma 0.5 -0.5\n{body}"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "finite" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "support", ["1:1.0 1:2.0", "1-1.0", "x:1.0", "0:1.0", "1:inf", "3:1.0"]
    )
    def test_bad_support_line_is_model_error(self, support, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 2\nd 1\ns 1\n"
            f"gamma 1.0\nalpha 1.0\nsupport {support}\n"
        )
        with pytest.raises(ModelFormatError):
            load_model(str(model))
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_stdout_output(self, moons_files, tmp_path, capsys):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model)) == 0
        with open(tmp_path / "one.svm", "w") as handle:
            handle.write("+1 1:0.5 2:0.5\n")
        assert main(["predict", "--model", model, "--data", str(tmp_path / "one.svm")]) == 0
        line = capsys.readouterr().out.strip()
        label, value = line.split()
        assert label in ("+1", "-1")
        float(value)

    @pytest.mark.parametrize("task", ["class", "regress"])
    def test_chunk_size_leaves_the_bytes_unchanged(self, task, tmp_path, capsys, monkeypatch):
        # 50 points: chunks of 1 and 7 (the last one short) and one chunk
        # for the whole file give the lines of one decision per point
        if task == "class":
            train = write_libsvm(tmp_path / "train.svm", two_moons(100, seed=3))
            test = write_libsvm(tmp_path / "test.svm", two_moons(50, seed=4))
            size = ["--s", "16", "--sigma", "2.0"]
        else:
            train = write_libsvm(tmp_path / "train.svm", sinusoid_dataset(100, seed=3))
            test = write_libsvm(tmp_path / "test.svm", sinusoid_dataset(50, seed=4))
            size = ["--d", "16", "--sigma", "20.0"]
        approx = "nystrom" if task == "class" else "fourier"
        model = str(tmp_path / "model.txt")
        assert main(["train", "--task", task, "--approx", approx, *size, "--iters", "500",
                     "--data", train, "--model", model]) == 0
        loaded = load_model(model)
        scores = [decide(loaded, x) for x in load_libsvm(test, "regression").examples]
        if task == "class":
            expected = "".join(f"{'+1' if v >= 0.0 else '-1'} {v!r}\n" for v in scores)
        else:
            expected = "".join(f"{v!r}\n" for v in scores)
        out = tmp_path / "preds.txt"
        for chunk in (1, 7, cli.PREDICT_CHUNK):
            monkeypatch.setattr(cli, "PREDICT_CHUNK", chunk)
            assert main(["predict", "--model", model, "--data", test, "--out", str(out)]) == 0
            assert out.read_text() == expected
            assert main(["predict", "--model", model, "--data", test]) == 0
            assert capsys.readouterr().out == expected

    def test_peak_memory_grows_by_the_scores_alone(self, tmp_path):
        # with the scoring split on, this process keeps each point's raw
        # label and score (16 bytes) and holds a parser block and a chunk of
        # output lines at a time, so a file four times as long raises the
        # peak of traced allocations by little more than 16 bytes a point
        train = write_libsvm(tmp_path / "train.svm", two_moons(100, seed=3))
        model = str(tmp_path / "model.txt")
        assert main(["train", "--task", "class", "--approx", "nystrom", "--s", "8",
                     "--sigma", "2.0", "--iters", "300", "--data", train, "--model", model]) == 0
        peaks = {}
        for m in (2000, 8000):
            test = write_libsvm(tmp_path / f"test{m}.svm", two_moons(m, seed=4))
            command = ["predict", "--model", model, "--data", test,
                       "--out", str(tmp_path / "preds.txt")]
            with split_files(True) as outcomes:
                tracemalloc.start()
                try:
                    assert main(command) == 0
                    peaks[m] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert outcomes == [None]
        assert (peaks[8000] - peaks[2000]) / 6000 < 32


class TestEval:
    def test_all_correct_is_zero(self, tmp_path, capsys):
        data = str(tmp_path / "data.svm")
        preds = str(tmp_path / "preds.txt")
        with open(data, "w") as handle:
            handle.write("+1 1:1\n-1 1:2\n")
        with open(preds, "w") as handle:
            handle.write("+1 0.9\n-1 -0.4\n")
        assert main(["eval", "--pred", preds, "--data", data, "--task", "class"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_half_wrong(self, tmp_path, capsys):
        data = str(tmp_path / "data.svm")
        preds = str(tmp_path / "preds.txt")
        with open(data, "w") as handle:
            handle.write("".join(f"{'+1' if i % 2 else '-1'} 1:{i}\n" for i in range(10)))
        with open(preds, "w") as handle:
            handle.write("".join("+1 1.0\n" for _ in range(10)))
        assert main(["eval", "--pred", preds, "--data", data, "--task", "class"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.5

    def test_regression_inside_tube_is_zero(self, tmp_path, capsys):
        data = str(tmp_path / "data.svm")
        preds = str(tmp_path / "preds.txt")
        with open(data, "w") as handle:
            handle.write("0.5 1:1\n-0.25 1:2\n")
        with open(preds, "w") as handle:
            handle.write("0.45\n-0.2\n")
        code = main(
            ["eval", "--pred", preds, "--data", data, "--task", "regress", "--epsilon", "0.1"]
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_nonfinite_epsilon_is_usage_error(self, tmp_path, capsys):
        data = str(tmp_path / "data.svm")
        preds = str(tmp_path / "preds.txt")
        with open(data, "w") as handle:
            handle.write("0.5 1:1\n")
        with open(preds, "w") as handle:
            handle.write("0.45\n")
        code = main(
            ["eval", "--pred", preds, "--data", data, "--task", "regress", "--epsilon", "nan"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @staticmethod
    def _three_errors(task, approx, tmp_path):
        """Train with ``approx`` flags, then the error from eval --model, from
        eval --pred over predict's output, and from the last metrics row.

        Predict and both evals run with every file and scoring split
        between two processes and with none; the predictions must be the
        same bytes either way. The last metrics row scores the returned
        model on --eval-data. The four eval outputs are left in captured
        stdout, sequential first; the metrics row's error column is
        returned.
        """
        if task == "class":
            train_set, eval_set = two_moons(300, seed=2), two_moons(200, seed=3)
            flags = ["--sigma", "2.0"]
        else:
            train_set, eval_set = sinusoid_dataset(300, seed=2), sinusoid_dataset(200, seed=3)
            flags = ["--sigma", "20.0", "--epsilon", "0.05"]
        train = write_libsvm(tmp_path / "train.svm", train_set)
        data = write_libsvm(tmp_path / "eval.svm", eval_set)
        model, metrics = (str(tmp_path / f) for f in ("model.txt", "m.csv"))
        code = main(
            ["train", "--task", task, *approx, "--lambda", "0.001",
             "--epochs", "3", "--checks-per-epoch", "1", "--data", train, "--model", model,
             "--eval-data", data, "--metrics", metrics, *flags]
        )
        assert code == 0
        eps = flags[-2:] if task == "regress" else []
        predictions = []
        for split in (False, True):
            preds = str(tmp_path / f"preds-{split}.txt")
            with split_files(split) as outcomes:
                assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
                assert main(["eval", "--model", model, "--data", data, *eps]) == 0
                assert main(["eval", "--pred", preds, "--data", data, "--task", task, *eps]) == 0
            # every split delivered its half; none fell back
            assert bool(outcomes) == split
            assert all(outcome is None for outcome in outcomes)
            with open(preds, "rb") as handle:
                predictions.append(handle.read())
        assert predictions[0] == predictions[1]
        with open(metrics) as handle:
            from_metrics = handle.read().splitlines()[-1].split(",")[-1]
        return from_metrics

    @pytest.mark.parametrize("task", ["class", "regress"])
    def test_model_pred_and_metrics_errors_agree(self, task, tmp_path, capsys):
        from_metrics = self._three_errors(task, ["--approx", "fourier", "--d", "32"], tmp_path)
        from_model, from_pred, *split_outputs = capsys.readouterr().out.split()
        assert split_outputs == [from_model, from_pred]
        assert from_model == from_pred == from_metrics
        assert float(from_model) > 0.0

    @pytest.mark.parametrize("task", ["class", "regress"])
    def test_landmark_model_pred_and_metrics_errors_agree(self, task, tmp_path, capsys):
        from_metrics = self._three_errors(task, ["--approx", "nystrom", "--s", "40"], tmp_path)
        from_model, from_pred, *split_outputs = capsys.readouterr().out.split()
        assert split_outputs == [from_model, from_pred]
        assert from_model == from_pred
        assert float(from_model) > 0.0
        # the metrics score landmark feature rows, a model its kernel
        # expansion: the two round differently
        assert float(from_metrics) == pytest.approx(float(from_model), rel=1e-9)

    @pytest.mark.parametrize("task", ["class", "regress"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_prediction_is_data_error(self, value, task, tmp_path, capsys):
        data = str(tmp_path / "data.svm")
        preds = str(tmp_path / "preds.txt")
        with open(data, "w") as handle:
            handle.write("+1 1:1\n-1 1:2\n")
        with open(preds, "w") as handle:
            handle.write(f"-1\n{value}\n")
        assert main(["eval", "--pred", preds, "--data", data, "--task", task]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"predictions line 2: non-finite value {value!r}" in captured.err

    def test_count_mismatch_is_data_error(self, tmp_path):
        data = str(tmp_path / "data.svm")
        preds = str(tmp_path / "preds.txt")
        with open(data, "w") as handle:
            handle.write("+1 1:1\n-1 1:2\n")
        with open(preds, "w") as handle:
            handle.write("+1 0.9\n")
        assert main(["eval", "--pred", preds, "--data", data, "--task", "class"]) == 2

    def test_model_and_pred_together_rejected(self, tmp_path):
        assert main(["eval", "--pred", "x", "--model", "y", "--data", "z"]) == 1

    def test_pred_without_task_rejected(self, tmp_path):
        preds = str(tmp_path / "preds.txt")
        open(preds, "w").close()
        assert main(["eval", "--pred", preds, "--data", preds]) == 1


class TestRegressionTraining:
    def test_sinusoid_fourier_fit(self, tmp_path, capsys):
        train = write_libsvm(tmp_path / "train.svm", sinusoid_dataset(150, seed=2))
        test = write_libsvm(tmp_path / "test.svm", sinusoid_dataset(100, seed=3))
        model = str(tmp_path / "model.txt")
        code = main(
            [
                "train",
                "--task",
                "regress",
                "--approx",
                "fourier",
                "--d",
                "256",
                "--sigma",
                "25.0",
                "--lambda",
                "0.01",
                "--epsilon",
                "0.1",
                "--epochs",
                "200",
                "--seed",
                "1",
                "--data",
                train,
                "--model",
                model,
            ]
        )
        assert code == 0
        assert main(["eval", "--model", model, "--data", test, "--epsilon", "0.1"]) == 0
        loss = float(capsys.readouterr().out.strip())
        assert loss <= 0.15

    def test_tube_covering_labels_is_numeric_error(self, tmp_path):
        train = write_libsvm(tmp_path / "train.svm", sinusoid_dataset(50, seed=4))
        model = str(tmp_path / "model.txt")
        code = main(
            [
                "train",
                "--task",
                "regress",
                "--approx",
                "fourier",
                "--d",
                "32",
                "--epsilon",
                "5.0",
                "--data",
                train,
                "--model",
                model,
            ]
        )
        assert code == 3
        assert not os.path.exists(model)

    @staticmethod
    def huge_label_args(tmp_path, magnitude, lam="0.1"):
        rng = np.random.default_rng(5)
        labels = magnitude * np.where(np.arange(20) % 2, 1.0, -1.0)
        data = matrix_dataset(rng.normal(size=(20, 2)), labels, "regression")
        train = write_libsvm(tmp_path / "train.svm", data)
        model = str(tmp_path / "model.txt")
        args = ["train", "--task", "regress", "--approx", "fourier", "--d", "4",
                "--lambda", lam, "--iters", "200", "--data", train, "--model", model]
        return args, model

    @pytest.mark.parametrize(
        "lam",
        [
            # the step after the first moves the iterate past the largest double
            pytest.param("0.1", id="iterate"),
            # the ball radius sqrt(2 ||y||_inf / lambda) is past it already
            pytest.param("1e-10", id="radius"),
        ],
    )
    def test_overflow_is_numeric_error(self, lam, tmp_path, capsys):
        args, model = self.huge_label_args(tmp_path, 1e300, lam)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "Traceback" not in err
        assert not os.path.exists(model)

    @pytest.mark.parametrize("magnitude", [1e150, 1e200])
    def test_huge_labels_train_a_finite_model(self, magnitude, tmp_path):
        # the squared norm of these iterates overflows; their norm does not
        args, model = self.huge_label_args(tmp_path, magnitude)
        assert main(args) == 0
        loaded = load_model(model)
        assert np.all(np.isfinite(loaded.gamma)) and np.isfinite(loaded.b)
        assert np.any(loaded.gamma)


class TestParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_namespaces_hold_only_their_own_defaults(self):
        argv = {
            "train": ["train", "--task", "class", "--approx", "fourier", "--d", "4",
                      "--data", "t.svm", "--model", "m.txt"],
            "predict": ["predict", "--model", "m.txt", "--data", "t.svm"],
            "eval": ["eval", "--data", "t.svm", "--pred", "p.txt", "--task", "class"],
        }
        first = {name: vars(build_parser().parse_args(args)) for name, args in argv.items()}
        assert first["predict"] == {
            "command": "predict", "model": "m.txt", "data": "t.svm", "out": None
        }
        assert first["eval"] == {
            "command": "eval", "data": "t.svm", "model": None, "pred": "p.txt",
            "task": "class", "epsilon": 0.0,
        }
        assert first["train"]["sigma"] == 1.0 and "out" not in first["train"]
        for name in ["eval", "train", "predict", "train", "eval", "predict"]:
            assert vars(build_parser().parse_args(argv[name])) == first[name]


class TestPipedInput:
    """Data read from a pipe, which can be read only once."""

    @staticmethod
    def _run_on_stdin(args, source, tmp_path):
        with open(source) as handle:
            return run_module([*args, "--data", "/dev/stdin"], tmp_path, stdin=handle.read())

    def test_predict_reads_every_piped_point(self, moons_files, tmp_path):
        train, test = moons_files
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--s": "16", "--epochs": "1"})) == 0
        result = self._run_on_stdin(["predict", "--model", model], test, tmp_path)
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 300
        # from a file, split once between two processes or not at all
        for split in (False, True):
            from_file = str(tmp_path / f"file-{split}.txt")
            with split_files(split) as outcomes:
                assert main(["predict", "--model", model, "--data", test, "--out", from_file]) == 0
            assert outcomes == ([None] if split else [])
            assert result.stdout == open(from_file).read()

    def test_train_from_a_pipe_writes_the_same_model(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "file-model.txt")
        assert main(train_args(train, model, **{"--s": "16", "--epochs": "1"})) == 0
        piped = str(tmp_path / "pipe-model.txt")
        args = train_args(train, piped, **{"--s": "16", "--epochs": "1"})
        del args[args.index("--data") : args.index("--data") + 2]
        result = self._run_on_stdin(args, train, tmp_path)
        assert result.returncode == 0, result.stderr
        assert open(piped, "rb").read() == open(model, "rb").read()


class TestNumericFailures:
    def test_overflowing_feature_value_is_numeric_error(self, tmp_path):
        # the squared norm of 1e200 overflows; in a process of its own, so
        # that the CLI's handling, not the test runner's warning filter,
        # turns it into exit 3
        train = tmp_path / "big.svm"
        train.write_text("+1 1:1e200\n-1 1:1.0\n+1 1:2.0\n-1 1:3.0\n")
        model = tmp_path / "model.txt"
        result = run_module(
            ["train", "--task", "class", "--approx", "nystrom", "--s", "4",
             "--data", str(train), "--model", str(model)],
            tmp_path,
        )
        assert result.returncode == 3
        assert "numeric failure" in result.stderr
        assert "Traceback" not in result.stderr
        assert not model.exists()

    @pytest.mark.parametrize(
        "approx, size, value",
        [("fourier", ["--d", "8"], "1e308"), ("nystrom", ["--s", "4"], "1e200")],
        ids=["fourier", "nystrom"],
    )
    def test_overflowing_point_is_numeric_error(self, approx, size, value, tmp_path, capsys):
        # a finite point whose cosine phase or squared norm overflows: both
        # commands that score it end in exit 3 and write nothing, where
        # they used to print nan or a kernel value of 0 with exit 0
        train = tmp_path / "train.svm"
        train.write_text("+1 1:0.1\n-1 1:0.9\n+1 1:0.2\n-1 1:0.8\n")
        point = tmp_path / "point.svm"
        point.write_text(f"+1 1:{value}\n")
        model, out = str(tmp_path / "model.txt"), tmp_path / "preds.txt"
        code = main(
            ["train", "--task", "class", "--approx", approx, *size,
             "--data", str(train), "--model", model]
        )
        assert code == 0
        for args in (
            ["predict", "--model", model, "--data", str(point), "--out", str(out)],
            ["predict", "--model", model, "--data", str(point)],
            ["eval", "--model", model, "--data", str(point)],
        ):
            assert main(args) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("numeric failure: overflow encountered in ")
        assert not out.exists()
        # outside pytest's filter too: one line on stderr, no numpy warning
        result = run_module(
            ["predict", "--model", model, "--data", str(point), "--out", str(out)], tmp_path
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("numeric failure: overflow encountered in ")
        assert not out.exists()


class TestMetricsFile:
    def test_failed_training_leaves_no_metrics_file(self, tmp_path, capsys):
        # the cosine phase of 1e308 overflows during training
        train = tmp_path / "train.svm"
        train.write_text("+1 1:1e308\n-1 1:0.9\n+1 1:0.2\n-1 1:0.8\n")
        model, metrics = tmp_path / "model.txt", tmp_path / "m.csv"
        code = main(
            ["train", "--task", "class", "--approx", "fourier", "--d", "8",
             "--data", str(train), "--model", str(model), "--metrics", str(metrics)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure: overflow encountered in ")
        assert not metrics.exists()
        assert not model.exists()

    def test_unwritable_metrics_path_is_data_error(self, moons_files, tmp_path):
        train, _ = moons_files
        model = str(tmp_path / "model.txt")
        metrics = str(tmp_path / "missing" / "m.csv")
        code = main(train_args(train, model, **{"--s": "16", "--epochs": "1", "--metrics": metrics}))
        assert code == 2
        assert not os.path.exists(model)

    @pytest.mark.parametrize("approx, size", [("nystrom", "--s"), ("fourier", "--d")])
    def test_unwritable_model_path_leaves_no_metrics_file(self, approx, size, moons_files,
                                                          tmp_path, capsys):
        train, _ = moons_files
        model = str(tmp_path / "missing" / "model.txt")
        metrics = tmp_path / "m.csv"
        code = main(["train", "--task", "class", "--approx", approx, size, "16", "--epochs", "1",
                     "--data", train, "--model", model, "--metrics", str(metrics)])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not metrics.exists()


class TestHugeDimension:
    def test_frequency_matrix_too_large_is_usage_error(self, moons_files, tmp_path, capsys,
                                                       monkeypatch):
        # a 10**11 x 2 matrix: the bounded np.empty refuses it as the host would
        train, _ = moons_files
        monkeypatch.setattr(np, "empty", bounded_empty)
        model, metrics = tmp_path / "model.txt", tmp_path / "m.csv"
        code = main(["train", "--task", "class", "--approx", "fourier", "--d", "100000000000",
                     "--data", train, "--model", str(model), "--metrics", str(metrics)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: --d 100000000000: a 100000000000 x 2 frequency matrix does not fit in memory\n"
        )
        assert not model.exists() and not metrics.exists()

    def test_index_past_int64_is_data_error(self, tmp_path, capsys):
        train = write_libsvm(tmp_path / "train.svm", two_moons(40, seed=3))
        model = str(tmp_path / "model.txt")
        assert main(train_args(train, model, **{"--s": "9", "--epochs": "1"})) == 0
        bad = tmp_path / "bad.svm"
        bad.write_text("+1 1:0.5\n-1 1:0.25 99999999999999999999:1\n")
        preds = tmp_path / "preds.txt"
        preds.write_text("+1 0.5\n-1 -0.5\n")
        message = "feature index 99999999999999999999 exceeds 9223372036854775807"
        for command in (
            train_args(str(bad), str(tmp_path / "other.txt")),
            ["predict", "--model", model, "--data", str(bad)],
            ["eval", "--model", model, "--data", str(bad)],
            ["eval", "--pred", str(preds), "--task", "class", "--data", str(bad)],
        ):
            for split in (False, True):
                with split_files(split):
                    assert main(command) == 2
                assert capsys.readouterr() == ("", f"data error: line 2: {message}\n")
        assert not (tmp_path / "other.txt").exists()
        # a landmark model's support line goes through the same parser
        wide = tmp_path / "wide.txt"
        wide.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 2\nd 1\ns 1\n"
            "gamma 1.0\nalpha 1.0\nsupport 99999999999999999999:1.0\n"
        )
        with pytest.raises(ModelFormatError, match=f"^line 12: {message}$"):
            load_model(str(wide))
        assert main(["predict", "--model", str(wide), "--data", train]) == 2
        assert capsys.readouterr().err == f"data error: line 12: {message}\n"

    @pytest.mark.parametrize("index", ["1000000000000", "9223372036854775807"])
    def test_landmark_table_too_large_is_data_error(self, index, tmp_path, capsys, monkeypatch):
        # the sampled landmarks' table has a row per feature up to their
        # largest index: numpy refuses the second size outright, and the first
        # is refused here before it is tried
        data = tmp_path / "wide.svm"
        data.write_text(f"+1 1:0.5 {index}:1\n-1 1:0.25\n")
        model = tmp_path / "model.txt"
        monkeypatch.setattr(np, "zeros", bounded_zeros)
        assert main(train_args(str(data), str(model), **{"--s": "2"})) == 2
        assert capsys.readouterr().err == (
            f"data error: the sampled landmarks use feature index {index}: "
            f"their {index} x 2 kernel table does not fit in memory\n"
        )
        assert not model.exists()

    def test_frequency_matrix_past_numpy_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "wide.svm"
        data.write_text("+1 1:0.5 9223372036854775807:1\n-1 1:0.25\n")
        model = tmp_path / "model.txt"
        code = main(["train", "--task", "class", "--approx", "fourier", "--d", "4",
                     "--data", str(data), "--model", str(model)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --d 4: a 4 x 9223372036854775807 frequency matrix does not fit in memory\n"
        )
        assert not model.exists()

    def test_support_table_past_numpy_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 9223372036854775807\nd 1\ns 1\n"
            "gamma 1.0\nalpha 1.0\nsupport 9223372036854775807:1.0\n"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert capsys.readouterr() == (
            "", "data error: the support points' kernel table does not fit in memory\n"
        )


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        result = run_module(["eval", "--data", "missing.svm", "--model", "missing.txt"], tmp_path)
        assert result.returncode == 2
