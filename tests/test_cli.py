import os
import subprocess
import sys

import numpy as np
import pytest

from assetsvm import ModelFormatError, eval_counts, load_model, reset_eval_counts
from assetsvm.cli import main
from helpers import matrix_dataset, sinusoid_dataset, two_moons, write_libsvm


@pytest.fixture()
def moons_files(tmp_path):
    train = write_libsvm(tmp_path / "train.svm", two_moons(500, seed=0, noise=0.15))
    test = write_libsvm(tmp_path / "test.svm", two_moons(300, seed=1, noise=0.15))
    return train, test


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

    def test_oversized_support_index_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 1.0\n"
            "lambda 0.001\nbias 0.0\nn 1000000000000000\nd 1\ns 1\n"
            "gamma 1.0\nalpha 1.0\nsupport 1000000000000:1.0\n"
        )
        data = tmp_path / "one.svm"
        data.write_text("+1 1:0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert "Traceback" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("task", ["class", "regress"])
    def test_model_pred_and_metrics_errors_agree(self, task, tmp_path, capsys):
        # the last metrics row scores the returned model on --eval-data, so
        # all three error computations see the same decision values
        if task == "class":
            train_set, eval_set = two_moons(300, seed=2), two_moons(200, seed=3)
            flags = ["--sigma", "2.0"]
        else:
            train_set, eval_set = sinusoid_dataset(300, seed=2), sinusoid_dataset(200, seed=3)
            flags = ["--sigma", "20.0", "--epsilon", "0.05"]
        train = write_libsvm(tmp_path / "train.svm", train_set)
        data = write_libsvm(tmp_path / "eval.svm", eval_set)
        model, preds, metrics = (str(tmp_path / f) for f in ("model.txt", "preds.txt", "m.csv"))
        code = main(
            ["train", "--task", task, "--approx", "fourier", "--d", "32", "--lambda", "0.001",
             "--epochs", "3", "--checks-per-epoch", "1", "--data", train, "--model", model,
             "--eval-data", data, "--metrics", metrics, *flags]
        )
        assert code == 0
        assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        eps = flags[-2:] if task == "regress" else []
        assert main(["eval", "--model", model, "--data", data, *eps]) == 0
        assert main(["eval", "--pred", preds, "--data", data, "--task", task, *eps]) == 0
        from_model, from_pred = capsys.readouterr().out.split()
        with open(metrics) as handle:
            from_metrics = handle.read().splitlines()[-1].split(",")[-1]
        assert from_model == from_pred == from_metrics
        assert float(from_model) > 0.0

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


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-m", "assetsvm", "eval", "--data", "missing.svm", "--model", "missing.txt"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert result.returncode == 2
