"""Command-line driver: train, predict, and eval subcommands.

Exit codes: 0 ok, 1 usage error, 2 data/model error, 3 numeric failure.
All validation happens before any output file is touched. ``train``
writes its two outputs last, and a ``train`` that exits non-zero leaves
neither of them behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time

import numpy as np

from .data import DataFormatError, load_libsvm, not_utf8
from .kernels import (
    DegenerateKernelError,
    GaussianKernel,
    build_fourier,
    build_nystrom,
)
from .linalg import ConvergenceError
from .model import Model, ModelFormatError, decide_all, load_model, recover_alpha, save_model
# not called here; bench/spans.py traces calls through cli.decide and cli.predict_label
from .model import decide, predict_label  # noqa: F401
from .oracle import feature_objective
from .solver import (
    SolverParams,
    TrivialRegressionError,
    asset_train,
    feasible_region,
    mean_loss,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

TASK_BY_FLAG = {"class": "classification", "regress": "regression"}
VARIANT_BY_FLAG = {"averaged": "averaged", "strong": "strongly_convex"}
# The gradient-norm probe takes one Python step per draw, 3 µs with 64 cosine
# features on a 2-core x86 host, so this many draws already take half a
# minute; larger values are rejected rather than left to run for hours.
MAX_DG_SAMPLE = 10_000_000


class UsageError(Exception):
    pass


def _finite(text: str) -> float:
    """argparse type for float options: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and then shared.

    Parsing leaves it unchanged: each call returns a fresh Namespace that
    holds the defaults of the chosen subcommand only.
    """
    parser = argparse.ArgumentParser(
        prog="assetsvm",
        description="Train and apply Gaussian-kernel SVMs over low-dimensional kernel approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model and write it to disk")
    train.add_argument("--task", choices=sorted(TASK_BY_FLAG), required=True)
    train.add_argument("--approx", choices=("nystrom", "fourier"), required=True)
    train.add_argument("--data", required=True, help="libsvm training file")
    train.add_argument("--model", required=True, help="output model path")
    train.add_argument("--s", type=int, dest="sample_size", help="landmark sample size (nystrom)")
    train.add_argument("--d", type=int, dest="dim", help="feature dimension")
    train.add_argument(
        "--eps-d", type=_finite, default=1e-16, help="eigenvalue retention threshold"
    )
    train.add_argument("--sigma", type=_finite, default=1.0, help="Gaussian kernel width parameter")
    train.add_argument(
        "--lambda", type=_finite, default=1e-3, dest="lam", help="regularization weight"
    )
    train.add_argument("--epsilon", type=_finite, default=0.0, help="regression tube half-width")
    train.add_argument("--iters", type=int, help="iteration budget")
    train.add_argument("--epochs", type=_finite, help="epoch budget (iterations = epochs * m)")
    train.add_argument("--nbar", type=int, help="iteration at which averaging starts")
    train.add_argument("--variant", choices=sorted(VARIANT_BY_FLAG), default="averaged")
    train.add_argument("--no-bias", action="store_true", help="drop the intercept")
    train.add_argument(
        "--B", type=_finite, dest="intercept_bound", help="intercept interval half-width"
    )
    train.add_argument("--dg-sample", type=int, default=1000, help="gradient-norm probe size")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--eval-data", help="held-out libsvm file scored at checkpoints")
    train.add_argument("--metrics", help="CSV path for checkpoint rows")
    train.add_argument("--checks-per-epoch", type=int, default=10)
    train.add_argument(
        "--timing",
        choices=("off", "wall"),
        default="off",
        help="seconds column source for metrics; 'off' writes 0.0 so outputs are byte-reproducible",
    )

    predict = sub.add_parser("predict", help="score a libsvm file with a saved model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", help="output path (default: stdout)")

    evaluate = sub.add_parser("eval", help="error rate of a model or of saved predictions")
    evaluate.add_argument("--data", required=True, help="labeled libsvm file")
    evaluate.add_argument("--model", help="model to score with")
    evaluate.add_argument("--pred", help="predictions file from the predict command")
    evaluate.add_argument("--task", choices=sorted(TASK_BY_FLAG), help="required with --pred")
    evaluate.add_argument("--epsilon", type=_finite, default=0.0, help="regression tube half-width")
    return parser


def _validate_train(config: argparse.Namespace) -> None:
    if config.sigma <= 0.0:
        raise UsageError("--sigma must be positive")
    if config.lam <= 0.0:
        raise UsageError("--lambda must be positive")
    if config.epsilon < 0.0:
        raise UsageError("--epsilon must be nonnegative")
    if config.eps_d <= 0.0:
        raise UsageError("--eps-d must be positive")
    if config.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not 1 <= config.dg_sample <= MAX_DG_SAMPLE:
        raise UsageError(f"--dg-sample must lie in [1, {MAX_DG_SAMPLE}]")
    if config.checks_per_epoch < 1:
        raise UsageError("--checks-per-epoch must be >= 1")
    if config.iters is not None and config.epochs is not None:
        raise UsageError("give --iters or --epochs, not both")
    if config.iters is not None and config.iters < 1:
        raise UsageError("--iters must be >= 1")
    if config.epochs is not None and config.epochs <= 0:
        raise UsageError("--epochs must be positive")
    if config.nbar is not None and config.nbar < 1:
        raise UsageError("--nbar must be >= 1")
    if config.intercept_bound is not None and config.intercept_bound < 0:
        raise UsageError("--B must be nonnegative")
    if config.approx == "fourier":
        if config.dim is None or config.dim < 1:
            raise UsageError("fourier approximation needs --d >= 1")
        if config.sample_size is not None:
            raise UsageError("--s applies only to the nystrom approximation")
    else:
        if config.sample_size is None or config.sample_size < 1:
            raise UsageError("nystrom approximation needs --s >= 1")
        if config.dim is not None and not (1 <= config.dim <= config.sample_size):
            raise UsageError("--d must satisfy 1 <= d <= s")
    if config.variant == "strongly_convex" and not config.no_bias:
        raise UsageError("--variant strong requires --no-bias")
    if config.epsilon > 0.0 and config.task == "classification":
        raise UsageError("--epsilon applies only to regression")


def _eval_error(scores: np.ndarray, labels: np.ndarray, task: str, epsilon: float) -> float:
    """Classification error rate (a score of 0 predicts +1), or mean tube loss."""
    if task == "classification":
        return float(np.mean(np.where(scores >= 0.0, 1.0, -1.0) != labels))
    return mean_loss(scores, labels, task, epsilon)


def cmd_train(config: argparse.Namespace) -> int:
    _validate_train(config)
    data = load_libsvm(config.data, config.task)
    if data.m < 1:
        raise DataFormatError("training file contains no examples")
    if config.approx == "nystrom" and config.sample_size > data.m:
        raise DataFormatError(
            f"--s {config.sample_size} exceeds the {data.m} training examples"
        )
    eval_data = None
    if config.eval_data is not None:
        eval_data = load_libsvm(config.eval_data, config.task, n_override=data.n)
        if eval_data.m < 1:
            raise DataFormatError("evaluation file contains no examples")

    iterations = (
        config.iters
        if config.iters is not None
        else max(1, round((config.epochs if config.epochs is not None else 10.0) * data.m))
    )
    if config.nbar is not None and config.nbar > iterations:
        raise UsageError("--nbar must not exceed the iteration budget")

    kernel = GaussianKernel(config.sigma)
    region = feasible_region(
        config.task,
        config.lam,
        data.labels,
        epsilon=config.epsilon,
        intercept_bound=config.intercept_bound,
        include_bias=not config.no_bias,
    )
    params = SolverParams(
        lam=config.lam,
        iterations=iterations,
        avg_start=config.nbar,
        variant=config.variant,
        dg_sample=config.dg_sample,
        epsilon=config.epsilon,
        seed=config.seed,
    )
    if config.approx == "nystrom":
        dim = config.dim if config.dim is not None else config.sample_size
        feature_map = build_nystrom(
            data, kernel, config.sample_size, dim, eps_d=config.eps_d, seed=config.seed
        )
    else:
        if data.n < 1:
            raise DataFormatError("training data has no features")
        try:
            feature_map = build_fourier(data.n, config.dim, kernel, seed=config.seed)
        except MemoryError:
            raise UsageError(
                f"--d {config.dim}: a {config.dim} x {data.n} frequency matrix "
                "does not fit in memory"
            ) from None

    # checkpoint rows are kept in memory and written just before the model,
    # so a run that fails leaves no metrics file behind
    metrics_rows: list[str] = []
    on_checkpoint = None
    checkpoint_every = None
    if config.metrics is not None:
        checkpoint_every = max(1, round(data.m / config.checks_per_epoch))
        if eval_data is not None:
            # not training_matrix: the map caches one dataset, the training set
            eval_matrix = feature_map.map_all(eval_data.examples)
        start = time.perf_counter()

        def on_checkpoint(j: int, gamma: np.ndarray, b: float) -> None:
            seconds = time.perf_counter() - start if config.timing == "wall" else 0.0
            objective = feature_objective(
                gamma, b, feature_map, data, config.lam, config.epsilon
            )
            if eval_data is not None:
                scores = eval_matrix @ gamma + b
                err = _eval_error(scores, eval_data.labels, config.task, config.epsilon)
                err_text = repr(err)
            else:
                err_text = ""
            metrics_rows.append(f"{j},{seconds!r},{objective!r},{err_text}\n")

    gamma, b = asset_train(
        feature_map,
        data,
        params,
        region,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )

    if config.approx == "nystrom":
        payload: object = recover_alpha(feature_map, gamma)
    else:
        payload = feature_map
    model = Model(
        task=config.task,
        approx=config.approx,
        gamma=gamma,
        b=b,
        lam=config.lam,
        sigma=config.sigma,
        input_dim=data.n,
        payload=payload,
    )
    if config.metrics is not None:
        with open(config.metrics, "w", encoding="utf-8", newline="") as handle:
            handle.write("iteration,seconds,objective,eval_error\n")
            handle.writelines(metrics_rows)
    try:
        save_model(model, config.model)
    except BaseException:
        # a train that fails leaves no output file behind
        if config.metrics is not None:
            with contextlib.suppress(OSError):
                os.remove(config.metrics)
        raise
    return EXIT_OK


def cmd_predict(config: argparse.Namespace) -> int:
    model = load_model(config.model)
    data = load_libsvm(config.data, "regression", n_override=model.input_dim)
    scores = decide_all(model, data.examples).tolist()
    if model.task == "classification":
        # the tie rule of predict_label, without a second decision
        text = "".join(f"{'+1' if value >= 0.0 else '-1'} {value!r}\n" for value in scores)
    else:
        text = "".join(f"{value!r}\n" for value in scores)
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _read_predictions(path: str) -> list[float]:
    values = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                try:
                    value = float(tokens[0])
                except ValueError:
                    raise DataFormatError(
                        f"predictions line {lineno}: non-numeric value {tokens[0]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"predictions line {lineno}: non-finite value {tokens[0]!r}"
                    )
                values.append(value)
    except UnicodeDecodeError as exc:
        raise DataFormatError(not_utf8("predictions file", exc)) from None
    return values


def cmd_eval(config: argparse.Namespace) -> int:
    if (config.model is None) == (config.pred is None):
        raise UsageError("eval needs exactly one of --model or --pred")
    if config.pred is not None and config.task is None:
        raise UsageError("--task is required with --pred")
    if config.epsilon < 0.0:
        raise UsageError("--epsilon must be nonnegative")

    if config.model is not None:
        model = load_model(config.model)
        task = model.task
        data = load_libsvm(config.data, task, n_override=model.input_dim)
        if data.m < 1:
            raise DataFormatError("evaluation file contains no examples")
        scores = decide_all(model, data.examples)
    else:
        task = config.task
        data = load_libsvm(config.data, task)
        scores = np.array(_read_predictions(config.pred))
        if scores.size != data.m:
            raise DataFormatError(f"{scores.size} predictions for {data.m} labeled examples")
        if data.m < 1:
            raise DataFormatError("evaluation file contains no examples")
    print(repr(_eval_error(scores, data.labels, task, config.epsilon)))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "task", None) is not None:
        args.task = TASK_BY_FLAG[args.task]
    if getattr(args, "variant", None) is not None:
        args.variant = VARIANT_BY_FLAG[args.variant]
    try:
        # an overflow or NaN in any command ends in exit 3, never a NaN
        # model or score; predict and eval write nothing before that point
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "train":
                return cmd_train(args)
            if args.command == "predict":
                return cmd_predict(args)
            return cmd_eval(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ModelFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError, DegenerateKernelError, TrivialRegressionError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())
