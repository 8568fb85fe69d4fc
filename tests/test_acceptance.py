"""End-to-end acceptance gate.

One test per criterion, each printing a `[acceptance] <name>: PASS/FAIL`
line with the measured quantity next to its limit (run with `-s` to see
the lines as they complete). Shared reference solutions are computed once
per session.
"""

import math
import time

import numpy as np
import pytest

from assetsvm import (
    GaussianKernel,
    SolverParams,
    asset_train,
    build_fourier,
    build_nystrom,
    decide,
    eval_counts,
    feasible_region,
    feature_objective,
    gram_matrix,
    kernel_objective,
    recover_alpha,
    reset_eval_counts,
    solve_exact,
)
from assetsvm.cli import main as cli_main
from helpers import (
    dense_vector,
    kernel_eval,
    planted_dataset,
    sinusoid_dataset,
    two_moons,
    write_libsvm,
)

LAM = 0.1
SIGMA = 1.0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def exact_feature_map(ds, seed=0):
    return build_nystrom(ds, GaussianKernel(SIGMA), ds.m, ds.m, seed=seed)


@pytest.fixture(scope="module")
def fixed_problem():
    """One m=50 classification instance with its reference solutions."""
    ds = planted_dataset(50, 5, seed=100)
    nmap = exact_feature_map(ds)
    kernel = GaussianKernel(SIGMA)
    with_bias = solve_exact(ds, kernel, LAM, iterations=20000, intercept_bound=1.0)
    no_bias = solve_exact(ds, kernel, LAM, iterations=20000, include_bias=False)
    return ds, nmap, with_bias, no_bias


def test_01_oracle_equivalence():
    # five random planted instances; the trained objective must land within
    # 2 percent of the reference optimum (median over 11 seeds each)
    start = time.perf_counter()
    worst = 0.0
    for ds_seed in range(100, 105):
        ds = planted_dataset(50, 5, seed=ds_seed)
        nmap = exact_feature_map(ds)
        reference = solve_exact(
            ds, GaussianKernel(SIGMA), LAM, iterations=20000, intercept_bound=1.0
        )
        region = feasible_region("classification", LAM, ds.labels, intercept_bound=1.0)
        objectives = []
        for seed in range(11):
            params = SolverParams(lam=LAM, iterations=30000, avg_start=15000, seed=seed)
            gamma, b = asset_train(nmap, ds, params, region)
            objectives.append(feature_objective(gamma, b, nmap, ds, LAM))
        ratio = float(np.median(objectives)) / reference.objective
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.02 and elapsed < 60.0
    report(
        "oracle-equivalence",
        ok,
        f"worst median ratio {worst:.4f} <= 1.02, elapsed {elapsed:.1f}s < 60s",
    )
    assert worst <= 1.02
    assert elapsed < 60.0


def test_02_expansion_value_identity(fixed_problem):
    # recovering expansion coefficients from any feasible point must
    # reproduce the feature-space objective exactly (algebraic identity)
    ds, nmap, _, _ = fixed_problem
    kernel = GaussianKernel(SIGMA)
    region = feasible_region("classification", LAM, ds.labels)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        gamma = rng.normal(size=nmap.dim)
        gamma *= rng.uniform(0.0, region.gamma_radius) / float(np.linalg.norm(gamma))
        b = rng.uniform(-region.intercept_bound, region.intercept_bound)
        rec = recover_alpha(nmap, gamma)
        alpha = np.zeros(ds.m)
        alpha[nmap.sample_indices] = rec.alpha
        via_kernel = kernel_objective(alpha, b, ds, kernel, LAM)
        via_features = feature_objective(gamma, b, nmap, ds, LAM)
        worst = max(worst, abs(via_kernel - via_features))
    ok = worst <= 1e-8
    report("expansion-value-identity", ok, f"max |difference| {worst:.2e} <= 1e-8")
    assert worst <= 1e-8


def gap_series(ds, nmap, region, reference, iterations, seeds, variant="averaged"):
    gaps = []
    for seed in range(seeds):
        if variant == "averaged":
            params = SolverParams(
                lam=LAM, iterations=iterations, avg_start=max(1, iterations // 2), seed=seed
            )
        else:
            params = SolverParams(
                lam=LAM, iterations=iterations, avg_start=iterations, variant=variant, seed=seed
            )
        gamma, b = asset_train(nmap, ds, params, region)
        gaps.append(feature_objective(gamma, b, nmap, ds, LAM) - reference.objective)
    return float(np.median(gaps))


def test_03_rate_trend_averaged(fixed_problem):
    # a 16x budget increase must at least halve the median optimality gap
    # (the 1/sqrt(N) rate predicts a factor of 4)
    ds, nmap, reference, _ = fixed_problem
    start = time.perf_counter()
    region = feasible_region("classification", LAM, ds.labels, intercept_bound=1.0)
    gap_small = gap_series(ds, nmap, region, reference, 1000, seeds=20)
    gap_large = gap_series(ds, nmap, region, reference, 16000, seeds=20)
    elapsed = time.perf_counter() - start
    ratio = gap_large / gap_small
    ok = ratio <= 0.5 and elapsed < 120.0
    report(
        "rate-trend-averaged",
        ok,
        f"gap(16000)/gap(1000) = {gap_large:.5f}/{gap_small:.5f} = {ratio:.3f} <= 0.5, "
        f"elapsed {elapsed:.1f}s < 120s",
    )
    assert gap_small > 0.0
    assert ratio <= 0.5
    assert elapsed < 120.0


def test_04_rate_trend_strongly_convex(fixed_problem):
    # without the intercept the 1/N schedule should shrink the gap by at
    # least 0.4 over a 10x budget, and both variants should land on
    # objectives within 5 percent of each other
    ds, nmap, _, reference = fixed_problem
    region = feasible_region("classification", LAM, ds.labels, include_bias=False)
    gap_small = gap_series(ds, nmap, region, reference, 1000, seeds=20, variant="strongly_convex")
    gap_large = gap_series(ds, nmap, region, reference, 10000, seeds=20, variant="strongly_convex")
    ratio = gap_large / gap_small
    strong_obj = gap_large + reference.objective
    averaged_obj = gap_series(ds, nmap, region, reference, 10000, seeds=20) + reference.objective
    spread = abs(averaged_obj - strong_obj) / ((averaged_obj + strong_obj) / 2.0)
    ok = ratio <= 0.4 and spread <= 0.05
    report(
        "rate-trend-strongly-convex",
        ok,
        f"gap(1e4)/gap(1e3) = {ratio:.3f} <= 0.4, variant spread {spread:.4f} <= 0.05",
    )
    assert gap_small > 0.0
    assert ratio <= 0.4
    assert spread <= 0.05


def test_05_random_features_unbiased():
    # cosine-feature inner products track the kernel pointwise, and the
    # average over 50 independent maps sits within 3 standard errors
    kernel = GaussianKernel(0.5)
    rng = np.random.default_rng(60)
    pairs = [
        (dense_vector(rng.normal(size=5)), dense_vector(rng.normal(size=5)))
        for _ in range(100)
    ]
    exact = np.array([kernel_eval(kernel, s, t) for s, t in pairs])

    fmap = build_fourier(5, 4096, kernel, seed=0)
    single = np.array([float(fmap.map_point(s) @ fmap.map_point(t)) for s, t in pairs])
    mean_abs = float(np.mean(np.abs(single - exact)))

    estimates = np.empty((50, 100))
    for k in range(50):
        fm = build_fourier(5, 4096, kernel, seed=100 + k)
        estimates[k] = [float(fm.map_point(s) @ fm.map_point(t)) for s, t in pairs]
    avg = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(50)
    covered = int(np.sum(np.abs(avg - exact) <= 3.0 * se))

    ok = mean_abs <= 0.05 and covered >= 95
    report(
        "random-features-unbiased",
        ok,
        f"mean |err| {mean_abs:.4f} <= 0.05, coverage {covered}/100 >= 95",
    )
    assert mean_abs <= 0.05
    assert covered >= 95


def test_06_landmark_factorization_exact_at_full_rank():
    ds = planted_dataset(100, 5, seed=106)
    kernel = GaussianKernel(SIGMA)
    nmap = build_nystrom(ds, kernel, ds.m, ds.m, seed=0)
    rows = np.stack([nmap.training_row(ds, i) for i in range(ds.m)])
    gram = gram_matrix(kernel, ds)
    residual = float(np.linalg.norm(rows @ rows.T - gram) / np.linalg.norm(gram))
    ok = residual <= 1e-8
    report("landmark-exact-at-full-rank", ok, f"relative residual {residual:.2e} <= 1e-8")
    assert residual <= 1e-8


def test_07_dimension_sweep_two_moons():
    # more landmarks help monotonically in the useful range, and random
    # cosine features need at least as much dimension to match them
    train = two_moons(2000, seed=40, noise=0.2)
    test = two_moons(1000, seed=41, noise=0.2)
    kernel = GaussianKernel(2.0)
    lam = 1e-3
    region = feasible_region("classification", lam, train.labels)

    def test_error(feature_map, gamma, b):
        wrong = 0
        for x, y in zip(test.examples, test.labels):
            score = float(feature_map.map_point(x) @ gamma) + b
            if (1.0 if score >= 0.0 else -1.0) != y:
                wrong += 1
        return 100.0 * wrong / test.m

    dims = (4, 16, 64, 256)
    medians: dict[str, dict[int, float]] = {"nystrom": {}, "fourier": {}}
    for dim in dims:
        for approx in medians:
            errors = []
            for seed in range(3):
                if approx == "nystrom":
                    fmap = build_nystrom(train, kernel, dim, dim, seed=seed)
                else:
                    fmap = build_fourier(train.n, dim, kernel, seed=seed)
                params = SolverParams(lam=lam, iterations=20000, seed=seed)
                gamma, b = asset_train(fmap, train, params, region)
                errors.append(test_error(fmap, gamma, b))
            medians[approx][dim] = float(np.median(errors))

    improvement = medians["nystrom"][4] - medians["nystrom"][256]
    matched_ok = all(
        medians["fourier"][dim] >= medians["nystrom"][dim] - 1.0 for dim in dims
    )
    ok = improvement >= 5.0 and matched_ok
    report(
        "dimension-sweep",
        ok,
        f"landmark error drop {improvement:.1f}pt >= 5pt "
        f"(errors {medians['nystrom']}), cosine at matched dim never better "
        f"than landmarks by more than 1pt: {matched_ok} (errors {medians['fourier']})",
    )
    assert improvement >= 5.0
    assert matched_ok


def test_08_prediction_cost():
    ds = planted_dataset(60, 4, seed=107)
    kernel = GaussianKernel(SIGMA)
    sample_size = 23
    nmap = build_nystrom(ds, kernel, sample_size, 11, seed=0)
    from assetsvm import Model

    nmodel = Model(
        task="classification",
        approx="nystrom",
        gamma=np.linspace(-1, 1, nmap.dim),
        b=0.1,
        lam=LAM,
        sigma=SIGMA,
        input_dim=ds.n,
        payload=recover_alpha(nmap, np.linspace(-1, 1, nmap.dim)),
    )
    dim = 37
    fmap = build_fourier(ds.n, dim, kernel, seed=0)
    fmodel = Model(
        task="classification",
        approx="fourier",
        gamma=np.linspace(-1, 1, dim),
        b=0.1,
        lam=LAM,
        sigma=SIGMA,
        input_dim=ds.n,
        payload=fmap,
    )
    point = dense_vector(np.zeros(ds.n))

    reset_eval_counts()
    decide(nmodel, point)
    nystrom_counts = eval_counts()
    reset_eval_counts()
    decide(fmodel, point)
    fourier_counts = eval_counts()

    ok = (
        nystrom_counts["kernel"] == sample_size
        and nystrom_counts["cosine"] == 0
        and fourier_counts["cosine"] == dim
        and fourier_counts["kernel"] == 0
    )
    report(
        "prediction-cost",
        ok,
        f"landmark prediction: {nystrom_counts['kernel']} kernel evals == s={sample_size}; "
        f"cosine prediction: {fourier_counts['cosine']} cosines == d={dim}",
    )
    assert nystrom_counts["kernel"] == sample_size
    assert nystrom_counts["cosine"] == 0
    assert fourier_counts["cosine"] == dim
    assert fourier_counts["kernel"] == 0


def test_09_cli_determinism(tmp_path):
    train = write_libsvm(tmp_path / "train.svm", two_moons(300, seed=42, noise=0.15))
    evalf = write_libsvm(tmp_path / "eval.svm", two_moons(150, seed=43, noise=0.15))
    outputs = []
    for tag in ("a", "b"):
        model = str(tmp_path / f"model_{tag}.txt")
        metrics = str(tmp_path / f"metrics_{tag}.csv")
        code = cli_main(
            [
                "train",
                "--task", "class",
                "--approx", "nystrom",
                "--s", "32",
                "--sigma", "2.0",
                "--lambda", "0.001",
                "--epochs", "3",
                "--seed", "5",
                "--data", train,
                "--eval-data", evalf,
                "--metrics", metrics,
                "--model", model,
            ]
        )
        assert code == 0
        with open(model, "rb") as mh, open(metrics, "rb") as ch:
            outputs.append((mh.read(), ch.read()))
    ok = outputs[0] == outputs[1]
    model_bytes = len(outputs[0][0])
    report(
        "cli-determinism",
        ok,
        f"identical flags reproduced model ({model_bytes} bytes) and metrics byte-for-byte",
    )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_10_regression_path():
    # closed-form ball radius first
    labels = np.array([0.8, -1.2, 0.3])
    lam, eps = 2.0, 0.1
    region = feasible_region("regression", lam, labels, epsilon=eps)
    expected_radius = math.sqrt(2.0 * (1.2 - eps) / lam)
    radius_ok = region.gamma_radius == expected_radius

    train = sinusoid_dataset(200, seed=50, noise=0.2)
    test = sinusoid_dataset(200, seed=51, noise=0.2)
    kernel = GaussianKernel(25.0)
    lam, eps = 0.01, 0.1

    reference = solve_exact(train, kernel, lam, epsilon=eps, iterations=20000)
    ref_scores = np.array(
        [
            sum(a * kernel_eval(kernel, p, x) for a, p in zip(reference.alpha, train.examples))
            + reference.b
            for x in test.examples
        ]
    )
    ref_loss = float(np.mean(np.maximum(np.abs(test.labels - ref_scores) - eps, 0.0)))

    fmap = build_fourier(train.n, 512, kernel, seed=1)
    region = feasible_region("regression", lam, train.labels, epsilon=eps)
    params = SolverParams(
        lam=lam, iterations=200_000, avg_start=100_000, epsilon=eps, seed=1
    )
    gamma, b = asset_train(fmap, train, params, region)
    scores = np.array([float(fmap.map_point(x) @ gamma) + b for x in test.examples])
    loss = float(np.mean(np.maximum(np.abs(test.labels - scores) - eps, 0.0)))
    rel = abs(loss - ref_loss) / ref_loss

    ok = radius_ok and rel <= 0.2
    report(
        "regression-path",
        ok,
        f"radius formula exact: {radius_ok}; tube test loss {loss:.5f} vs reference "
        f"{ref_loss:.5f}, relative difference {rel:.3f} <= 0.2",
    )
    assert radius_ok
    assert rel <= 0.2
