import math

import numpy as np
import pytest

from assetsvm import (
    GaussianKernel,
    SolverParams,
    TrivialRegressionError,
    asset_train,
    build_nystrom,
    estimate_dg,
    feasible_region,
    feature_objective,
    solve_exact,
)
from assetsvm import solver
from assetsvm.rng import DG_STREAM, XI_STREAM, stream
from assetsvm.solver import loss_direction
from helpers import matrix_dataset, planted_dataset


class TestFeasibleRegion:
    def test_classification_radius(self):
        region = feasible_region("classification", 0.25, np.array([1.0, -1.0]))
        assert region.gamma_radius == 2.0

    def test_regression_radius_closed_form(self):
        region = feasible_region("regression", 2.0, np.array([1.0, -0.5]), epsilon=0.0)
        assert region.gamma_radius == pytest.approx(1.0, abs=1e-15)

    def test_tube_covering_labels_rejected(self):
        with pytest.raises(TrivialRegressionError):
            feasible_region("regression", 1.0, np.array([0.5, -0.5]), epsilon=0.5)

    def test_max_norm_combines_ball_and_interval(self):
        region = feasible_region("classification", 1.0, np.array([1.0]), intercept_bound=2.0)
        assert region.max_norm == pytest.approx(math.sqrt(1.0 + 4.0))
        no_bias = feasible_region("classification", 1.0, np.array([1.0]), include_bias=False)
        assert no_bias.max_norm == 1.0
        assert no_bias.intercept_bound == 0.0

    def test_default_intercept_bound(self):
        region = feasible_region("classification", 1.0, np.array([1.0, -1.0]))
        assert region.intercept_bound == 10.0
        wide = feasible_region("regression", 1.0, np.array([3.0, -2.0]))
        assert wide.intercept_bound == 30.0


class TestLossDirection:
    @pytest.mark.parametrize(
        "task, score, label, epsilon, expected",
        [
            pytest.param("classification", 1.5, 1.0, 0.0, 0.0, id="hinge-satisfied-margin"),
            pytest.param("classification", 0.0, 1.0, 0.0, -1.0, id="hinge-zero-iterate-positive"),
            pytest.param("classification", 0.0, -1.0, 0.0, 1.0, id="hinge-zero-iterate-negative"),
            # margin exactly one: the chosen subgradient at the kink is zero
            pytest.param("classification", 1.0, 1.0, 0.0, 0.0, id="hinge-kink"),
            pytest.param("regression", 0.0, 0.5, 1.0, 0.0, id="tube-inside"),
            pytest.param("regression", 0.0, 2.0, 0.1, -1.0, id="tube-label-above"),
            pytest.param("regression", 0.0, -2.0, 0.1, 1.0, id="tube-label-below"),
            pytest.param("regression", 0.0, 0.1, 0.1, 0.0, id="tube-boundary-inactive"),
        ],
    )
    def test_scalar_and_vectorized_forms(self, task, score, label, epsilon, expected):
        assert loss_direction(score, label, task, epsilon) == expected


def exact_map(data, sigma=1.0, seed=0):
    return build_nystrom(data, GaussianKernel(sigma), data.m, data.m, seed=seed)


class RowsOnly:
    """A feature map with only the two members the solver needs."""

    def __init__(self, rows):
        self.rows = rows
        self.dim = rows[0].size

    def training_row(self, data, index):
        return self.rows[index]


class TestEstimateDg:
    def test_unit_rows_with_bias_give_root_two(self):
        # exact-kernel feature rows have unit norm, and every hinge
        # direction at the zero iterate is active
        ds = planted_dataset(30, 4, seed=0)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.1, ds.labels)
        params = SolverParams(lam=0.1, iterations=10, dg_sample=500, seed=1)
        stats = estimate_dg(nmap, ds, params, region)
        assert stats.dg == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_all_directions_vanish_triggers_fallback(self):
        labels = np.array([0.1, -0.2, 0.05])
        ds = matrix_dataset(np.eye(3), labels, "regression")
        nmap = exact_map(ds)
        region = feasible_region("regression", 4.0, labels, epsilon=0.15, include_bias=False)
        params = SolverParams(lam=4.0, iterations=10, epsilon=0.3, dg_sample=100, seed=0)
        stats = estimate_dg(nmap, ds, params, region)
        assert stats.dg == pytest.approx(math.sqrt(4.0) * region.gamma_radius)

    def test_matches_direct_recomputation(self):
        ds = planted_dataset(25, 3, seed=2)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 12, 12, seed=3)
        region = feasible_region("classification", 0.5, ds.labels)
        params = SolverParams(lam=0.5, iterations=10, dg_sample=200, seed=7)
        stats = estimate_dg(nmap, ds, params, region)
        # replay the same stream and accumulate by hand
        draws = stream(7, DG_STREAM).random(200)
        total = 0.0
        for u in draws:
            i = int(u * ds.m)
            row = nmap.training_row(ds, i)
            total += float(row @ row) + 1.0
        assert stats.dg == pytest.approx(math.sqrt(total / 200), abs=1e-12)

    def test_probe_draws_in_chunks_with_unchanged_bits(self, monkeypatch):
        ds = planted_dataset(25, 3, seed=2)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 12, 12, seed=3)
        region = feasible_region("classification", 0.5, ds.labels)
        params = SolverParams(lam=0.5, iterations=10, dg_sample=200, seed=7)
        whole = estimate_dg(nmap, ds, params, region).dg
        sizes = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size):
                sizes.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(solver, "XI_CHUNK", 7)
        monkeypatch.setattr(solver, "stream", lambda seed, sid: Recording(stream(seed, sid)))
        assert estimate_dg(nmap, ds, params, region).dg == whole
        assert max(sizes) <= 7 and sum(sizes) == params.dg_sample


class TestAssetStep:
    """Single solver steps, observed through asset_train's checkpoints."""

    def test_zero_subgradient_interior_fixed_point(self):
        # every label lies inside the tube around the zero model, so each
        # step's loss direction is zero and the iterate stays exactly at 0
        labels = np.array([0.1, -0.2, 0.05])
        ds = matrix_dataset(np.eye(3), labels, "regression")
        nmap = exact_map(ds)
        region = feasible_region("regression", 1.0, labels)
        params = SolverParams(lam=1.0, iterations=50, avg_start=25, epsilon=0.3, seed=0)
        seen = []
        gamma, b = asset_train(
            nmap, ds, params, region,
            checkpoint_every=1, on_checkpoint=lambda j, g, c: seen.append((g, c)),
        )
        assert len(seen) == params.iterations
        for g, c in seen + [(gamma, b)]:
            assert not np.any(g)
            assert c == 0.0

    def test_first_averaged_iterate_equals_iterate(self):
        ds = planted_dataset(10, 3, seed=3)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.2, ds.labels)
        averaged = SolverParams(lam=0.2, iterations=1, avg_start=1, seed=4)
        avg_gamma, avg_b = asset_train(nmap, ds, averaged, region)
        # the same stream with averaging deferred reports the raw first iterate
        deferred = SolverParams(lam=0.2, iterations=2, avg_start=2, seed=4)
        seen = {}
        asset_train(
            nmap, ds, deferred, region,
            checkpoint_every=1, on_checkpoint=lambda j, g, c: seen.setdefault(j, (g, c)),
        )
        gamma_1, b_1 = seen[1]
        np.testing.assert_array_equal(avg_gamma, gamma_1)
        assert avg_b == b_1
        assert b_1 != 0.0

    def test_first_step_length_is_dx_over_dg(self):
        # from the zero iterate every hinge direction is -y, so the first
        # intercept is y * eta_1 with eta_1 = max_norm / dg
        ds = planted_dataset(10, 3, seed=3)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.2, ds.labels)
        params = SolverParams(lam=0.2, iterations=2, avg_start=2, seed=4)
        seen = {}
        asset_train(
            nmap, ds, params, region,
            checkpoint_every=1, on_checkpoint=lambda j, g, c: seen.setdefault(j, c),
        )
        eta = region.max_norm / estimate_dg(nmap, ds, params, region).dg
        assert eta < region.intercept_bound
        xi = int(stream(4, XI_STREAM).random() * ds.m)
        assert seen[1] == ds.labels[xi] * eta

    def test_iterates_stay_feasible(self):
        ds = planted_dataset(20, 4, seed=5)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.05, ds.labels, intercept_bound=0.5)
        # averaging from the last step shows every iterate; from step 200 the
        # checkpoints show the averages, convex combinations of feasible points
        for avg_start in (400, 200):
            params = SolverParams(lam=0.05, iterations=400, avg_start=avg_start, seed=6)
            seen = []
            asset_train(
                nmap, ds, params, region,
                checkpoint_every=1, on_checkpoint=lambda j, g, c: seen.append((g, c)),
            )
            assert len(seen) == params.iterations
            for gamma, b in seen:
                assert float(np.linalg.norm(gamma)) <= region.gamma_radius * (1 + 1e-12)
                assert abs(b) <= region.intercept_bound
            assert any(abs(b) == region.intercept_bound for _, b in seen)


class TestAssetTrain:
    @pytest.mark.parametrize("variant", ["averaged", "strongly_convex"])
    def test_draw_chunk_size_leaves_result_unchanged(self, variant, monkeypatch):
        ds = planted_dataset(15, 3, seed=7)
        nmap = exact_map(ds)
        strongly = variant == "strongly_convex"
        region = feasible_region("classification", 0.1, ds.labels, include_bias=not strongly)
        params = SolverParams(lam=0.1, iterations=1500, avg_start=700, variant=variant, seed=8)

        def run():
            seen = []
            result = asset_train(
                nmap, ds, params, region,
                checkpoint_every=11, on_checkpoint=lambda j, g, c: seen.append((j, g, c)),
            )
            return result, seen

        (gamma, b), seen = run()
        monkeypatch.setattr(solver, "XI_CHUNK", 7)
        (gamma_7, b_7), seen_7 = run()
        np.testing.assert_array_equal(gamma_7, gamma)
        assert b_7 == b
        assert [j for j, _, _ in seen_7] == [j for j, _, _ in seen]
        for (_, g, c), (_, g_7, c_7) in zip(seen, seen_7):
            np.testing.assert_array_equal(g_7, g)
            assert c_7 == c

    def test_strong_variant_matches_repeated_steps(self):
        ds = planted_dataset(15, 3, seed=9)
        nmap = exact_map(ds)
        lam = 0.1
        region = feasible_region("classification", lam, ds.labels, include_bias=False)
        params = SolverParams(
            lam=lam, iterations=900, avg_start=1, variant="strongly_convex", seed=10
        )
        gamma_fast, b_fast = asset_train(nmap, ds, params, region)
        assert b_fast == 0.0
        # replay the strongly convex steps by hand: eta_j = 1/(lam*j), no
        # intercept, projection onto the ball, the last iterate reported
        radius = region.gamma_radius
        gamma = np.zeros(nmap.dim)
        for j, u in enumerate(stream(10, XI_STREAM).random(params.iterations), start=1):
            eta = 1.0 / (lam * j)
            i = int(u * ds.m)
            row = nmap.training_row(ds, i)
            y = float(ds.labels[i])
            d = -y if y * float(np.dot(row, gamma)) < 1.0 else 0.0
            gamma = gamma * (1.0 - eta * lam) - (eta * d) * row
            nrm_sq = float(np.dot(gamma, gamma))
            if nrm_sq > radius * radius:
                gamma *= radius / math.sqrt(nrm_sq)
        # the solver keeps gamma as a scale times a vector, which rounds
        # differently from these explicit vector steps
        np.testing.assert_allclose(gamma_fast, gamma, rtol=1e-12, atol=1e-12 * radius)

    def test_averaged_replay_matches_explicit_steps(self):
        ds = planted_dataset(20, 3, seed=18)
        nmap = exact_map(ds)
        lam = 0.1
        region = feasible_region("classification", lam, ds.labels, intercept_bound=1.0)
        params = SolverParams(lam=lam, iterations=20_000, avg_start=10_000, seed=21)
        gamma_fast, b_fast = asset_train(nmap, ds, params, region)
        # replay with explicit vectors: step, project onto the ball, clamp the
        # intercept, and fold each tail iterate into a steplength-weighted mean
        dx = region.max_norm
        dg = estimate_dg(nmap, ds, params, region).dg
        radius = region.gamma_radius
        bound = region.intercept_bound
        gamma, b = np.zeros(nmap.dim), 0.0
        avg_gamma, avg_b, eta_sum = np.zeros(nmap.dim), 0.0, 0.0
        for j, u in enumerate(stream(21, XI_STREAM).random(params.iterations), start=1):
            eta = dx / (dg * math.sqrt(j))
            i = int(u * ds.m)
            row = nmap.training_row(ds, i)
            y = float(ds.labels[i])
            d = -y if y * (float(np.dot(row, gamma)) + b) < 1.0 else 0.0
            gamma = gamma * (1.0 - eta * lam) - (eta * d) * row
            nrm = float(np.linalg.norm(gamma))
            if nrm > radius:
                gamma *= radius / nrm
            b = min(max(b - eta * d, -bound), bound)
            if j >= params.avg_start:
                eta_sum += eta
                avg_gamma += (eta / eta_sum) * (gamma - avg_gamma)
                avg_b += (eta / eta_sum) * (b - avg_b)
        assert np.linalg.norm(gamma_fast - avg_gamma) <= 1e-9 * np.linalg.norm(avg_gamma)
        assert b_fast == pytest.approx(avg_b, rel=1e-9)

    def test_folding_every_step_matches_default(self, monkeypatch):
        ds = planted_dataset(20, 4, seed=5)
        nmap = exact_map(ds)
        # the intercept interval makes early steps long against the small ball
        region = feasible_region("classification", 4.0, ds.labels)
        params = SolverParams(lam=4.0, iterations=2000, avg_start=100, seed=6)
        # the same stream without averaging shows that the ball projection
        # fires both before and inside the averaging window
        norms = []
        asset_train(
            nmap, ds, SolverParams(lam=4.0, iterations=2000, avg_start=2000, seed=6), region,
            checkpoint_every=1, on_checkpoint=lambda j, g, c: norms.append(np.linalg.norm(g)),
        )
        hits = [j for j, nrm in enumerate(norms, 1) if nrm >= region.gamma_radius * (1 - 1e-12)]
        assert min(hits) < params.avg_start < max(hits)
        gamma, b = asset_train(nmap, ds, params, region)
        # now every step multiplies its scale into the vector, which first
        # moves the average's share of that vector into the other part
        monkeypatch.setattr(solver, "RENORM_BELOW", math.inf)
        gamma_folded, b_folded = asset_train(nmap, ds, params, region)
        assert np.linalg.norm(gamma_folded - gamma) <= 1e-12 * np.linalg.norm(gamma)
        assert b_folded == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("rows_only", [False, True])
    @pytest.mark.parametrize("renorm_below", [solver.RENORM_BELOW, math.inf])
    @pytest.mark.parametrize("variant", ["averaged", "strongly_convex"])
    def test_checkpoints_leave_the_model_unchanged(
        self, variant, renorm_below, rows_only, monkeypatch
    ):
        ds = planted_dataset(20, 4, seed=5)
        nmap = exact_map(ds)
        fmap = RowsOnly([nmap.training_row(ds, i) for i in range(ds.m)]) if rows_only else nmap
        strongly = variant == "strongly_convex"
        # the small ball of test_folding_every_step_matches_default, whose
        # projection fires inside the averaging window
        region = feasible_region("classification", 4.0, ds.labels, include_bias=not strongly)
        params = SolverParams(lam=4.0, iterations=2000, avg_start=100, variant=variant, seed=6)
        monkeypatch.setattr(solver, "RENORM_BELOW", renorm_below)
        folds = []
        fold = solver._fold_scale
        monkeypatch.setattr(
            solver, "_fold_scale", lambda a, v, p, q, u: folds.append(p) or fold(a, v, p, q, u)
        )
        gamma, b = asset_train(fmap, ds, params, region)
        if not strongly:
            # the window folds the average's share of v into u at least once
            assert any(folds)
        seen = []
        gamma_ck, b_ck = asset_train(
            fmap, ds, params, region,
            checkpoint_every=1, on_checkpoint=lambda j, g, c: seen.append(j),
        )
        assert seen == list(range(1, params.iterations + 1))
        np.testing.assert_array_equal(gamma_ck, gamma)
        assert b_ck == b

    @pytest.mark.parametrize("renorm_below", [solver.RENORM_BELOW, math.inf])
    def test_window_checkpoints_match_shorter_runs(self, renorm_below, monkeypatch):
        # a checkpoint at step j inside the window reports the average that a
        # run of j steps returns; the last one is the returned model itself
        ds = planted_dataset(20, 4, seed=5)
        nmap = exact_map(ds)
        region = feasible_region("classification", 4.0, ds.labels)
        monkeypatch.setattr(solver, "RENORM_BELOW", renorm_below)
        params = SolverParams(lam=4.0, iterations=700, avg_start=100, seed=6)
        seen = []
        gamma, b = asset_train(
            nmap, ds, params, region,
            checkpoint_every=37, on_checkpoint=lambda j, g, c: seen.append((j, g, c)),
        )
        j, g, c = seen.pop()
        assert j == params.iterations
        np.testing.assert_array_equal(g, gamma)
        assert c == b
        in_window = [(j, g, c) for j, g, c in seen if j >= params.avg_start]
        assert len(in_window) > 10
        for j, g, c in in_window:
            shorter = SolverParams(lam=4.0, iterations=j, avg_start=100, seed=6)
            gamma_j, b_j = asset_train(nmap, ds, shorter, region)
            assert np.linalg.norm(g - gamma_j) <= 1e-12 * np.linalg.norm(gamma_j)
            assert c == b_j

    def test_deterministic_given_seed(self):
        ds = planted_dataset(20, 3, seed=11)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.2, ds.labels)
        params = SolverParams(lam=0.2, iterations=3000, avg_start=1500, seed=12)
        first = asset_train(nmap, ds, params, region)
        second = asset_train(nmap, ds, params, region)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_strong_variant_rejects_bias_region(self):
        ds = planted_dataset(10, 3, seed=13)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.1, ds.labels)
        params = SolverParams(lam=0.1, iterations=10, variant="strongly_convex")
        with pytest.raises(ValueError, match="bias"):
            asset_train(nmap, ds, params, region)

    def test_two_point_separable_reaches_zero_error(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = matrix_dataset(X, np.array([1.0, -1.0]), "classification")
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.1, ds.labels)
        params = SolverParams(lam=0.1, iterations=100_000, seed=0)
        gamma, b = asset_train(nmap, ds, params, region)
        for i, ex in enumerate(ds.examples):
            score = float(nmap.training_row(ds, i) @ gamma) + b
            assert math.copysign(1.0, score) == ds.labels[i]

    def test_huge_lambda_forces_tiny_weights(self):
        labels = np.array([1.0] * 15 + [-1.0] * 5)
        rng = np.random.default_rng(14)
        ds = matrix_dataset(rng.normal(size=(20, 3)), labels, "classification")
        nmap = exact_map(ds)
        lam = 1e6
        region = feasible_region("classification", lam, ds.labels)
        params = SolverParams(lam=lam, iterations=5000, seed=1)
        gamma, b = asset_train(nmap, ds, params, region)
        assert float(np.linalg.norm(gamma)) <= 1e-3
        # scores barely move away from the intercept
        max_row = max(
            float(np.linalg.norm(nmap.training_row(ds, i))) for i in range(ds.m)
        )
        for i in range(ds.m):
            score = float(nmap.training_row(ds, i) @ gamma) + b
            assert abs(score - b) <= 1e-3 * max_row

    def test_huge_lambda_zero_subgradient_stays_at_zero(self):
        # every shrink factor 1 - eta * lambda is far below -1, and no loss
        # is active, so the scale alone would grow without bound
        labels = np.array([0.1, -0.2, 0.05])
        ds = matrix_dataset(np.eye(3), labels, "regression")
        nmap = exact_map(ds)
        region = feasible_region("regression", 1e6, labels)
        params = SolverParams(lam=1e6, iterations=2000, epsilon=0.3, seed=0)
        gamma, b = asset_train(nmap, ds, params, region)
        assert not np.any(gamma)
        assert b == 0.0

    def test_checkpoints_visit_increasing_iterations(self):
        ds = planted_dataset(12, 3, seed=15)
        nmap = exact_map(ds)
        region = feasible_region("classification", 0.1, ds.labels)
        params = SolverParams(lam=0.1, iterations=100, avg_start=50, seed=2)
        seen = []
        asset_train(
            nmap,
            ds,
            params,
            region,
            checkpoint_every=30,
            on_checkpoint=lambda j, g, b: seen.append(j),
        )
        assert seen == [30, 60, 90, 100]


class TestSubgradientValidity:
    @staticmethod
    def full_subgradient(rows, labels, task, lam, epsilon, gamma, b):
        scores = rows @ gamma + b
        d = np.array(
            [loss_direction(float(s), float(y), task, epsilon) for s, y in zip(scores, labels)]
        )
        return lam * gamma + rows.T @ d / len(labels), float(np.mean(d))
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_lower_bound_inequality(self, task):
        rng = np.random.default_rng(16)
        if task == "classification":
            ds = planted_dataset(20, 3, seed=17)
            epsilon = 0.0
        else:
            X = rng.normal(size=(20, 3))
            ds = matrix_dataset(X, rng.normal(size=20), "regression")
            epsilon = 0.1
        nmap = exact_map(ds)
        rows = np.stack([nmap.training_row(ds, i) for i in range(ds.m)])
        lam = 0.3
        for _ in range(1000):
            gamma = rng.normal(size=nmap.dim) * 0.7
            b = rng.normal()
            gamma2 = rng.normal(size=nmap.dim) * 0.7
            b2 = rng.normal()
            f1 = feature_objective(gamma, b, nmap, ds, lam, epsilon)
            f2 = feature_objective(gamma2, b2, nmap, ds, lam, epsilon)
            g_gamma, g_b = self.full_subgradient(rows, ds.labels, ds.task, lam, epsilon, gamma, b)
            lower = f1 + float(g_gamma @ (gamma2 - gamma)) + g_b * (b2 - b)
            assert f2 >= lower - 1e-9


class TestSolverQuality:
    def test_small_instance_near_oracle(self):
        ds = planted_dataset(20, 3, seed=18)
        nmap = exact_map(ds)
        lam = 0.1
        oracle = solve_exact(ds, GaussianKernel(1.0), lam, intercept_bound=1.0)
        region = feasible_region("classification", lam, ds.labels, intercept_bound=1.0)
        objectives = []
        for seed in range(11):
            params = SolverParams(lam=lam, iterations=200_000, avg_start=100_000, seed=seed)
            gamma, b = asset_train(nmap, ds, params, region)
            objectives.append(feature_objective(gamma, b, nmap, ds, lam))
        median = float(np.median(objectives))
        assert median <= 1.02 * oracle.objective
