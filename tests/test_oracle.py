import numpy as np
import pytest

from assetsvm import (
    ConvergenceError,
    GaussianKernel,
    build_nystrom,
    feature_objective,
    gram_matrix,
    kernel_objective,
    recover_alpha,
    solve_exact,
)
from helpers import matrix_dataset, planted_dataset, sinusoid_dataset


def exact_map(ds, sigma=1.0):
    return build_nystrom(ds, GaussianKernel(sigma), ds.m, ds.m, seed=0)


def scattered_alpha(nmap, gamma, m):
    rec = recover_alpha(nmap, gamma)
    alpha = np.zeros(m)
    alpha[nmap.sample_indices] = rec.alpha
    return alpha


class TestFeatureObjective:
    def test_zero_model_hinge_loss_is_one(self):
        ds = planted_dataset(12, 3, seed=0)
        nmap = exact_map(ds)
        assert feature_objective(np.zeros(nmap.dim), 0.0, nmap, ds, 0.5) == 1.0

    def test_wide_tube_gives_zero(self):
        rng = np.random.default_rng(1)
        ds = matrix_dataset(rng.normal(size=(10, 2)), rng.uniform(-0.5, 0.5, 10), "regression")
        nmap = exact_map(ds)
        value = feature_objective(np.zeros(nmap.dim), 0.0, nmap, ds, 0.5, epsilon=0.6)
        assert value == 0.0

    def test_feasible_points_never_beat_reference(self):
        ds = planted_dataset(15, 3, seed=2)
        nmap = exact_map(ds)
        lam = 0.2
        sol = solve_exact(ds, GaussianKernel(1.0), lam, intercept_bound=2.0)
        rng = np.random.default_rng(3)
        radius = 1.0 / np.sqrt(lam)
        for _ in range(200):
            gamma = rng.normal(size=nmap.dim)
            gamma *= rng.uniform(0, radius) / np.linalg.norm(gamma)
            b = rng.uniform(-2.0, 2.0)
            assert feature_objective(gamma, b, nmap, ds, lam) >= sol.objective - 1e-9


class TestKernelObjective:
    def test_zero_model_hinge_loss_is_one(self):
        ds = planted_dataset(12, 3, seed=4)
        assert kernel_objective(np.zeros(ds.m), 0.0, ds, GaussianKernel(1.0), 0.5) == 1.0

    def test_value_identity_with_feature_objective(self):
        # with full sampling the two objective views agree on corresponding
        # points: alpha'*K*alpha == gamma'*gamma and the scores match
        ds = planted_dataset(30, 5, seed=5)
        nmap = exact_map(ds)
        rng = np.random.default_rng(6)
        lam = 0.1
        for _ in range(20):
            gamma = rng.normal(size=nmap.dim) * 0.5
            b = rng.normal()
            alpha = scattered_alpha(nmap, gamma, ds.m)
            via_kernel = kernel_objective(alpha, b, ds, GaussianKernel(1.0), lam)
            via_features = feature_objective(gamma, b, nmap, ds, lam)
            assert via_kernel == pytest.approx(via_features, abs=1e-8)

    def test_large_instance_guarded(self):
        ds = planted_dataset(201, 2, seed=7)
        with pytest.raises(ValueError, match="m <= 200"):
            kernel_objective(np.zeros(ds.m), 0.0, ds, GaussianKernel(1.0), 0.1)

    def test_convex_along_segments(self):
        ds = planted_dataset(15, 3, seed=8)
        nmap = exact_map(ds)
        rng = np.random.default_rng(9)
        lam = 0.3
        for _ in range(100):
            g1, g2 = rng.normal(size=(2, nmap.dim))
            b1, b2 = rng.normal(size=2)
            mid_f = feature_objective((g1 + g2) / 2, (b1 + b2) / 2, nmap, ds, lam)
            avg_f = (
                feature_objective(g1, b1, nmap, ds, lam)
                + feature_objective(g2, b2, nmap, ds, lam)
            ) / 2
            assert mid_f <= avg_f + 1e-9
            a1, a2 = rng.normal(size=(2, ds.m)) * 0.2
            mid_k = kernel_objective((a1 + a2) / 2, (b1 + b2) / 2, ds, GaussianKernel(1.0), lam)
            avg_k = (
                kernel_objective(a1, b1, ds, GaussianKernel(1.0), lam)
                + kernel_objective(a2, b2, ds, GaussianKernel(1.0), lam)
            ) / 2
            assert mid_k <= avg_k + 1e-9


class TestSolveExact:
    def test_symmetric_pair_has_zero_intercept(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = matrix_dataset(X, np.array([1.0, -1.0]), "classification")
        sol = solve_exact(ds, GaussianKernel(1.0), 0.1, iterations=5000)
        assert abs(sol.b) <= 1e-12

    def test_single_point_matches_grid_scan(self):
        ds = matrix_dataset(np.array([[0.7]]), np.array([1.0]), "classification")
        kernel = GaussianKernel(1.0)
        lam = 0.5
        sol = solve_exact(ds, kernel, lam, iterations=20000, include_bias=False)
        # the kernel matrix is the scalar 1, so the objective in the single
        # coefficient is (lam/2) a^2 + hinge(a)
        grid = np.linspace(-3.0, 3.0, 600001)
        values = 0.5 * lam * grid**2 + np.maximum(1.0 - grid, 0.0)
        assert sol.objective == pytest.approx(float(values.min()), abs=1e-6)

    def test_beats_random_feasible_probes(self):
        ds = planted_dataset(25, 4, seed=10)
        kernel = GaussianKernel(1.0)
        lam = 0.2
        sol = solve_exact(ds, kernel, lam, intercept_bound=2.0)
        gram = gram_matrix(kernel, ds)
        rng = np.random.default_rng(11)
        radius_sq = 1.0 / lam
        best = np.inf
        for _ in range(1000):
            alpha = rng.normal(size=ds.m)
            w_sq = float(alpha @ gram @ alpha)
            if w_sq > 0:
                alpha *= np.sqrt(rng.uniform(0, radius_sq) / w_sq)
            b = rng.uniform(-2.0, 2.0)
            best = min(best, kernel_objective(alpha, b, ds, kernel, lam))
        assert sol.objective <= best + 1e-9

    def test_regression_solution_fits_inside_radius(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(30, 1))
        y = np.sin(2 * np.pi * X[:, 0])
        ds = matrix_dataset(X, y, "regression")
        kernel = GaussianKernel(20.0)
        lam = 0.05
        sol = solve_exact(ds, kernel, lam, epsilon=0.1)
        gram = gram_matrix(kernel, ds)
        w_norm = float(np.sqrt(sol.alpha @ gram @ sol.alpha))
        limit = np.sqrt(2 * (np.max(np.abs(y)) - 0.1) / lam)
        assert w_norm <= limit + 1e-9

    def test_tiny_cap_raises_on_uncertified_gap(self):
        ds = planted_dataset(40, 4, seed=13)
        with pytest.raises(ConvergenceError, match="duality gap"):
            solve_exact(ds, GaussianKernel(1.0), 0.01, iterations=10)

    def test_gap_certified_on_acceptance_instances(self):
        # the oracle-equivalence and regression-path instances; a negative
        # gap would mean the dual value is not a lower bound
        cases = [(planted_dataset(50, 5, seed=s), 1.0, 0.1, 0.0, 1.0) for s in range(100, 105)]
        cases.append((sinusoid_dataset(200, seed=50, noise=0.2), 25.0, 0.01, 0.1, None))
        for ds, sigma, lam, epsilon, bound in cases:
            sol = solve_exact(
                ds, GaussianKernel(sigma), lam, epsilon=epsilon, iterations=20000,
                intercept_bound=bound,
            )
            assert -1e-12 <= sol.gap <= 1e-6

    def test_clamped_intercept_classification(self):
        # 85% positive labels pull the free intercept to about 0.9
        rng = np.random.default_rng(21)
        y = np.ones(40)
        y[:6] = -1.0
        ds = matrix_dataset(rng.normal(size=(40, 3)), y, "classification")
        self.assert_clamped(ds, GaussianKernel(1.0), 0.1, 0.0, (0.1, 0.3, 0.5))

    def test_clamped_intercept_regression(self):
        # labels shifted by 3 pull the free intercept to about 3
        rng = np.random.default_rng(22)
        X = rng.uniform(0, 1, size=(30, 1))
        ds = matrix_dataset(X, np.sin(2 * np.pi * X[:, 0]) + 3.0, "regression")
        self.assert_clamped(ds, GaussianKernel(20.0), 0.05, 0.1, (0.5, 1.0, 2.0))

    @staticmethod
    def assert_clamped(ds, kernel, lam, epsilon, bounds):
        free = solve_exact(ds, kernel, lam, epsilon=epsilon)
        assert abs(free.b) > max(bounds)
        previous = np.inf
        for bound in bounds:
            sol = solve_exact(ds, kernel, lam, epsilon=epsilon, intercept_bound=bound)
            assert abs(sol.b) == bound
            assert sol.objective <= previous
            previous = sol.objective
        assert free.objective <= previous

    def test_zero_intercept_bound_matches_no_bias(self):
        ds = planted_dataset(30, 3, seed=23)
        zero = solve_exact(ds, GaussianKernel(1.0), 0.1, intercept_bound=0.0)
        none = solve_exact(ds, GaussianKernel(1.0), 0.1, include_bias=False)
        assert zero.b == none.b == 0.0
        assert zero.objective == pytest.approx(none.objective, rel=1e-12)

    def test_one_class_gives_zero_model(self):
        rng = np.random.default_rng(24)
        ds = matrix_dataset(rng.normal(size=(10, 2)), np.ones(10), "classification")
        sol = solve_exact(ds, GaussianKernel(1.0), 0.1)
        assert np.all(sol.alpha == 0.0)
        assert sol.objective == 0.0

    def test_deterministic(self):
        ds = planted_dataset(20, 3, seed=14)
        a = solve_exact(ds, GaussianKernel(1.0), 0.1, iterations=2000)
        b = solve_exact(ds, GaussianKernel(1.0), 0.1, iterations=2000)
        assert a.objective == b.objective
        assert a.b == b.b
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_large_instance_guarded(self):
        ds = planted_dataset(201, 2, seed=15)
        with pytest.raises(ValueError, match="m <= 200"):
            solve_exact(ds, GaussianKernel(1.0), 0.1)
