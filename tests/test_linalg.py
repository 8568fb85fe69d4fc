import numpy as np
import pytest

from assetsvm import ConvergenceError, clamp_interval, project_ball, sym_eig


def random_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        assert eig.values.tolist() == [1.0, 1.0, 1.0]
        np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(3), atol=1e-12)

    def test_two_by_two_closed_form(self):
        eig = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=1e-12)

    def test_reconstruction_random_5x5(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_symmetric(5, rng)
            eig = sym_eig(a)
            rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        a = random_symmetric(12, rng)
        eig = sym_eig(a)
        gram = eig.vectors.T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10

    def test_values_nonincreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            eig = sym_eig(random_symmetric(8, rng))
            assert np.all(np.diff(eig.values) <= 0)

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_symmetric(9, rng)
            eig = sym_eig(a)
            assert np.sum(eig.values) == pytest.approx(np.trace(a), rel=1e-8, abs=1e-10)

    def test_tied_values_keep_original_order(self):
        eig = sym_eig(np.diag([2.0, 2.0, 1.0]))
        # already diagonal: no rotations happen, the stable sort keeps
        # the first diagonal slot first
        np.testing.assert_array_equal(eig.vectors[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(eig.vectors[:, 1], [0.0, 1.0, 0.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            sym_eig(random_symmetric(6, np.random.default_rng(4)))

    def test_largest_entry_of_each_vector_is_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            eig = sym_eig(random_symmetric(7, rng))
            columns = np.arange(7)
            lead = eig.vectors[np.argmax(np.abs(eig.vectors), axis=0), columns]
            assert np.all(lead > 0.0)


class TestProjectBall:
    def test_interior_point_unchanged(self):
        np.testing.assert_array_equal(project_ball(np.array([1.0, 0.0]), 2.0), [1.0, 0.0])

    def test_exterior_point_scaled(self):
        np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_zero_vector(self):
        np.testing.assert_array_equal(project_ball(np.zeros(3), 0.5), np.zeros(3))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            project_ball(np.ones(2), 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.normal(size=4) * rng.uniform(0.1, 5.0)
            once = project_ball(v, 1.3)
            twice = project_ball(once, 1.3)
            np.testing.assert_allclose(twice, once, rtol=0, atol=1e-15)

    def test_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.normal(size=5) * rng.uniform(0.1, 4.0)
            v = rng.normal(size=5) * rng.uniform(0.1, 4.0)
            pu = project_ball(u, 1.0)
            pv = project_ball(v, 1.0)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


class TestClampInterval:
    def test_inside(self):
        assert clamp_interval(0.5, 1.0) == 0.5

    def test_below(self):
        assert clamp_interval(-7.0, 2.0) == -2.0

    def test_degenerate_interval(self):
        assert clamp_interval(123.0, 0.0) == 0.0
        assert clamp_interval(-5.0, 0.0) == 0.0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            clamp_interval(1.0, -1.0)

    def test_product_projection_decomposes(self):
        # projecting the stacked (vector, scalar) pair onto ball x interval
        # equals projecting each factor independently
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = rng.normal(size=3) * rng.uniform(0.1, 4.0)
            b = rng.normal() * 3.0
            pg = project_ball(g, 1.5)
            pb = clamp_interval(b, 0.75)
            assert np.linalg.norm(pg) <= 1.5 + 1e-12
            assert abs(pb) <= 0.75
            # independence: perturbing b does not change the g projection
            np.testing.assert_array_equal(project_ball(g, 1.5), pg)
