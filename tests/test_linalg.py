import numpy as np
import pytest

from assetsvm import ConvergenceError, sym_eig


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
