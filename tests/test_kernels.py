import math

import numpy as np
import pytest

from assetsvm import (
    Dataset,
    DegenerateKernelError,
    FourierMap,
    GaussianKernel,
    Landmarks,
    SparseRows,
    SparseVector,
    build_fourier,
    build_nystrom,
    eval_counts,
    feature_objective,
    gram_matrix,
    kernels,
    reset_eval_counts,
    sym_eig,
)
from assetsvm.rng import FOURIER_STREAM, stream
from helpers import (
    dense_vector,
    gathered_features,
    gathered_kernel_row,
    kernel_eval,
    matrix_dataset,
    planted_dataset,
)


class TestKernelEval:
    def test_same_point_gives_one(self):
        k = GaussianKernel(2.5)
        v = dense_vector([1.0, -2.0, 3.0])
        assert kernel_eval(k, v, v) == 1.0

    def test_unit_distance(self):
        k = GaussianKernel(1.0)
        s = dense_vector([0.0, 0.0])
        t = dense_vector([1.0, 0.0])
        assert kernel_eval(k, s, t) == pytest.approx(0.3678794412, abs=1e-10)

    def test_closed_form(self):
        k = GaussianKernel(0.5)
        s = dense_vector([1.0, 2.0])
        t = dense_vector([3.0, 4.0])
        assert kernel_eval(k, s, t) == pytest.approx(0.0183156389, abs=1e-10)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        k = GaussianKernel(0.7)
        for _ in range(50):
            s = dense_vector(rng.normal(size=4))
            t = dense_vector(rng.normal(size=4))
            assert kernel_eval(k, s, t) == kernel_eval(k, t, s)

    def test_two_by_two_gram_psd(self):
        rng = np.random.default_rng(1)
        k = GaussianKernel(1.3)
        for _ in range(100):
            s = dense_vector(rng.normal(size=3))
            t = dense_vector(rng.normal(size=3))
            kst = kernel_eval(k, s, t)
            det = 1.0 * 1.0 - kst * kst
            assert det >= -1e-12

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)


class TestBuildFourier:
    def test_frequency_variance_matches_kernel_width(self):
        # per-coordinate variance of the spectral density is 2*sigma
        fmap = build_fourier(2, 100_000, GaussianKernel(0.5), seed=0)
        sample_var = float(np.var(fmap.frequencies))
        assert abs(sample_var - 1.0) <= 0.03

    def test_same_seed_same_map(self):
        a = build_fourier(3, 64, GaussianKernel(1.0), seed=9)
        b = build_fourier(3, 64, GaussianKernel(1.0), seed=9)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_different_seed_different_map(self):
        a = build_fourier(3, 64, GaussianKernel(1.0), seed=9)
        b = build_fourier(3, 64, GaussianKernel(1.0), seed=10)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_offsets_in_range(self):
        fmap = build_fourier(4, 4096, GaussianKernel(2.0), seed=3)
        assert np.all(fmap.offsets >= 0.0)
        assert np.all(fmap.offsets < 2.0 * math.pi)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            build_fourier(0, 4, GaussianKernel(1.0))
        with pytest.raises(ValueError):
            build_fourier(4, 0, GaussianKernel(1.0))


class TestFourierMap:
    def test_constant_feature_when_frequency_zero(self):
        fmap = FourierMap(
            kernel=GaussianKernel(1.0),
            frequencies=np.zeros((1, 2)),
            offsets=np.zeros(1),
        )
        rng = np.random.default_rng(4)
        for _ in range(10):
            row = fmap.map_point(dense_vector(rng.normal(size=2)))
            assert row.tolist() == [math.sqrt(2.0)]

    def test_row_norm_bounded(self):
        fmap = build_fourier(3, 256, GaussianKernel(1.0), seed=5)
        rng = np.random.default_rng(6)
        for _ in range(50):
            row = fmap.map_point(dense_vector(rng.normal(size=3)))
            assert float(row @ row) <= 2.0 + 1e-12
            assert row.size == fmap.dim
            assert np.all(np.isfinite(row))

    def test_inner_products_near_kernel(self):
        k = GaussianKernel(0.5)
        fmap = build_fourier(5, 4096, k, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = dense_vector(rng.normal(size=5))
            t = dense_vector(rng.normal(size=5))
            approx = float(fmap.map_point(s) @ fmap.map_point(t))
            assert abs(approx - kernel_eval(k, s, t)) <= 0.08

    def test_error_shrinks_with_dimension(self):
        k = GaussianKernel(0.5)
        rng = np.random.default_rng(9)
        pairs = [
            (dense_vector(rng.normal(size=4)), dense_vector(rng.normal(size=4)))
            for _ in range(40)
        ]
        exact = [kernel_eval(k, s, t) for s, t in pairs]
        medians = []
        for power in range(6, 13):
            fmap = build_fourier(4, 2**power, k, seed=power)
            errs = [
                abs(float(fmap.map_point(s) @ fmap.map_point(t)) - e)
                for (s, t), e in zip(pairs, exact)
            ]
            medians.append(float(np.median(errs)))
        # decreasing trend, allowing sampling noise at each rung
        for prev, cur in zip(medians, medians[1:]):
            assert cur <= prev * 1.3 + 1e-3
        assert medians[-1] < 0.35 * medians[0]


class TestBuildNystrom:
    def test_duplicate_points_collapse_to_rank_one(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        ds = matrix_dataset(X, np.array([1.0, -1.0] * 3), "classification")
        nmap = build_nystrom(ds, GaussianKernel(1.0), 4, 4, seed=0)
        assert nmap.dim == 1

    def test_full_sampling_reconstructs_gram(self):
        ds = planted_dataset(30, 5, seed=2)
        k = GaussianKernel(1.0)
        nmap = build_nystrom(ds, k, ds.m, ds.m, seed=0)
        rows = np.stack([nmap.map_point(ex) for ex in ds.examples])
        gram = gram_matrix(k, ds)
        err = np.linalg.norm(rows @ rows.T - gram) / np.linalg.norm(gram)
        assert err <= 1e-8

    def test_threshold_drops_smallest_eigenvalue(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ds = matrix_dataset(X, np.array([1.0, -1.0, 1.0]), "classification")
        k = GaussianKernel(1.0)
        gram = gram_matrix(k, ds)
        eig = sym_eig(gram)
        cutoff = (eig.values[2] + eig.values[1]) / 2.0
        nmap = build_nystrom(ds, k, 3, 3, eps_d=cutoff, seed=0)
        assert nmap.dim == 2

    def test_all_eigenvalues_below_threshold(self):
        ds = planted_dataset(5, 3, seed=3)
        with pytest.raises(DegenerateKernelError):
            build_nystrom(ds, GaussianKernel(100.0), 5, 5, eps_d=1.5, seed=0)

    def test_sample_larger_than_dataset_rejected(self):
        ds = planted_dataset(5, 3, seed=3)
        with pytest.raises(ValueError):
            build_nystrom(ds, GaussianKernel(1.0), 6, 6, seed=0)

    def test_dim_bounds(self):
        ds = planted_dataset(20, 3, seed=4)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 10, 7, seed=1)
        assert 1 <= nmap.dim <= 7
        assert len(nmap.landmarks) == 10
        assert np.all(1.0 / nmap.inv_sqrt_eigs**2 >= 1e-16)

    def test_basis_columns_orthonormal(self):
        ds = planted_dataset(25, 4, seed=5)
        nmap = build_nystrom(ds, GaussianKernel(0.8), 15, 15, seed=2)
        gram = nmap.basis.T @ nmap.basis
        assert np.max(np.abs(gram - np.eye(nmap.dim))) <= 1e-10

    def test_same_seed_same_sample(self):
        ds = planted_dataset(40, 4, seed=6)
        a = build_nystrom(ds, GaussianKernel(1.0), 8, 8, seed=5)
        b = build_nystrom(ds, GaussianKernel(1.0), 8, 8, seed=5)
        np.testing.assert_array_equal(a.sample_indices, b.sample_indices)
        np.testing.assert_array_equal(a.basis, b.basis)


class TestNystromRow:
    def test_sample_rows_reconstruct_block(self):
        ds = planted_dataset(20, 4, seed=7)
        k = GaussianKernel(1.0)
        nmap = build_nystrom(ds, k, 12, 12, seed=3)
        block = np.stack(
            [
                [kernel_eval(k, p, q) for q in nmap.landmarks.points]
                for p in nmap.landmarks.points
            ]
        )
        rows = np.stack([nmap.map_point(p) for p in nmap.landmarks.points])
        assert np.linalg.norm(rows @ rows.T - block) <= 1e-8 * max(1.0, np.linalg.norm(block))

    def test_well_separated_points_give_basis_vectors(self):
        # landmarks so far apart the kernel block is essentially the identity
        X = np.diag([100.0, 200.0, 300.0])
        ds = matrix_dataset(X, np.array([1.0, -1.0, 1.0]), "classification")
        nmap = build_nystrom(ds, GaussianKernel(1.0), 3, 3, seed=0)
        for i, p in enumerate(nmap.landmarks.points):
            row = nmap.map_point(p)
            target = np.zeros(3)
            target[np.argmax(np.abs(row))] = math.copysign(1.0, row[np.argmax(np.abs(row))])
            np.testing.assert_allclose(row, target, atol=1e-6)

    def test_output_shape_and_finiteness(self):
        ds = planted_dataset(15, 3, seed=8)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 8, 5, seed=1)
        rng = np.random.default_rng(9)
        for _ in range(10):
            row = nmap.map_point(dense_vector(rng.normal(size=3)))
            assert row.shape == (nmap.dim,)
            assert np.all(np.isfinite(row))

    def test_best_rank_d_approximation(self):
        ds = planted_dataset(18, 4, seed=10)
        k = GaussianKernel(1.0)
        target_dim = 6
        nmap = build_nystrom(ds, k, 12, target_dim, seed=4)
        rows = np.stack([nmap.map_point(p) for p in nmap.landmarks.points])
        block = np.stack(
            [
                [kernel_eval(k, p, q) for q in nmap.landmarks.points]
                for p in nmap.landmarks.points
            ]
        )
        eig = sym_eig(block)
        dim = nmap.dim
        best = eig.vectors[:, :dim] @ np.diag(eig.values[:dim]) @ eig.vectors[:, :dim].T
        assert np.linalg.norm(rows @ rows.T - best) <= 1e-8 * max(1.0, np.linalg.norm(block))

    def test_training_rows_cached(self):
        ds = planted_dataset(10, 3, seed=11)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 5, 5, seed=0)
        first = nmap.training_row(ds, 4)
        reset_eval_counts()
        second = nmap.training_row(ds, 4)
        # both are views of the one mapped matrix; the second maps nothing
        assert first.base is second.base is nmap.training_matrix(ds)
        assert eval_counts()["kernel"] == 0
        np.testing.assert_array_equal(first, nmap.map_point(ds.examples[4]))

    def test_row_cache_tolerates_concurrent_readers(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        ds = planted_dataset(40, 3, seed=12)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 20, 20, seed=0)
        expected = [nmap.map_point(ex) for ex in ds.examples]

        def fetch_all(_):
            return [nmap.training_row(ds, i) for i in range(ds.m)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(fetch_all, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for rows in results:
            for row, want in zip(rows, expected):
                np.testing.assert_array_equal(row, want)


def _build_map(approx, data):
    kernel = GaussianKernel(0.7)
    if approx == "nystrom":
        return build_nystrom(data, kernel, 8, 6, seed=3)
    return build_fourier(data.n, 16, kernel, seed=3)


class TestTrainingRows:
    @pytest.mark.parametrize(
        "approx, layout", [("nystrom", "dense"), ("fourier", "dense"), ("fourier", "mixed")]
    )
    def test_rows_mapped_once_with_map_point_bytes(self, approx, layout, monkeypatch):
        ds = planted_dataset(15, 3, seed=21)
        if layout == "mixed":
            # one row without its middle feature: the block is not dense
            examples = list(ds.examples)
            examples[4] = SparseVector(np.array([0, 2]), examples[4].values[[0, 2]])
            ds = Dataset(examples, ds.labels, ds.n, ds.task)
        fmap = _build_map(approx, ds)
        dense_heights = []
        if approx == "fourier":
            map_dense = fmap.map_dense
            monkeypatch.setattr(
                fmap, "map_dense", lambda x: dense_heights.append(len(x)) or map_dense(x)
            )
        reset_eval_counts()
        matrix = fmap.training_matrix(ds)
        rows = [fmap.training_row(ds, i) for i in range(ds.m)]
        assert fmap.training_matrix(ds) is matrix
        assert all(row.base is matrix for row in rows)
        per_row = len(fmap.landmarks) if approx == "nystrom" else fmap.dim
        counts = eval_counts()
        assert counts["kernel"] + counts["cosine"] == ds.m * per_row
        assert matrix.shape == (ds.m, fmap.dim)
        # a dense cosine block is one map_dense call, with each row's map_point bits
        assert dense_heights == ([ds.m] if (approx, layout) == ("fourier", "dense") else [])
        for i, x in enumerate(ds.examples):
            assert matrix[i].tobytes() == fmap.map_point(x).tobytes()
            np.testing.assert_array_equal(rows[i], matrix[i])

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    def test_second_dataset_gets_its_own_rows(self, approx):
        first = planted_dataset(15, 3, seed=22)
        second = planted_dataset(15, 3, seed=23)
        used, fresh = _build_map(approx, first), _build_map(approx, first)
        for i in range(first.m):
            used.training_row(first, i)
        gamma = np.random.default_rng(5).normal(size=used.dim)
        for i, x in enumerate(second.examples):
            np.testing.assert_array_equal(used.training_row(second, i), used.map_point(x))
        assert feature_objective(gamma, 0.0, used, second, 0.1) == feature_objective(
            gamma, 0.0, fresh, second, 0.1
        )


class TestEvalCounters:
    def test_map_point_counts_one_batch(self):
        ds = planted_dataset(10, 3, seed=12)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 7, 7, seed=0)
        reset_eval_counts()
        nmap.map_point(ds.examples[0])
        assert eval_counts()["kernel"] == 7
        assert eval_counts()["cosine"] == 0

    def test_fourier_counts_cosines(self):
        fmap = build_fourier(3, 33, GaussianKernel(1.0), seed=0)
        reset_eval_counts()
        fmap.map_point(dense_vector([1.0, 2.0, 3.0]))
        assert eval_counts()["cosine"] == 33
        assert eval_counts()["kernel"] == 0


class TestRowBlocks:
    def test_nystrom_rows_do_not_depend_on_block_height(self):
        # s = 80, and heights at which a plain block product rounds by height
        ds = planted_dataset(260, 3, seed=30)
        nmap = build_nystrom(ds, GaussianKernel(0.9), 80, 80, seed=2)
        assert nmap.dim > 64
        whole = nmap.map_rows(ds.examples)
        tall = kernels.ROW_BLOCK_VALUES // len(nmap.landmarks) + 1
        assert tall < ds.m
        for height in (1, 2, 3, 7, 64, tall):
            blocks = [nmap.map_rows(ds.examples[i : i + height]) for i in range(0, ds.m, height)]
            np.testing.assert_array_equal(np.vstack(blocks), whole)
        np.testing.assert_array_equal(nmap.training_matrix(ds), whole)
        assert nmap.map_rows(ds.examples[:0]).shape == (0, nmap.dim)

    def test_uneven_sparse_rows_do_not_depend_on_block_height(self):
        # rows of 0 to 6 nonzeros over 40 columns; the landmarks are the
        # first 10 rows, so later rows reach past the landmarks' width
        rng = np.random.default_rng(33)
        points = []
        for size in [3, 6, 1, 4, 2, 5, 3, 6, 2, 4, 0, 6, 1, 0, 5, 2, 6, 3]:
            columns = np.sort(rng.choice(12 if len(points) < 10 else 40, size, replace=False))
            points.append(SparseVector(columns, rng.normal(size=size)))
        kernel = GaussianKernel(0.4)
        landmarks = Landmarks(kernel, points[:10])
        rows = SparseRows.of(points)
        whole = landmarks.rows(rows)
        for height in (1, 2, 7):
            blocks = [landmarks.rows(rows[i : i + height]) for i in range(0, len(rows), height)]
            np.testing.assert_array_equal(np.vstack(blocks), whole)
        for x, row in zip(points, whole):
            exact = [kernel_eval(kernel, x, p) for p in landmarks.points]
            np.testing.assert_allclose(row, exact, rtol=1e-12)

    def test_features_beyond_the_landmark_width_enter_the_norms(self):
        # landmarks use columns 0 and 1 of 5; the queries reach column 4
        rng = np.random.default_rng(31)
        values = rng.normal(size=(12, 2))
        points = tuple(SparseVector(np.array([0, 1]), v) for v in values)
        ds = Dataset(points, np.where(values[:, 0] > 0, 1.0, -1.0), 5, "classification")
        kernel = GaussianKernel(0.6)
        nmap = build_nystrom(ds, kernel, 6, 6, seed=1)
        assert nmap.landmarks.width == 2
        queries = [dense_vector(rng.normal(size=5)) for _ in range(4)]
        rows = nmap.landmarks.rows(SparseRows.of(queries))
        for x, row in zip(queries, rows):
            exact = [kernel_eval(kernel, x, p) for p in nmap.landmarks.points]
            np.testing.assert_allclose(row, exact, rtol=1e-12)
            np.testing.assert_allclose(nmap.landmarks.row(x), row, rtol=1e-12)

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    def test_block_size_leaves_rows_unchanged(self, approx, monkeypatch):
        ds = planted_dataset(25, 4, seed=32)
        fmap = _build_map(approx, ds)
        whole = fmap.map_all(ds.examples)
        monkeypatch.setattr(kernels, "ROW_BLOCK_VALUES", 1)
        np.testing.assert_array_equal(fmap.map_all(ds.examples), whole)
        for i, x in enumerate(ds.examples):
            np.testing.assert_array_equal(fmap.map_point(x), whole[i])

    def test_an_overflowing_dense_block_fails_as_map_point_does(self):
        # each cosine counted once, and the message is map_point's ("in dot")
        fmap = build_fourier(12, 16, GaussianKernel(0.8), seed=40)
        rng = np.random.default_rng(41)
        points = [dense_vector(rng.normal(size=12)) for _ in range(5)]
        points[3] = dense_vector(np.full(12, 1e308))
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError) as alone:
                fmap.map_point(points[3])
            reset_eval_counts()
            with pytest.raises(FloatingPointError) as block:
                fmap.map_rows(SparseRows.of(points))
        assert str(block.value) == str(alone.value)
        assert eval_counts()["cosine"] == 3 * fmap.dim

    def test_landmark_width_needs_no_dense_block(self, monkeypatch):
        wide = SparseVector(np.array([10**12]), np.array([1.0]))

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        landmarks = Landmarks(GaussianKernel(1.0), (wide,))
        monkeypatch.setattr(np, "zeros", no_memory)
        assert landmarks.width == 10**12 + 1
        with pytest.raises(MemoryError):
            landmarks.table


class TestDenseRows:
    """A point that holds every feature of the table multiplies the table
    itself, and must give the bits of the gather a sparse point makes."""

    def test_landmark_row_matches_the_gather(self):
        ds = planted_dataset(30, 5, seed=34)
        kernel = GaussianKernel(0.7)
        landmarks = Landmarks(kernel, ds.examples[:12])
        assert landmarks.width == 5
        rng = np.random.default_rng(35)
        points = [dense_vector(rng.normal(size=5)) for _ in range(5)]
        # wider than the table: the features past it are dropped first
        points.append(dense_vector(rng.normal(size=9)))
        # as many features as the table is wide, one of them past it
        points.append(SparseVector(np.array([0, 1, 2, 3, 7]), rng.normal(size=5)))
        for x in points:
            row = landmarks.row(x)
            assert row.tobytes() == gathered_kernel_row(landmarks, x).tobytes()
            exact = [kernel_eval(kernel, x, p) for p in landmarks.points]
            np.testing.assert_allclose(row, exact, rtol=1e-12)

    @pytest.mark.parametrize("layout", ["built", "row-major"])
    def test_fourier_features_match_the_gather(self, layout):
        fmap = build_fourier(6, 40, GaussianKernel(0.8), seed=36)
        if layout == "row-major":
            # a map given frequencies in the other layout keeps them column-major
            fmap = FourierMap(
                kernel=fmap.kernel,
                frequencies=np.ascontiguousarray(fmap.frequencies),
                offsets=fmap.offsets,
            )
        assert fmap.frequencies.flags["F_CONTIGUOUS"]
        rng = np.random.default_rng(37)
        for _ in range(5):
            x = dense_vector(rng.normal(size=6))
            assert fmap.map_point(x).tobytes() == gathered_features(fmap, x).tobytes()

    def test_fourier_point_past_the_columns_is_not_dense(self):
        # two features against two columns, but not columns 0 and 1
        fmap = build_fourier(2, 8, GaussianKernel(1.0), seed=38)
        with pytest.raises(IndexError):
            fmap.map_point(SparseVector(np.array([0, 5]), np.array([1.0, 2.0])))

    @pytest.mark.parametrize("block_values", [1, 3, 1 << 14])
    def test_frequencies_are_one_row_major_draw(self, block_values, monkeypatch):
        # drawn in blocks of rows into the column-major layout, the values,
        # and the offsets drawn after them, are those of one (dim x n) draw
        monkeypatch.setattr(kernels, "ROW_BLOCK_VALUES", block_values)
        fmap = build_fourier(7, 50, GaussianKernel(0.9), seed=39)
        rng = stream(39, FOURIER_STREAM)
        assert fmap.frequencies.flags["F_CONTIGUOUS"]
        np.testing.assert_array_equal(
            fmap.frequencies, rng.normal(0.0, math.sqrt(2.0 * 0.9), size=(50, 7))
        )
        np.testing.assert_array_equal(
            fmap.offsets, rng.uniform(0.0, 2.0 * math.pi, size=50)
        )
