import dataclasses
import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assetsvm import (
    Dataset,
    GaussianKernel,
    Landmarks,
    Model,
    ModelFormatError,
    NystromRecovery,
    SparseRows,
    SparseVector,
    build_fourier,
    build_nystrom,
    decide,
    decide_all,
    decide_block,
    eval_counts,
    halves,
    kernels,
    load_model,
    predict_label,
    recover_alpha,
    reset_eval_counts,
    save_model,
)
from assetsvm import model as model_module
from assetsvm.model import model_to_text
from helpers import (
    dense_vector,
    gathered_features,
    gathered_kernel_row,
    kernel_eval,
    matrix_dataset,
    planted_dataset,
    split_files,
    to_dense,
    uneven_sparse,
)


def nystrom_model(ds, gamma=None, b=0.25, lam=0.1, sigma=1.0, sample=None, seed=0):
    sample = ds.m if sample is None else sample
    nmap = build_nystrom(ds, GaussianKernel(sigma), sample, sample, seed=seed)
    if gamma is None:
        gamma = np.linspace(-1.0, 1.0, nmap.dim)
    payload = recover_alpha(nmap, gamma)
    model = Model(
        task=ds.task,
        approx="nystrom",
        gamma=np.asarray(gamma, dtype=np.float64),
        b=b,
        lam=lam,
        sigma=sigma,
        input_dim=ds.n,
        payload=payload,
    )
    return model, nmap


def fourier_model(n=4, dim=32, b=-0.5, lam=0.05, sigma=0.8, seed=1, task="classification"):
    fmap = build_fourier(n, dim, GaussianKernel(sigma), seed=seed)
    rng = np.random.default_rng(seed)
    return Model(
        task=task,
        approx="fourier",
        gamma=rng.normal(size=dim),
        b=b,
        lam=lam,
        sigma=sigma,
        input_dim=n,
        payload=fmap,
    )


class TestRecoverAlpha:
    def test_identity_block_returns_gamma(self):
        # landmarks so far apart the kernel block is numerically the identity
        X = np.diag([100.0, 200.0, 300.0])
        ds = matrix_dataset(X, np.array([1.0, -1.0, 1.0]), "classification")
        nmap = build_nystrom(ds, GaussianKernel(1.0), 3, 3, seed=0)
        gamma = np.array([0.3, -0.7, 0.2])
        rec = recover_alpha(nmap, gamma)
        # eigenvectors of ~identity are signed unit vectors in some order
        back = nmap.basis.T @ rec.alpha / nmap.inv_sqrt_eigs
        np.testing.assert_allclose(back, gamma, atol=1e-9)

    def test_expansion_reproduces_gamma(self):
        ds = planted_dataset(25, 4, seed=1)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 15, 15, seed=2)
        rng = np.random.default_rng(3)
        rows = np.stack([nmap.map_point(p) for p in nmap.landmarks.points])
        for _ in range(20):
            gamma = rng.normal(size=nmap.dim)
            rec = recover_alpha(nmap, gamma)
            residual = np.linalg.norm(rows.T @ rec.alpha - gamma)
            assert residual <= 1e-8

    def test_model_shares_the_maps_landmarks(self):
        ds = planted_dataset(10, 3, seed=4)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 6, 6, seed=0)
        assert recover_alpha(nmap, np.zeros(nmap.dim)).landmarks is nmap.landmarks

    def test_zero_gamma_gives_zero_alpha(self):
        ds = planted_dataset(10, 3, seed=4)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 6, 6, seed=0)
        rec = recover_alpha(nmap, np.zeros(nmap.dim))
        np.testing.assert_array_equal(rec.alpha, np.zeros(len(nmap.landmarks)))

    def test_wrong_length_rejected(self):
        ds = planted_dataset(10, 3, seed=5)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 6, 6, seed=0)
        with pytest.raises(ValueError):
            recover_alpha(nmap, np.zeros(nmap.dim + 1))


class TestDecide:
    def test_constant_model(self):
        model = fourier_model(b=0.7)
        model = dataclasses.replace(model, gamma=np.zeros(model.gamma.size))
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert decide(model, dense_vector(rng.normal(size=4))) == 0.7

    def test_nystrom_decision_matches_feature_path(self):
        ds = planted_dataset(30, 4, seed=7)
        rng = np.random.default_rng(8)
        model, nmap = nystrom_model(ds, gamma=rng.normal(size=ds.m) * 0.3)
        worst = 0.0
        for i, ex in enumerate(ds.examples):
            via_kernel = decide(model, ex)
            via_features = float(nmap.training_row(ds, i) @ model.gamma) + model.b
            worst = max(worst, abs(via_kernel - via_features))
        assert worst <= 1e-6

    def test_tie_goes_positive(self):
        model = fourier_model(b=0.0)
        model = dataclasses.replace(model, gamma=np.zeros(model.gamma.size))
        assert predict_label(model, dense_vector([0.0, 0.0, 0.0, 0.0])) == 1

    def test_kernel_evaluation_count_is_sample_size(self):
        ds = planted_dataset(40, 4, seed=9)
        model, _ = nystrom_model(ds, sample=17, gamma=None, seed=3)
        reset_eval_counts()
        decide(model, dense_vector(np.zeros(4)))
        counts = eval_counts()
        assert counts["kernel"] == 17
        assert counts["cosine"] == 0

    def test_cosine_count_is_dimension(self):
        model = fourier_model(dim=29)
        reset_eval_counts()
        decide(model, dense_vector(np.zeros(4)))
        counts = eval_counts()
        assert counts["cosine"] == 29
        assert counts["kernel"] == 0

    def test_dimension_check(self):
        model = fourier_model(n=3)
        with pytest.raises(ValueError, match="feature index 4 beyond model dimension 3"):
            decide(model, dense_vector([1.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    def test_dense_points_decide_as_the_gather_does(self, approx):
        # a point that holds every feature skips the gather; its decision
        # keeps the gather's bits
        rng = np.random.default_rng(12)
        if approx == "nystrom":
            model, _ = nystrom_model(planted_dataset(30, 5, seed=13), sample=14)
            landmarks, alpha = model.payload.landmarks, model.payload.alpha
            assert landmarks.width == 5

            def gathered(x):
                return float(gathered_kernel_row(landmarks, x).dot(alpha)) + model.b
        else:
            model = fourier_model(n=5, dim=40)

            def gathered(x):
                return float(gathered_features(model.payload, x).dot(model.gamma)) + model.b
        for _ in range(5):
            x = dense_vector(rng.normal(size=5))
            assert decide(model, x) == gathered(x)


class TestDecideBlock:
    """decide_block against one decide call per point, bit for bit.

    Every block, dense, sparse or mixed, is scored as stacks of one-row
    products, without a decide call. A plain block product (``x @ table``,
    ``cross @ alpha``, ``phase @ gamma``) rounds by the block's shape and
    fails these tests.
    """

    @staticmethod
    def landmark_model(n=12):
        model, _ = nystrom_model(planted_dataset(60, n, seed=50), sample=40, sigma=0.05, seed=5)
        assert model.payload.landmarks.width == n
        return model

    @staticmethod
    def cosine_model(n=12):
        return fourier_model(n=n, dim=48, sigma=0.05, seed=51)

    @staticmethod
    def assert_decides_alike(model, rows):
        scores = decide_block(model, rows)
        want = np.array([decide(model, x) for x in rows])
        assert scores.shape == (len(rows),)
        assert np.array_equal(scores.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    def test_dense_blocks_of_any_height_score_as_decide(self, approx):
        model = self.landmark_model() if approx == "nystrom" else self.cosine_model()
        per_point = model.gamma.size if approx == "fourier" else len(model.payload.landmarks)
        past_cap = kernels.ROW_BLOCK_VALUES // per_point + 1
        rng = np.random.default_rng(52)
        rows = SparseRows.of(dense_vector(rng.normal(size=12)) for _ in range(past_cap + 5))
        want = np.array([decide(model, x) for x in rows])
        no_decide = mock.patch.object(model_module, "decide", side_effect=AssertionError("decide"))
        for height in (1, 2, 3, 7, 64, past_cap):
            for start in range(0, len(rows), height):
                block = rows[start : start + height]
                reset_eval_counts()
                with no_decide:
                    scores = decide_block(model, block)
                assert sum(eval_counts().values()) == len(block) * per_point
                assert np.array_equal(
                    scores.view(np.int64), want[start : start + height].view(np.int64)
                )

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    def test_an_empty_block_gives_no_scores(self, approx):
        model = self.landmark_model() if approx == "nystrom" else self.cosine_model()
        scores = decide_block(model, SparseRows.of(()))
        assert scores.shape == (0,)

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    @pytest.mark.parametrize("layout", ["sparse", "mixed"])
    @pytest.mark.parametrize("block_values", [1 << 14, 50])
    def test_sparse_and_mixed_blocks_score_as_decide(self, approx, layout, block_values,
                                                     monkeypatch):
        # with 50 values per stack, rows of k nonzeros are stacked a few at a
        # time, so every block below is cut into several stacks per length
        model = self.landmark_model() if approx == "nystrom" else self.cosine_model()
        rng = np.random.default_rng(53)
        points = list(uneven_sparse(40, 12, seed=53).examples)
        if layout == "mixed":
            points += [dense_vector(rng.normal(size=12)) for _ in range(6)]
            rng.shuffle(points)
        rows = SparseRows.of(points)
        want = np.array([decide(model, x) for x in rows])
        monkeypatch.setattr(kernels, "ROW_BLOCK_VALUES", block_values)
        for height in (1, 7, len(rows)):
            for start in range(0, len(rows), height):
                block = rows[start : start + height]
                with mock.patch.object(model_module, "decide", wraps=decide) as decided:
                    scores = decide_block(model, block)
                assert not decided.called
                assert np.array_equal(
                    scores.view(np.int64), want[start : start + height].view(np.int64)
                )

    def test_rows_wider_than_the_table_score_as_decide(self):
        # the supports hold features 0-3 of 8: the features of a row past
        # the table enter only its norm, in a block as alone
        rng = np.random.default_rng(54)
        rows = tuple(dense_vector(rng.normal(size=4)) for _ in range(30))
        ds = Dataset(rows, np.where(rng.random(30) < 0.5, 1.0, -1.0), 8, "classification")
        model, _ = nystrom_model(ds, sample=20, sigma=0.3, seed=6)
        assert model.payload.landmarks.width == 4 and model.input_dim == 8
        wide = [dense_vector(rng.normal(size=8)) for _ in range(9)]
        wide += [SparseVector(np.array([1, 6]), rng.normal(size=2)),
                 SparseVector(np.array([5]), np.ones(1))]
        narrow = [dense_vector(rng.normal(size=4)) for _ in range(9)]
        for points in (wide, narrow, wide + narrow + list(uneven_sparse(12, 8, seed=55).examples)):
            with mock.patch.object(model_module, "decide", wraps=decide) as decided:
                self.assert_decides_alike(model, SparseRows.of(points))
            assert not decided.called

    @pytest.mark.parametrize("approx", ["nystrom", "fourier"])
    def test_a_row_past_the_model_dimension_fails_as_decide_does(self, approx):
        model = self.landmark_model() if approx == "nystrom" else self.cosine_model()
        rows = SparseRows.of([*uneven_sparse(6, 12, seed=56).examples, dense_vector(np.ones(13))])
        message = "^point uses feature index 13 beyond model dimension 12$"
        with pytest.raises(ValueError, match=message):
            decide_block(model, rows)

    def test_an_overflowing_block_fails_as_decide_does(self):
        # the products' error is dropped: decide scores the block again and
        # fails on the point with its own message, each evaluation counted once
        model = self.cosine_model()
        rng = np.random.default_rng(55)
        points = [dense_vector(rng.normal(size=12)) for _ in range(5)]
        points[3] = dense_vector(np.full(12, 1e308))
        rows = SparseRows.of(points)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError) as alone:
                decide_all(model, rows)
            reset_eval_counts()
            with pytest.raises(FloatingPointError) as block:
                decide_block(model, rows)
        assert str(block.value) == str(alone.value)
        assert eval_counts()["cosine"] == 3 * model.gamma.size


class TestDecideAgainstNumpy:
    """decide against a dense numpy recomputation that shares no code with it.

    Each decision must match the reference to within 1e-12 times the sum of
    the absolute values of its terms, the bias included.
    """

    @staticmethod
    def check(model, x, terms):
        want = float(np.sum(terms)) + model.b
        scale = float(np.sum(np.abs(terms))) + abs(model.b)
        assert abs(decide(model, x) - want) <= 1e-12 * scale

    @staticmethod
    def queries(n, rng):
        return {
            "dense": dense_vector(rng.normal(size=n)),
            "sparse": SparseVector(np.array([1, 3]), rng.normal(size=2)),
            "wide sparse": SparseVector(np.array([0, n - 2]), rng.normal(size=2)),
            "empty": SparseVector(np.zeros(0, dtype=np.int64), np.zeros(0)),
            # four features: as many as the landmark table below is wide,
            # but the last one is past it, so the table is not multiplied whole
            "trap": SparseVector(np.array([0, 1, 2, n - 1]), rng.normal(size=4)),
        }

    def test_landmark_model(self):
        # the supports use columns 1 and 3 of 8, so the dense and the wide
        # sparse queries reach past the supports' width
        rng = np.random.default_rng(40)
        values = rng.normal(size=(20, 2))
        rows = tuple(SparseVector(np.array([1, 3]), v) for v in values)
        ds = Dataset(rows, np.where(values[:, 0] > 0.0, 1.0, -1.0), 8, "classification")
        model, _ = nystrom_model(ds, sample=12, sigma=0.7, seed=4)
        assert model.payload.landmarks.width == 4
        supports = np.stack([to_dense(p, 8) for p in model.payload.landmarks.points])
        for x in self.queries(8, rng).values():
            gaps = to_dense(x, 8) - supports
            kernel = np.exp(-model.sigma * np.sum(gaps * gaps, axis=1))
            self.check(model, x, model.payload.alpha * kernel)

    def test_fourier_model(self):
        model = fourier_model(n=6, dim=48, seed=10)
        fmap = model.payload
        rng = np.random.default_rng(41)
        for x in self.queries(6, rng).values():
            phase = fmap.frequencies @ to_dense(x, 6) + fmap.offsets
            self.check(model, x, model.gamma * np.sqrt(2.0 / fmap.dim) * np.cos(phase))


class TestSaveLoad:
    @pytest.mark.parametrize("kind", ["fourier", "nystrom", "sparse-nystrom"])
    def test_roundtrip_preserves_decisions_exactly(self, kind, tmp_path):
        if kind == "fourier":
            model = fourier_model(dim=48, seed=10)
            n = model.input_dim
        elif kind == "nystrom":
            ds = planted_dataset(20, 5, seed=11)
            model, _ = nystrom_model(ds, sample=12, seed=4)
            n = ds.n
        else:
            # the landmarks use columns 1 and 3 of 8, so the dense block is
            # 4 wide with a column no landmark uses, and the queries below
            # also reach columns past it
            values = np.random.default_rng(11).normal(size=(20, 2))
            rows = tuple(SparseVector(np.array([1, 3]), v) for v in values)
            ds = Dataset(rows, np.where(values[:, 0] > 0.0, 1.0, -1.0), 8, "classification")
            model, _ = nystrom_model(ds, sample=12, seed=4)
            assert model.payload.landmarks.width == 4
            n = ds.n
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = dense_vector(rng.normal(size=n))
            assert decide(loaded, x) == decide(model, x)
        if kind == "sparse-nystrom":
            for _ in range(100):
                cols = np.sort(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
                x = SparseVector(cols, rng.normal(size=cols.size))
                assert decide(loaded, x) == decide(model, x)
        assert model_to_text(loaded) == model_to_text(model)

    def test_handwritten_text_roundtrips_byte_for_byte(self):
        # signed zero, the smallest subnormal, a huge value, a decimal with
        # no exact binary form, and a landmark at the origin
        text = (
            "ASSET-MODEL v1\ntask classification\napprox nystrom\nsigma 0.1\n"
            "lambda 1e+300\nbias -0.0\nn 2\nd 2\ns 2\n"
            "gamma 5e-324 0.1\nalpha -0.0 1e+300\n"
            "support 1:0.1 2:5e-324\nsupport\n"
        )
        assert model_to_text(load_model(io.StringIO(text))) == text

    def test_save_is_deterministic_text(self):
        model = fourier_model(dim=16, seed=13)
        assert model_to_text(model) == model_to_text(model)

    def test_unsupported_version_rejected(self):
        text = model_to_text(fourier_model()).replace("ASSET-MODEL v1", "ASSET-MODEL v2", 1)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(ModelFormatError, match="header"):
            load_model(io.StringIO("not a model\n"))

    def test_truncated_file_rejected(self):
        text = model_to_text(fourier_model())
        lines = text.splitlines(True)
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(io.StringIO("".join(lines[: len(lines) // 2])))

    def test_gamma_length_mismatch_rejected(self):
        text = model_to_text(fourier_model(dim=8))
        # claim a larger dimension than the stored vectors provide
        text = text.replace("d 8", "d 9", 1)
        with pytest.raises(ModelFormatError, match="gamma"):
            load_model(io.StringIO(text))

    def test_non_numeric_payload_rejected(self):
        text = model_to_text(fourier_model(dim=4))
        text = text.replace("offsets ", "offsets junk ", 1)
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(text))

    @pytest.mark.parametrize("row", ["gamma", "freq"])
    @pytest.mark.parametrize("token, value, message", [
        ("1_0", 10.0, None),
        ("١", 1.0, None),  # ARABIC-INDIC DIGIT ONE
        ("infinity", None, "non-finite value in {}"),
        ("1e400", None, "non-finite value in {}"),
        ("0x10", None, "non-numeric value in {}"),
        ("ⅷ", None, "non-numeric value in {}"),  # SMALL ROMAN NUMERAL EIGHT
    ])
    def test_float_tokens_follow_python_float(self, row, token, value, message):
        # a stored float is read by float()'s rules: what float() accepts
        # loads as its value, and what it rejects or makes infinite fails
        model = fourier_model(n=3, dim=4)
        prefix = "gamma " if row == "gamma" else "freq "
        lines = model_to_text(model).splitlines(keepends=True)
        at = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[at] = prefix + " ".join([token, *lines[at].split()[2:]]) + "\n"
        text = "".join(lines)
        if message is not None:
            what = "gamma" if row == "gamma" else "freq row 1"
            with pytest.raises(ModelFormatError, match=f"^{message.format(what)}$"):
                load_model(io.StringIO(text))
            return
        loaded = load_model(io.StringIO(text))
        stored = loaded.gamma[0] if row == "gamma" else loaded.payload.frequencies[0, 0]
        assert stored == value

    def test_frequency_matrix_allocation_failure_rejected(self, monkeypatch):
        text = model_to_text(fourier_model(dim=4))

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(np, "empty", no_memory)
        with pytest.raises(ModelFormatError, match="memory"):
            load_model(io.StringIO(text))

    @staticmethod
    def assert_roundtrip_decides_alike(model, seed):
        sink = io.StringIO()
        save_model(model, sink)
        loaded = load_model(io.StringIO(sink.getvalue()))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = dense_vector(rng.normal(scale=2.0, size=model.input_dim))
            assert decide(loaded, x) == decide(model, x)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 12),
        n=st.integers(1, 4),
        sigma=st.floats(0.2, 4.0),
        b=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nystrom_decisions_survive_save_and_load(self, m, n, sigma, b, seed):
        model, _ = nystrom_model(planted_dataset(m, n, seed=seed), b=b, sigma=sigma, seed=seed)
        self.assert_roundtrip_decides_alike(model, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        dim=st.integers(1, 24),
        sigma=st.floats(0.01, 4.0),
        b=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
        task=st.sampled_from(["classification", "regression"]),
        split=st.booleans(),
    )
    def test_fourier_decisions_survive_save_and_load(self, n, dim, sigma, b, seed, task, split):
        model = fourier_model(n=n, dim=dim, b=b, sigma=sigma, seed=seed, task=task)
        self.assert_roundtrip_decides_alike(model, seed)
        # the same through a file, its frequency rows split between two
        # processes or not
        with tempfile.TemporaryDirectory() as root, split_files(split) as outcomes:
            path = os.path.join(root, "model.txt")
            save_model(model, path)
            with open(path, "rb") as handle:
                assert handle.read() == model_to_text(model).encode("utf-8")
            loaded = load_model(path)
        assert outcomes == ([None, None] if split and dim >= 2 else [])
        assert np.array_equal(loaded.payload.frequencies, model.payload.frequencies)
        assert model_to_text(loaded) == model_to_text(model)


class TestSplitModelFiles:
    """Large cosine models: a forked child formats or parses half of the frequency rows."""

    @staticmethod
    def outcome(path):
        try:
            return model_to_text(load_model(path))
        except ModelFormatError as exc:
            return ModelFormatError, str(exc)

    @pytest.mark.parametrize(
        "dim, bad_row, fallback",
        [
            (2, None, None), (3, None, None), (9, None, None),
            (9, 2, ModelFormatError), (2, -1, halves.ChildFailed), (9, -1, halves.ChildFailed),
        ],
    )
    def test_split_load_agrees_with_the_sequential_load(self, dim, bad_row, fallback, tmp_path):
        text = model_to_text(fourier_model(n=5, dim=dim, seed=dim))
        if bad_row is not None:
            lines = text.splitlines(True)
            freq = [k for k, line in enumerate(lines) if line.startswith("freq ")]
            lines[freq[bad_row]] = "freq 1 2\n"
            text = "".join(lines)
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        with split_files(False):
            expected = self.outcome(str(path))
        with split_files(True) as outcomes:
            assert self.outcome(str(path)) == expected
        assert outcomes == [fallback]

    @pytest.mark.parametrize("bounce", [16, 100], ids=["column-per-read", "columns-per-read"])
    def test_split_load_reads_whole_columns_through_the_buffer(self, bounce, tmp_path):
        # the child's 5 columns of 5 rows, 40 bytes each, arrive one at a time
        # through a 16-byte buffer and two at a time, then one, through 100
        model = fourier_model(n=5, dim=10, seed=4)
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        with split_files(True) as outcomes, mock.patch.object(halves, "BOUNCE_BYTES", bounce):
            loaded = load_model(path)
        assert outcomes == [None]
        assert np.array_equal(loaded.payload.frequencies, model.payload.frequencies)
        assert loaded.payload.frequencies.flags.f_contiguous

    def test_failed_child_gives_the_sequential_outcome(self, tmp_path):
        model = fourier_model(n=5, dim=9, seed=3)
        path = str(tmp_path / "model.txt")
        with split_files(True) as outcomes:
            with mock.patch.object(
                model_module, "_send_freq_text", side_effect=RuntimeError("child fails")
            ):
                save_model(model, path)
            with open(path, "rb") as handle:
                assert handle.read() == model_to_text(model).encode("utf-8")
            with mock.patch.object(
                model_module, "_send_freq_rows", side_effect=RuntimeError("child fails")
            ):
                assert self.outcome(path) == model_to_text(model)
        assert outcomes == [halves.ChildFailed, halves.ChildFailed]

    def test_invalid_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.txt"
        text = model_to_text(fourier_model(n=5, dim=9, seed=3)).encode("utf-8")
        path.write_bytes(text.replace(b"\nfreq", b"\n\xc3freq", 1))
        for split in (True, False):
            with split_files(split):
                assert self.outcome(str(path)) == (
                    ModelFormatError,
                    "model file is not UTF-8 text (invalid continuation byte: b'\\xc3')",
                )


class TestModelType:
    @pytest.mark.parametrize("kind", ["fourier", "nystrom"])
    def test_sigma_mismatch_rejected(self, kind):
        if kind == "fourier":
            model = fourier_model(sigma=1.0)
        else:
            model, _ = nystrom_model(planted_dataset(10, 3, seed=2), sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            dataclasses.replace(model, sigma=2.0)


class TestPayloadWidth:
    @pytest.mark.parametrize("input_dim", [3, 5])
    def test_fourier_frequencies_must_match_input_dim(self, input_dim):
        model = fourier_model(n=4)
        with pytest.raises(ValueError, match="columns"):
            dataclasses.replace(model, input_dim=input_dim)

    def test_nystrom_landmarks_must_fit_input_dim(self):
        ds = planted_dataset(10, 3, seed=2)
        model, _ = nystrom_model(ds)
        # wider is fine: the landmarks leave the extra columns at zero
        assert dataclasses.replace(model, input_dim=5).input_dim == 5
        with pytest.raises(ValueError, match="landmarks"):
            dataclasses.replace(model, input_dim=2)


class TestNystromRecoveryType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NystromRecovery(
                alpha=np.zeros(2),
                landmarks=Landmarks(GaussianKernel(1.0), (dense_vector([1.0]),)),
            )

    def test_decide_handles_points_wider_than_supports(self):
        # query features beyond every support point's width contribute
        # distance, not errors
        ds = matrix_dataset(np.array([[1.0, 0.0]]), np.array([1.0]), "classification")
        model, _ = nystrom_model(ds, gamma=np.array([1.0]), b=0.0)
        object.__setattr__(model, "input_dim", 4)
        x = dense_vector([1.0, 0.0, 0.0, 2.0])
        expected = model.payload.alpha[0] * kernel_eval(
            GaussianKernel(1.0), x, ds.examples[0]
        )
        assert decide(model, x) == pytest.approx(expected, rel=1e-12)
