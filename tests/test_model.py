import dataclasses
import io

import numpy as np
import pytest

from assetsvm import (
    GaussianKernel,
    Model,
    ModelFormatError,
    NystromRecovery,
    build_fourier,
    build_nystrom,
    decide,
    eval_counts,
    kernel_eval,
    load_model,
    predict_label,
    recover_alpha,
    reset_eval_counts,
    save_model,
)
from assetsvm.model import model_to_text
from helpers import dense_vector, matrix_dataset, planted_dataset


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
        rows = np.stack([nmap.map_point(p) for p in nmap.sample_points])
        for _ in range(20):
            gamma = rng.normal(size=nmap.dim)
            rec = recover_alpha(nmap, gamma)
            residual = np.linalg.norm(rows.T @ rec.alpha - gamma)
            assert residual <= 1e-8

    def test_zero_gamma_gives_zero_alpha(self):
        ds = planted_dataset(10, 3, seed=4)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 6, 6, seed=0)
        rec = recover_alpha(nmap, np.zeros(nmap.dim))
        np.testing.assert_array_equal(rec.alpha, np.zeros(nmap.sample_size))

    def test_wrong_length_rejected(self):
        ds = planted_dataset(10, 3, seed=5)
        nmap = build_nystrom(ds, GaussianKernel(1.0), 6, 6, seed=0)
        with pytest.raises(ValueError):
            recover_alpha(nmap, np.zeros(nmap.dim + 1))


class TestDecide:
    def test_constant_model(self):
        model = fourier_model(b=0.7)
        object.__setattr__(model, "gamma", np.zeros(model.gamma.size))
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
        object.__setattr__(model, "gamma", np.zeros(model.gamma.size))
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
        with pytest.raises(ValueError, match="dimension"):
            decide(model, dense_vector([1.0, 1.0, 1.0, 1.0]))


class TestSaveLoad:
    @pytest.mark.parametrize("kind", ["fourier", "nystrom"])
    def test_roundtrip_preserves_decisions_exactly(self, kind, tmp_path):
        if kind == "fourier":
            model = fourier_model(dim=48, seed=10)
            n = model.input_dim
        else:
            ds = planted_dataset(20, 5, seed=11)
            model, _ = nystrom_model(ds, sample=12, seed=4)
            n = ds.n
        path = str(tmp_path / "model.txt")
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = dense_vector(rng.normal(size=n))
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

    def test_frequency_matrix_allocation_failure_rejected(self, monkeypatch):
        text = model_to_text(fourier_model(dim=4))

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(np, "empty", no_memory)
        with pytest.raises(ModelFormatError, match="memory"):
            load_model(io.StringIO(text))


class TestModelType:
    @pytest.mark.parametrize("kind", ["fourier", "nystrom"])
    def test_sigma_mismatch_rejected(self, kind):
        if kind == "fourier":
            model = fourier_model(sigma=1.0)
        else:
            model, _ = nystrom_model(planted_dataset(10, 3, seed=2), sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            dataclasses.replace(model, sigma=2.0)


class TestNystromRecoveryType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NystromRecovery(
                alpha=np.zeros(2),
                support_points=(dense_vector([1.0]),),
                sigma=1.0,
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
