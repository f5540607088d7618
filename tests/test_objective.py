"""Loss-side tests: projection, temperature-scaled similarities,
symmetric InfoNCE values and gradients, reconstruction."""

import math

import numpy as np
import pytest

from flip import autodiff as ad
from flip.autodiff import Graph, OpCheck, Tensor, check_gradients, verification_mode
from flip.encoders import (
    DECODER_LAYERS,
    LOGIT_SCALE_INIT,
    init_params,
    patchify,
    preset,
    transformer_block,
)
from flip.errors import ConfigError, DimensionError
from flip.masking import full_mask, patch_masks_for_samples, sample_patch_mask
from flip.objective import (
    LOG_MAX_LOGIT_SCALE,
    MAX_LOGIT_SCALE,
    info_nce,
    normalize_patches,
    project_and_normalize,
    reconstruction_loss,
)


def batch_from(img, txt, scale_log=0.0):
    """The (image_emb, text_emb, logit_scale) tensors the loss head takes."""
    return Tensor(img), Tensor(txt), Tensor(np.array([scale_log]))


class TestProjection:
    def test_unit_row_with_identity_projection_unchanged(self):
        row = np.array([[1.0, 0.0]])
        out = project_and_normalize(Tensor(row), Tensor(np.eye(2)))
        assert np.allclose(out.data, row, atol=1e-6)

    def test_three_four_five(self):
        out = project_and_normalize(Tensor([[3.0, 4.0]]), Tensor(np.eye(2)))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-6)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        out = project_and_normalize(Tensor(rng.standard_normal((10, 6))),
                                    Tensor(rng.standard_normal((6, 4))))
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-5)


class TestSimilarityLogits:
    """The temperature-scaled similarities inside the fused loss."""

    def test_identical_embeddings_diag_one(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((3, 5))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        loss = float(info_nce(*batch_from(e, e)).data)
        # at scale 1 each matched pair's logit is its cosine, 1
        assert loss == pytest.approx(np.mean(np.log(np.exp(e @ e.T).sum(axis=1))) - 1.0,
                                     abs=1e-5)

    def test_orthonormal_identity_matrix(self):
        e = np.eye(4)
        loss = float(info_nce(*batch_from(e, e)).data)
        assert loss == pytest.approx(math.log(math.e + 3.0) - 1.0, abs=1e-6)

    def test_scale_clamped_at_100(self):
        rng = np.random.default_rng(1)
        img, txt = rng.standard_normal((2, 4, 5))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)

        def run(log_scale):
            scale = Tensor(np.array([log_scale]), requires_grad=True)
            with Graph() as g:
                loss = info_nce(Tensor(img), Tensor(txt), scale)
                g.backward(loss)
            return float(loss.data), scale.grad

        at_cap, _ = run(LOG_MAX_LOGIT_SCALE)
        for past_cap in (math.log(100.0) + 1e-3, math.log(100.0) + 1.0):
            loss, grad = run(past_cap)
            assert loss == at_cap
            assert np.array_equal(grad, [0.0])
        assert run(LOG_MAX_LOGIT_SCALE - 0.5)[1][0] != 0.0

    def test_init_constant(self):
        assert math.isclose(math.exp(LOGIT_SCALE_INIT), 1 / 0.07, rel_tol=1e-9)
        assert MAX_LOGIT_SCALE == 100.0


class TestInfoNCE:
    def test_two_orthonormal_pairs_closed_form(self):
        e = np.eye(2)
        loss = info_nce(*batch_from(e, e)).data
        assert abs(float(loss) - 0.31326) < 1e-4

    def test_uniform_logits_ln_b(self):
        for b in (2, 4, 16):
            img = np.tile(np.eye(1, 8), (b, 1))  # identical rows
            loss = info_nce(*batch_from(img, img)).data
            assert abs(float(loss) - math.log(b)) < 1e-6

    def test_sharp_scale_drives_loss_to_zero(self):
        e = np.eye(4)
        loss = info_nce(*batch_from(e, e, math.log(90.0))).data
        assert float(loss) < 1e-6

    def test_batch_of_one_rejected(self):
        with pytest.raises(ConfigError):
            info_nce(*batch_from(np.ones((1, 4)), np.ones((1, 4))))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((6, 5))
        txt = rng.standard_normal((6, 5))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)
        base = float(info_nce(*batch_from(img, txt, 1.3)).data)
        perm = rng.permutation(6)
        shuffled = float(info_nce(*batch_from(img[perm], txt[perm], 1.3)).data)
        assert abs(base - shuffled) < 1e-6

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            img = rng.standard_normal((5, 3))
            txt = rng.standard_normal((5, 3))
            img /= np.linalg.norm(img, axis=1, keepdims=True)
            txt /= np.linalg.norm(txt, axis=1, keepdims=True)
            assert float(info_nce(*batch_from(img, txt, rng.uniform(0, 3))).data) >= 0

    def test_gradients_match_finite_differences(self):
        def make_inputs(rng):
            img = rng.standard_normal((4, 5))
            txt = rng.standard_normal((4, 5))
            img /= np.linalg.norm(img, axis=1, keepdims=True)
            txt /= np.linalg.norm(txt, axis=1, keepdims=True)
            return (
                [Tensor(img, requires_grad=True), Tensor(txt, requires_grad=True),
                 Tensor(rng.uniform(0.5, 2.0, size=1), requires_grad=True)],
                {},
            )

        check = OpCheck(
            name="info_nce",
            apply=info_nce,
            make_inputs=make_inputs,
        )
        report = check_gradients(check, tolerance=1e-4)
        assert report.passed, str(report)
        assert len(report.max_rel_err) == 3  # both embeddings and the scale


class TestZeroShotArgmaxInvariance:
    def test_positive_rescaling_never_changes_argmax(self):
        rng = np.random.default_rng(2)
        img = rng.standard_normal((8, 4))
        txt = rng.standard_normal((8, 4))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)
        for log_scale in (-1.0, 0.0, 2.0, math.log(100)):
            logits = math.exp(min(log_scale, LOG_MAX_LOGIT_SCALE)) * (img @ txt.T)
            assert np.array_equal(np.argmax(logits, axis=1),
                                  np.argmax(img @ txt.T, axis=1))


@pytest.fixture(scope="module")
def rec_setup():
    cfg = preset("tiny")
    params = init_params(cfg, seed=0, with_decoder=True)
    rng = np.random.default_rng(0)
    images = rng.random((4, 32, 32, 3)).astype(np.float32)
    patches = patchify(images, 8)
    return cfg, params, patches


class TestReconstruction:

    def test_full_mask_has_nothing_to_reconstruct(self, rec_setup):
        # train_step skips reconstruction when no patch is hidden
        cfg, params, patches = rec_setup
        tokens = Tensor(np.zeros((4, 16, 64), dtype=np.float32))
        with pytest.raises(DimensionError, match="mean_squared_error"):
            reconstruction_loss(params, tokens, full_mask(16, 4), patches, cfg)

    def test_zero_prediction_gives_unit_mse(self, rec_setup):
        # per-patch normalized targets have unit variance, so predicting 0
        # lands at MSE 1 up to sampling noise
        cfg, params, patches = rec_setup
        targets = normalize_patches(patches)
        assert abs(float((targets**2).mean()) - 1.0) < 0.05

    def test_perfect_prediction_is_zero(self):
        x = np.random.default_rng(0).random((2, 4, 12))
        t = normalize_patches(x)
        assert np.allclose(((t - t) ** 2).mean(), 0.0)

    def test_loss_decreases_under_decoder_training(self, rec_setup):
        # the reconstruction head alone must be optimizable
        cfg, params, patches = rec_setup
        mask = sample_patch_mask(16, 0.5, np.random.default_rng(0), batch_size=4)
        tokens_const = np.random.default_rng(1).standard_normal((4, 8, 64)).astype(np.float32)
        first = last = None
        for it in range(30):
            for p in params.values():
                p.zero_grad()
            with Graph() as g:
                loss = reconstruction_loss(params, Tensor(tokens_const), mask, patches, cfg)
                g.backward(loss)
            for name, p in params.items():
                if name.startswith("dec/"):
                    p.data -= 0.05 * p.grad
            if first is None:
                first = float(loss.data)
            last = float(loss.data)
        assert last < first


class TestDecoderOrder:
    """The decoder on ``[visible..., hidden...]`` against the raster-order
    decoder: embeddings and mask tokens placed by patch index, the blocks
    over all n positions, the hidden rows picked out afterwards."""

    @staticmethod
    def raster_order(params, encoded, mask, patches, cfg):
        p = {name: t.data for name, t in params.items()}
        rows = np.arange(encoded.shape[0])[:, None]
        x = np.empty((encoded.shape[0], mask.n_total, p["dec/pos"].shape[1]))
        x[rows, mask.visible] = encoded @ p["dec/embed/w"] + p["dec/embed/b"]
        x[rows, mask.hidden] = p["dec/mask_token"]
        x = Tensor(x + p["dec/pos"])
        for i in range(DECODER_LAYERS):
            x = transformer_block(x, params, f"dec/blk{i}", cfg.image.heads)
        x = ad.layer_norm(x, params["dec/ln_f/g"], params["dec/ln_f/b"])
        pred = ad.linear(x, params["dec/out/w"], params["dec/out/b"]).data[rows, mask.hidden]
        return pred, np.mean((pred - normalize_patches(patches)[rows, mask.hidden]) ** 2)

    @pytest.mark.parametrize("ratio", [0.5, 0.75])
    def test_matches_raster_order_decoder(self, ratio, monkeypatch):
        predictions = []
        mean_squared_error = ad.mean_squared_error

        def spy(pred, target):  # the hidden predictions the loss compares
            predictions.append(pred.data)
            return mean_squared_error(pred, target)

        with verification_mode():
            cfg = preset("tiny")
            params = init_params(cfg, seed=3, with_decoder=True)
            rng = np.random.default_rng(4)
            patches = patchify(rng.random((6, 32, 32, 3)), 8)
            mask = patch_masks_for_samples(16, ratio, 0, 0, np.arange(6))
            encoded = rng.standard_normal((6, mask.n_visible, cfg.image.width))
            with monkeypatch.context() as m:
                m.setattr(ad, "mean_squared_error", spy)
                loss = reconstruction_loss(params, Tensor(encoded), mask, patches, cfg)
            want_pred, want_loss = self.raster_order(params, encoded, mask, patches, cfg)
        [pred] = predictions
        assert pred.dtype == np.float64 and pred.shape == want_pred.shape
        assert pred.shape[1] == mask.hidden.shape[1] == 16 - mask.n_visible > 0
        assert np.max(np.abs(pred - want_pred)) <= 1e-9
        assert abs(float(loss.data) - want_loss) <= 1e-9
