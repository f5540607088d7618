"""Encoder behavior: sparse path degeneracy, positional lookups,
padding inertness, and configuration validation."""

import numpy as np
import pytest

from flip import autodiff as ad
from flip import masking
from flip.encoders import (
    INIT_STD,
    EncoderConfig,
    ImageTowerConfig,
    TextTowerConfig,
    encode_image,
    encode_text,
    _trunc_normal,
    init_params,
    param_shapes,
    patchify,
    preset,
)
from flip.errors import ConfigError, DimensionError
from flip.masking import PatchMask, full_mask, sample_patch_mask, sample_text_mask
from flip.tokenizer import SEQ_LEN, TokenizedBatch, tokenize_batch


@pytest.fixture(scope="module")
def tiny():
    cfg = preset("tiny")
    return cfg, init_params(cfg, seed=0)


def rand_images(n, rng=None):
    rng = rng or np.random.default_rng(0)
    return rng.random((n, 32, 32, 3)).astype(np.float32)


class TestInitDraws:
    @pytest.mark.parametrize("name", ["tiny", "small"])
    def test_trunc_normal_is_scipy_truncnorm_byte_for_byte(self, name):
        from scipy.stats import truncnorm
        cfg = preset(name)
        for seed in range(3):
            for with_decoder in (False, True):
                ours = masking.per_sample_rng(seed, masking.TAG_INIT, 0, 0)
                ref = masking.per_sample_rng(seed, masking.TAG_INIT, 0, 0)
                for pname, shape in param_shapes(cfg, with_decoder):
                    got = _trunc_normal(ours, shape)
                    want = truncnorm.rvs(-2.0, 2.0, scale=INIT_STD, size=shape, random_state=ref)
                    assert got.dtype == want.dtype and got.shape == want.shape, pname
                    assert got.tobytes() == want.tobytes(), pname


class TestPatchify:
    def test_desk_geometry(self):
        p = patchify(rand_images(2), 8)
        assert p.shape == (2, 16, 192)

    def test_paper_geometry(self):
        images = np.zeros((1, 224, 224, 3), dtype=np.float32)
        assert patchify(images, 16).shape == (1, 196, 768)

    def test_raster_order(self):
        images = np.zeros((1, 32, 32, 3), dtype=np.float32)
        images[0, 8:16, 16:24] = 1.0  # grid row 1, col 2 -> patch index 1*4+2
        p = patchify(images, 8)
        assert p[0, 6].sum() == 8 * 8 * 3
        assert p[0].sum() == p[0, 6].sum()

    def test_uint8_scaled_to_unit_float32(self):
        # bit-identical to scaling the whole images before patchifying
        images = np.random.default_rng(0).integers(0, 256, (2, 32, 32, 3), dtype=np.uint8)
        p = patchify(images, 8)
        assert p.dtype == np.float32
        assert p.tobytes() == patchify(images.astype(np.float32) / 255.0, 8).tobytes()
        floats = rand_images(2).astype(np.float64)
        assert patchify(floats, 8).dtype == np.float64
        assert np.array_equal(patchify(floats, 8)[0, 0], floats[0, :8, :8].reshape(-1))

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            patchify(rand_images(1), 5)


class TestEncoderConfig:
    def test_preset_geometries_match_reference_table(self):
        l = preset("L-like")
        assert (l.image.layers, l.image.width, l.image.heads) == (24, 1024, 16)
        assert (l.text.layers, l.text.width, l.text.heads) == (12, 768, 12)
        assert l.embed_dim == 768
        b = preset("B-like")
        assert (b.image.layers, b.image.width, b.embed_dim) == (12, 768, 512)
        h = preset("H-like")
        assert (h.image.layers, h.image.width, h.image.patch_size) == (32, 1280, 14)
        assert h.image.num_patches == 256

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("giant")

    def test_validation(self):
        with pytest.raises(ConfigError):
            EncoderConfig(
                image=ImageTowerConfig(2, 64, 4, 7, 32),
                text=TextTowerConfig(2, 64, 4),
                embed_dim=32,
            )
        with pytest.raises(ConfigError):
            EncoderConfig(
                image=ImageTowerConfig(2, 65, 4, 8, 32),
                text=TextTowerConfig(2, 64, 4),
                embed_dim=32,
            )


class TestEncodeImage:
    def test_ratio_zero_equals_dense_bit_for_bit(self, tiny):
        cfg, params = tiny
        patches = patchify(rand_images(4), 8)
        m = sample_patch_mask(16, 0.0, np.random.default_rng(5), batch_size=4)
        dense, _ = encode_image(patches, None, params, cfg)
        masked, _ = encode_image(patches, m, params, cfg)
        assert dense.data.tobytes() == masked.data.tobytes()

    def test_sequence_length_seen_by_blocks(self, tiny):
        cfg, params = tiny
        patches = patchify(rand_images(2), 8)
        m = sample_patch_mask(16, 0.5, np.random.default_rng(0), batch_size=2)
        pooled, tokens = encode_image(patches, m, params, cfg)
        assert tokens.shape == (2, 8, 64)
        assert pooled.shape == (2, 64)

    def test_visible_order_permutation_invariance(self, tiny):
        cfg, params = tiny
        patches = patchify(rand_images(3), 8)
        m = sample_patch_mask(16, 0.5, np.random.default_rng(2), batch_size=3)
        base = encode_image(patches, m, params, cfg)[0].data
        rng = np.random.default_rng(0)
        shuffled = PatchMask(
            ratio=m.ratio,
            visible=np.stack([rng.permutation(row) for row in m.visible]),
            hidden=m.hidden,
            n_total=16,
        )
        permuted = encode_image(patches, shuffled, params, cfg)[0].data
        assert np.allclose(base, permuted, atol=1e-5)

    def test_mask_config_mismatch(self, tiny):
        cfg, params = tiny
        patches = patchify(rand_images(1), 8)
        bad = full_mask(25, 1)
        with pytest.raises(DimensionError):
            encode_image(patches, bad, params, cfg)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_mask_batch_mismatch(self, tiny, rows):
        cfg, params = tiny
        patches = patchify(rand_images(8), 8)
        m = sample_patch_mask(16, 0.5, np.random.default_rng(1), batch_size=rows)
        with pytest.raises(DimensionError, match=f"patch mask holds {rows} rows for a batch of 8"):
            encode_image(patches, m, params, cfg)

    def test_wrong_patch_shape(self, tiny):
        cfg, params = tiny
        with pytest.raises(DimensionError):
            encode_image(np.zeros((1, 9, 192), dtype=np.float32), None, params, cfg)


class TestEncodeText:
    def test_ratio_zero_mask_equals_dense(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["a red circle", "a big blue square"])
        m = sample_text_mask(batch, 0.0, "random", np.random.default_rng(0))
        a = encode_text(batch, None, params, cfg)
        b = encode_text(batch, m, params, cfg)
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_mask_batch_mismatch(self, tiny, rows):
        cfg, params = tiny
        batch = tokenize_batch([f"a photo of a red circle {i}" for i in range(8)])
        m = sample_patch_mask(32, 0.5, np.random.default_rng(1), batch_size=rows)
        with pytest.raises(DimensionError, match=f"token mask holds {rows} rows for a batch of 8"):
            encode_text(batch, m, params, cfg)

    def test_batch_order_equivariance(self, tiny):
        cfg, params = tiny
        captions = ["a red circle", "a yellow cross", "the green triangle"]
        fwd = encode_text(tokenize_batch(captions), None, params, cfg).data
        rev = encode_text(tokenize_batch(captions[::-1]), None, params, cfg).data
        assert np.allclose(fwd, rev[::-1], atol=1e-6)

    def test_visible_padding_is_inert(self, tiny):
        # prioritized masking that keeps every valid token must reproduce
        # the dense embedding: surviving pads carry no influence
        cfg, params = tiny
        batch = tokenize_batch(["a photo of a small red circle"])
        dense = encode_text(batch, None, params, cfg).data
        for seed in (0, 1, 2):
            m = sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(seed))
            masked = encode_text(batch, m, params, cfg).data
            assert np.allclose(dense, masked, atol=1e-6)

    def test_all_padding_sample_is_finite(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["", "a red circle"])
        out = encode_text(batch, None, params, cfg)
        assert np.isfinite(out.data).all()

    def test_gradients_flow_through_masked_text(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["a red circle", "a blue square"])
        m = sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(0))
        for p in params.values():
            p.zero_grad()
        with ad.Graph() as g:
            out = encode_text(batch, m, params, cfg)
            g.backward(ad.sum_all(out))
        assert np.abs(params["txt/tok_emb"].grad).max() > 0

    @staticmethod
    def _encode_on_tape(batch, mask, params, cfg):
        """Pooled output and the widest sequence axis among 3-D tape activations."""
        with ad.Graph() as g:
            out = encode_text(batch, mask, params, cfg)
        return out.data, max(n.output.shape[1] for n in g.nodes if n.output.data.ndim == 3)

    def test_batch_runs_only_to_its_longest_caption(self, tiny):
        cfg, params = tiny
        captions = ["a photo of a small red circle", "a red circle", "a blue square"]
        batch = tokenize_batch(captions)
        assert batch.valid_lengths.tolist() == [7, 3, 3]
        out, widest = self._encode_on_tape(batch, None, params, cfg)
        assert widest == 7
        for row, caption in zip(out, captions):
            alone = encode_text(tokenize_batch([caption]), None, params, cfg).data[0]
            assert np.allclose(row, alone, atol=1e-6)

    def test_batch_with_empty_caption_runs_only_to_its_longest_caption(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["", "a red circle", "a photo of a small red circle"])
        out, widest = self._encode_on_tape(batch, None, params, cfg)
        assert widest == 7
        assert np.isfinite(out).all()

    def test_random_draw_without_valid_token_runs_only_to_last_valid_column(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["a red circle", "a photo of a small red circle", "the blue square"])
        m = sample_text_mask(batch, 0.5, "random", np.random.default_rng(33))
        is_valid = m.visible < batch.valid_lengths[:, None]
        assert is_valid.any(axis=1).tolist() == [False, True, True]
        v = int(np.flatnonzero(is_valid.any(axis=0)).max()) + 1
        assert v < m.n_visible
        out, widest = self._encode_on_tape(batch, m, params, cfg)
        assert widest == v
        assert np.isfinite(out).all()

        def alone(i, visible):
            one = TokenizedBatch(token_ids=batch.token_ids[i : i + 1],
                                 valid_lengths=batch.valid_lengths[i : i + 1])
            row = PatchMask(ratio=m.ratio, visible=visible, hidden=m.hidden[i : i + 1],
                            n_total=m.n_total)
            return encode_text(one, row, params, cfg).data[0]

        # the row without a valid token pools over the v columns the batch runs
        assert np.allclose(out[0], alone(0, m.visible[:1, :v]), atol=1e-6)
        for i in (1, 2):
            assert np.allclose(out[i], alone(i, m.visible[i : i + 1]), atol=1e-6)

    def test_batch_without_valid_token_keeps_full_width(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["", ""])
        out, widest = self._encode_on_tape(batch, None, params, cfg)
        assert widest == SEQ_LEN
        assert np.isfinite(out).all()

    def test_pos_rows_past_longest_caption_get_no_gradient(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["a photo of a small red circle", "a red circle"])
        m = sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(0))
        for p in params.values():
            p.zero_grad()
        with ad.Graph() as g:
            g.backward(ad.sum_all(encode_text(batch, m, params, cfg)))
        grad = params["txt/pos"].grad
        assert np.abs(grad[:7]).max() > 0
        assert not grad[7:].any()

    def test_unsorted_visible_rows_match_sorted(self, tiny):
        cfg, params = tiny
        batch = tokenize_batch(["a photo of a small red circle", "a red circle", "a blue square"])
        m = sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(0))
        rng = np.random.default_rng(1)
        shuffled = PatchMask(
            ratio=m.ratio,
            visible=np.stack([rng.permutation(row) for row in m.visible]),
            hidden=m.hidden,
            n_total=m.n_total,
        )
        base = encode_text(batch, m, params, cfg).data
        permuted = encode_text(batch, shuffled, params, cfg).data
        assert np.isfinite(permuted).all()
        assert np.allclose(base, permuted, atol=1e-5)

    @pytest.mark.parametrize("width", [SEQ_LEN - 1, SEQ_LEN + 1])
    def test_batch_width_must_be_the_tokenizers(self, tiny, width):
        cfg, params = tiny
        batch = TokenizedBatch(token_ids=np.ones((2, width), dtype=np.int64),
                               valid_lengths=np.full(2, width, dtype=np.int64))
        with pytest.raises(DimensionError, match=f"length {width} != the tokenizer's {SEQ_LEN}"):
            encode_text(batch, None, params, cfg)

    def test_zero_row_batch(self, tiny):
        cfg, params = tiny
        batch = TokenizedBatch(token_ids=np.zeros((0, SEQ_LEN), dtype=np.int64),
                               valid_lengths=np.zeros(0, dtype=np.int64))
        assert encode_text(batch, None, params, cfg).shape == (0, cfg.text.width)
