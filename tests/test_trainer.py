"""Schedule arithmetic, AdamW semantics, config/checkpoint round-trips,
and bit-exact determinism of the loop."""

import hashlib
import logging
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest

from flip import autodiff as ad
from flip import trainer
from flip.checkpoint import load_tensors, save_tensors
from flip.data import generate_dataset
from flip.errors import ConfigError, DataFormatError
from flip.objective import MAX_LOGIT_SCALE
from flip.tokenizer import tokenize_batch
from flip.trainer import (
    TrainConfig,
    adamw_step,
    effective_lr,
    init_train_state,
    load_config,
    load_encoder,
    load_state,
    lr_at,
    pretrain,
    save_config,
    save_state,
    scaled_config,
    train_step,
    unmasked_tune,
)


def desk_config(**kw):
    defaults = dict(
        base_lr=1e-3, batch_size=64, warmup_samples=128, total_samples=1280,
        mask_ratio=0.5, seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def write_wrapping_checkpoint(path):
    """A one-tensor checkpoint with dims (2**32 - 1, 2**32 - 1), whose
    product wraps in int64."""
    save_tensors(path, {"param/w": np.zeros((2, 2))})
    dims = b"param/w\x02" + struct.pack("<2I", 2, 2)
    path.write_bytes(path.read_bytes().replace(dims, b"param/w\x02" + b"\xff" * 8))


def first_step(state, images, captions):
    """``train_step`` on samples 0..b-1 of epoch 0, at the config's mask
    ratio and its schedule's lr after one batch."""
    b = len(captions)
    return train_step(state, images, tokenize_batch(captions), epoch=0,
                      sample_indices=np.arange(b), lr=lr_at(b, state.config),
                      mask_ratio=state.config.mask_ratio)


def set_grads(state, grads):
    """Give each parameter named in ``grads`` that gradient, the rest none,
    as a backward pass leaves them for ``adamw_step``."""
    for name, p in state.params.items():
        p.grad = grads.get(name)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.flipds"
    return generate_dataset(256, 3, path)


class TestLearningRate:
    def test_linear_scaling_reference_point(self):
        cfg = desk_config(base_lr=4e-6, batch_size=256, total_samples=512, warmup_samples=0)
        assert effective_lr(cfg) == 4e-6

    def test_linear_scaling_large_batch(self):
        cfg = TrainConfig(base_lr=4e-6, batch_size=65536, warmup_samples=0,
                          total_samples=65536)
        assert math.isclose(effective_lr(cfg), 1.024e-3, rel_tol=1e-12)

    def test_tuning_rate_reference(self):
        cfg = TrainConfig(base_lr=4e-8, batch_size=256, warmup_samples=0,
                          total_samples=512)
        assert effective_lr(cfg) == 4e-8

    def test_warmup_endpoints(self):
        cfg = desk_config(warmup_samples=100, total_samples=1000)
        assert lr_at(0, cfg) == 0.0
        assert math.isclose(lr_at(100, cfg), effective_lr(cfg), rel_tol=1e-12)
        assert lr_at(1000, cfg) == pytest.approx(0.0, abs=1e-18)

    def test_cosine_midpoint_is_half_peak(self):
        cfg = desk_config(warmup_samples=100, total_samples=1000)
        mid = (100 + 1000) // 2
        assert math.isclose(lr_at(mid, cfg), effective_lr(cfg) / 2, rel_tol=1e-9)

    def test_continuity_at_warmup_boundary(self):
        cfg = desk_config(warmup_samples=100, total_samples=1000)
        left = lr_at(99, cfg)
        right = lr_at(101, cfg)
        peak = lr_at(100, cfg)
        assert left <= peak and abs(right - peak) < 0.01 * peak

    def test_nonnegative_everywhere(self):
        cfg = desk_config(warmup_samples=100, total_samples=1000)
        assert all(lr_at(s, cfg) >= 0 for s in range(0, 1001, 7))

    def test_out_of_range_rejected(self):
        cfg = desk_config()
        with pytest.raises(ConfigError):
            lr_at(-1, cfg)
        with pytest.raises(ConfigError):
            lr_at(cfg.total_samples + 1, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(warmup_samples=100, total_samples=50)
        with pytest.raises(ConfigError, match="text_mask_policy"):
            TrainConfig(text_mask_policy="sometimes")
        for field in ("mask_ratio", "text_mask_ratio"):
            for bad in (-0.1, 1.0, 1.5):
                with pytest.raises(ConfigError, match=field):
                    TrainConfig(**{field: bad})
        # 0.97 of 16 patches and 0.99 of 32 tokens both round to no visible position
        for field, bad in (("mask_ratio", 0.97), ("text_mask_ratio", 0.99)):
            with pytest.raises(ConfigError, match=f"{field}: .*leaves no visible positions"):
                TrainConfig(**{field: bad})
        with pytest.raises(ConfigError, match="unknown preset"):
            TrainConfig(preset="giant")
        with pytest.raises(ConfigError, match="eval_every_samples"):
            TrainConfig(eval_every_samples=-64)
        with pytest.raises(ConfigError, match="warmup_samples"):
            TrainConfig(warmup_samples=-64, total_samples=640)
        # each of these used to poison or crash a run instead of refusing it
        for field in ("base_lr", "weight_decay", "rec_weight"):
            for bad in (-1e-3, math.nan, math.inf):
                with pytest.raises(ConfigError, match=field):
                    TrainConfig(**{field: bad})
        for bad in ((1.0, 0.95), (0.9, -0.1), (math.nan, 0.95), (0.9, math.inf)):
            with pytest.raises(ConfigError, match="betas"):
                TrainConfig(betas=bad)
        for bad in (-1, 2**48):
            with pytest.raises(ConfigError, match="seed"):
                TrainConfig(seed=bad)
        TrainConfig(base_lr=0.0, weight_decay=0.0, betas=(0.0, 0.0), seed=2**48 - 1)

    def test_file_round_trip(self, tmp_path):
        cfg = desk_config(text_mask_policy="random", text_mask_ratio=0.25,
                          rec_weight=0.5, seed=11, train_data="x.flipds")
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("base_lr 0.1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("line", [
        "batch_size = abc", "mask_ratio = half", "betas = 0.9", "betas = 0.9,0.95,0.99",
        "betas = 0.9,x",
    ])
    def test_malformed_value_names_line_and_key(self, tmp_path, line):
        path = tmp_path / "config.txt"
        path.write_text(f"# desk run\nseed = 3\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"config.txt:3: .*'{key}'"):
            load_config(path)


class TestAdamW:
    def _state(self, **kw):
        return init_train_state(desk_config(**kw))

    def test_zero_grads_no_decay_is_identity(self):
        state = self._state(weight_decay=0.0)
        before = {k: p.data.copy() for k, p in state.params.items()}
        grads = {k: np.zeros_like(p.data) for k, p in state.params.items()}
        set_grads(state, grads)
        assert adamw_step(state, lr=0.01)
        for k, p in state.params.items():
            assert np.array_equal(p.data, before[k])

    def test_first_step_closed_form(self):
        state = self._state(weight_decay=0.0)
        before = {k: p.data.copy() for k, p in state.params.items()}
        grads = {k: np.ones_like(p.data) for k, p in state.params.items()}
        lr = 1e-2
        set_grads(state, grads)
        adamw_step(state, lr=lr)
        for k, p in state.params.items():
            delta = p.data - before[k]
            assert np.allclose(delta, -lr, rtol=1e-5)

    def test_decoupled_decay_pure_shrink(self):
        state = self._state(weight_decay=0.2)
        before = {k: p.data.copy() for k, p in state.params.items()}
        grads = {k: np.zeros_like(p.data) for k, p in state.params.items()}
        lr = 0.05
        set_grads(state, grads)
        adamw_step(state, lr=lr)
        for k, p in state.params.items():
            expected = before[k] if k == "logit_scale" else before[k] * (1 - lr * 0.2)
            assert np.allclose(p.data, expected, rtol=1e-6), k

    def test_non_finite_gradient_aborts(self, caplog):
        state = self._state()
        before = {k: p.data.copy() for k, p in state.params.items()}
        grads = {k: np.zeros_like(p.data) for k, p in state.params.items()}
        grads["logit_scale"] = np.array([np.nan], dtype=np.float32)
        grads["txt/pos"][3, 5] = np.inf  # earlier in the arena than logit_scale
        set_grads(state, grads)
        with caplog.at_level(logging.ERROR, logger="flip.trainer"):
            assert not adamw_step(state, lr=0.1)
        assert state.aborted_steps == 1 and state.adam_t == 0
        assert "non-finite gradient in txt/pos at step 0" in caplog.text
        assert "logit_scale" not in caplog.text
        for k, p in state.params.items():
            assert np.array_equal(p.data, before[k])
            assert not state.adam_m[k].any() and not state.adam_v[k].any()

    def test_parameter_without_gradient_is_left_alone(self):
        state = self._state(weight_decay=0.2)
        before = state.params["img/pos"].data.copy()
        grads = {k: np.ones_like(p.data) for k, p in state.params.items() if k != "img/pos"}
        set_grads(state, grads)
        assert adamw_step(state, lr=0.05)
        assert np.array_equal(state.params["img/pos"].data, before)
        assert not state.adam_m["img/pos"].any() and not state.adam_v["img/pos"].any()


class TestTrainStep:
    def test_initial_loss_near_ln_b(self, tiny_dataset):
        # frozen band measured over fresh inits: ln B plus the spread the
        # 1/0.07 temperature induces on near-orthogonal random embeddings
        losses = []
        for seed in range(5):
            state = init_train_state(desk_config(seed=seed))
            bundle = first_step(state, tiny_dataset.images[:64], tiny_dataset.captions[:64])
            losses.append(bundle.total)
        ln_b = math.log(64)
        assert all(ln_b - 0.1 < x < ln_b + 0.8 for x in losses), losses

    def test_logit_scale_clamped_after_step(self, tiny_dataset):
        state = init_train_state(desk_config())
        state.params["logit_scale"].data[:] = math.log(MAX_LOGIT_SCALE) + 2.0
        first_step(state, tiny_dataset.images[:64], tiny_dataset.captions[:64])
        scale = float(state.params["logit_scale"].data[0])
        assert math.exp(scale) <= MAX_LOGIT_SCALE

    def test_mismatched_batch_rejected(self, tiny_dataset):
        state = init_train_state(desk_config())
        from flip.errors import DimensionError

        with pytest.raises(DimensionError):
            first_step(state, tiny_dataset.images[:4], tiny_dataset.captions[:3])

    def test_reconstruction_plumbed_through(self, tiny_dataset):
        state = init_train_state(desk_config(rec_weight=1.0))
        bundle = first_step(state, tiny_dataset.images[:64], tiny_dataset.captions[:64])
        assert bundle.reconstruction is not None
        assert bundle.total == pytest.approx(
            bundle.contrastive + state.config.rec_weight * bundle.reconstruction, rel=1e-6
        )

    def test_phase_tokenizes_captions_once(self, tiny_dataset, monkeypatch):
        calls = []

        def counting(captions, **kw):
            calls.append(len(captions))
            return tokenize_batch(captions, **kw)

        monkeypatch.setattr(trainer, "tokenize_batch", counting)
        pretrain(init_train_state(desk_config()), tiny_dataset, n_steps=3)
        assert calls == [len(tiny_dataset)]

    @pytest.mark.parametrize(
        "overrides, nodes",
        [
            (dict(mask_ratio=0.5), 63),
            (dict(mask_ratio=0.75, rec_weight=1.0, text_mask_policy="random"), 90),
            (dict(mask_ratio=0.0), 63),
        ],
        ids=["m50", "m75-rec", "m0"],
    )
    def test_tape_nodes_per_step(self, tiny_dataset, monkeypatch, overrides, nodes):
        # one tape node per fused linear / attention / mlp (8 per
        # transformer block, the residual adds ride in linear and mlp) and
        # one for the fused InfoNCE
        recorded = []
        backward = ad.Graph.backward

        def counting(graph, loss):
            recorded.append(len(graph.nodes))
            return backward(graph, loss)

        monkeypatch.setattr(ad.Graph, "backward", counting)
        state = init_train_state(desk_config(**overrides))
        first_step(state, tiny_dataset.images[:64], tiny_dataset.captions[:64])
        assert recorded == [nodes]

    def test_backward_copies_almost_no_gradient(self, tiny_dataset, monkeypatch):
        # backward rules hand their arrays over; only a contribution that
        # broadcasts (at m50, the image pool's) is copied into a fresh buffer
        copies = []
        accum = ad._accum

        def counting(t, g):
            first = t.grad is None
            accum(t, g)
            if first and t.grad is not g:
                copies.append(t.shape)

        monkeypatch.setattr(ad, "_accum", counting)
        state = init_train_state(desk_config())
        first_step(state, tiny_dataset.images[:64], tiny_dataset.captions[:64])
        assert len(copies) <= 2


class TestDeterminismAndCheckpoints:
    @pytest.mark.parametrize(
        "overrides",
        [dict(mask_ratio=0.5), dict(mask_ratio=0.75, rec_weight=1.0)],
        ids=["m50", "m75-rec"],
    )
    def test_text_branch_bit_identical_to_inline(self, tiny_dataset, monkeypatch, overrides):
        # The inline step runs each branch on the calling thread when its
        # result is taken, so its nodes are recorded at the same place on
        # the tape and walked in line by the same backward.
        def steps(state):
            out = []
            for lo in (0, 64, 128):
                bundle = first_step(state, tiny_dataset.images[lo : lo + 64],
                                    tiny_dataset.captions[lo : lo + 64])
                out.append((bundle, {k: p.grad.copy() for k, p in state.params.items()}))
            return out

        handed = []
        on_worker = ad.on_worker
        monkeypatch.setattr(ad, "on_worker",
                            lambda fn, *args: handed.append(fn) or on_worker(fn, *args))
        branched = init_train_state(desk_config(**overrides))
        got = steps(branched)
        assert len(handed) == 6  # each step's text forward and its backward
        inline = init_train_state(desk_config(**overrides))
        monkeypatch.setattr(ad.Graph, "branch", lambda graph, fn, *args: lambda: fn(*args))
        want = steps(inline)
        for (bundle, grads), (ref_bundle, ref_grads) in zip(got, want):
            assert bundle == ref_bundle
            assert bundle.reconstruction is not None or "rec_weight" not in overrides
            assert grads.keys() == ref_grads.keys()
            for k in grads:
                assert np.array_equal(grads[k], ref_grads[k]), k
        assert np.array_equal(branched._arena, inline._arena)

    def test_same_seed_bit_identical(self, tiny_dataset):
        def run():
            state = init_train_state(desk_config(total_samples=64 * 6))
            pretrain(state, tiny_dataset)
            return state

        a, b = run(), run()
        assert a.step == b.step == 6
        for k in a.params:
            assert a.params[k].data.tobytes() == b.params[k].data.tobytes(), k
            assert a.adam_m[k].tobytes() == b.adam_m[k].tobytes(), k

    def test_checkpoint_resume_bit_identical(self, tiny_dataset, tmp_path):
        cfg = desk_config(total_samples=64 * 6)
        straight = init_train_state(cfg)
        pretrain(straight, tiny_dataset)

        state = init_train_state(cfg)
        pretrain(state, tiny_dataset, n_steps=3)
        save_state(tmp_path / "mid.ckpt", state)
        resumed = load_state(tmp_path / "mid.ckpt", cfg)
        assert resumed.step == 3
        pretrain(resumed, tiny_dataset)

        for k in straight.params:
            assert straight.params[k].data.tobytes() == resumed.params[k].data.tobytes(), k
        assert straight.samples_seen == resumed.samples_seen

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_tensors(path, {"param/w": np.zeros(2)})
        before = path.read_bytes()
        with pytest.raises(ValueError):  # the second entry cannot be cast to float32
            save_tensors(path, {"param/w": np.ones(2), "param/bad": np.array(["x"])})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]  # no temp file left

    def test_checkpoint_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(DataFormatError):
            load_state(path, desk_config())
        with pytest.raises(DataFormatError):
            load_encoder(path)

    @pytest.mark.parametrize("geometry, reason", [
        ([4, 64, 4, 8, 32, 2, 64, 4, 32, 230], "not 11 integers"),  # 10 values
        ([4, 64, 4, 8, 32, 2, 64, 4, 32, 230, 0.5], "not 11 integers"),  # not an integer
        ([4, 64, 4, 8, 32, 2, 64, -4, 32, 230, 64], "not 11 integers"),  # not positive
        ([4, 64, 5, 8, 32, 2, 64, 4, 32, 230, 64], "not divisible by heads"),
        # far more layers than stored: the walk stops at the first missing entry
        ([2**24, 64, 4, 8, 32, 2**24, 64, 4, 32, 230, 64], "absent"),
        ([4, 64, 4, 8, 32, 2, 64, 4, 4, 6, 64], "not the tokenizer's"),  # text slots
        ([4, 64, 4, 8, 32, 2, 64, 4, 32, 49408, 64], "not the tokenizer's"),
    ], ids=["short", "fraction", "negative", "heads", "huge", "text-4-6", "text-32-49408"])
    def test_checkpoint_rejects_bad_geometry(self, tmp_path, geometry, reason):
        path = tmp_path / "geom.ckpt"
        save_tensors(path, {"meta/geometry": np.array(geometry, dtype=np.float32),
                            "param/w": np.zeros(2)})
        with pytest.raises(DataFormatError, match="geometry") as info:
            load_encoder(path)
        assert reason in str(info.value)

    def test_checkpoint_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_tensors(path, {"param/w": np.zeros(2)})
        raw = path.read_bytes()  # the u32 version follows the 8-byte magic
        path.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:])
        with pytest.raises(DataFormatError, match="unsupported checkpoint version 2"):
            load_tensors(path)

    def test_checkpoint_rejects_non_utf8_name(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_tensors(path, {"param/w": np.zeros(2)})
        path.write_bytes(path.read_bytes().replace(b"param/w", b"param/\xff"))
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_tensors(path)

    def test_checkpoint_rejects_wrapping_element_count(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_wrapping_checkpoint(path)
        with pytest.raises(DataFormatError, match="truncated"):
            load_tensors(path)

    @pytest.mark.parametrize("name, dims", [
        ("param/w", (0,) * 65),  # more dimensions than numpy allows
        ("param/w", (0, 2**32 - 1, 2**32 - 1)),  # a size that overflows, though nothing is stored
        ("m/w", (0,) * 65),  # a moment, which load_encoder does not read
    ], ids=["65-dims", "huge-empty", "moment-65-dims"])
    def test_checkpoint_rejects_shapes_numpy_cannot_hold(self, tmp_path, name, dims):
        path = tmp_path / "x.ckpt"
        save_tensors(path, {name: np.zeros(0)})
        path.write_bytes(path.read_bytes().replace(
            name.encode() + b"\x01" + struct.pack("<I", 0),
            name.encode() + struct.pack(f"<B{len(dims)}I", len(dims), *dims)))
        for read in (load_tensors, load_encoder):
            with pytest.raises(DataFormatError, match="numpy cannot hold"):
                read(path)

    def test_load_encoder_copies_no_moment(self, tmp_path):
        path = tmp_path / "x.ckpt"
        state = init_train_state(desk_config())
        save_state(path, state)
        param_bytes = sum(p.data.nbytes for p in state.params.values())
        tracemalloc.start()
        try:
            params, _ = load_encoder(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(p.data.nbytes for p in params.values()) == param_bytes
        # copies of both moments as well would add twice the parameters' bytes
        assert peak < path.stat().st_size + param_bytes

    @pytest.mark.parametrize("prefix", ["m/", "v/"])
    def test_load_encoder_refuses_a_truncated_moment(self, tmp_path, prefix):
        path = tmp_path / "x.ckpt"
        save_state(path, init_train_state(desk_config()))
        raw = path.read_bytes()
        name = f"{prefix}logit_scale"  # the last parameter: its moments end the file
        entry = struct.pack("<H", len(name)) + name.encode() + b"\x01" + struct.pack("<I", 1)
        path.write_bytes(raw[: raw.index(entry) + len(entry) + 2])  # 2 of its 4 data bytes
        with pytest.raises(DataFormatError, match=f"truncated tensor data for '{name}'"):
            load_encoder(path)

    def test_geometry_restored_without_config(self, tiny_dataset, tmp_path):
        state = init_train_state(desk_config(warmup_samples=0, total_samples=64))
        pretrain(state, tiny_dataset)
        save_state(tmp_path / "x.ckpt", state)
        # the 11 slots: image tower, text tower, the tokenizer's length and vocabulary, embedding
        geometry = load_tensors(tmp_path / "x.ckpt")["meta/geometry"]
        assert geometry.tolist() == [4, 64, 4, 8, 32, 2, 64, 4, 32, 230, 64]
        params, enc_cfg = load_encoder(tmp_path / "x.ckpt")
        assert enc_cfg == state.encoder_config
        assert params.keys() == state.params.keys()
        assert all(np.array_equal(params[k].data, p.data) for k, p in state.params.items())

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(preset="small"), "geometry"),
            (dict(seed=5), "seed"),
            (dict(rec_weight=1.0), "decoder"),
        ],
        ids=["preset", "seed", "no-decoder"],
    )
    def test_load_state_refuses_a_mismatched_config(self, tmp_path, overrides, message):
        save_state(tmp_path / "x.ckpt", init_train_state(desk_config()))
        with pytest.raises(ConfigError, match=message):
            load_state(tmp_path / "x.ckpt", desk_config(**overrides))


def state_sha256(state) -> str:
    """One digest over every parameter and both Adam moments."""
    h = hashlib.sha256()
    for name, p in state.params.items():
        for arr in (p.data, state.adam_m[name], state.adam_v[name]):
            h.update(arr.tobytes())
    return h.hexdigest()


class TestParameterArena:
    def test_pickle_round_trip_rebuilds_the_arena(self, tiny_dataset):
        # worker processes hand trained states back pickled; an unpickled
        # state must still update the arrays that the forward pass reads
        state = init_train_state(desk_config(mask_ratio=0.75, rec_weight=1.0))
        pretrain(state, tiny_dataset, n_steps=1)
        copy = pickle.loads(pickle.dumps(state))
        for name, p in copy.params.items():
            for arr in (p.data, copy.adam_m[name], copy.adam_v[name]):
                assert np.shares_memory(arr, copy._arena), name
        digests = []
        for st in (state, copy):
            before = state_sha256(st)
            pretrain(st, tiny_dataset, n_steps=3)
            unmasked_tune(st, tiny_dataset, tune_samples=128)
            digests.append(state_sha256(st))
            assert digests[-1] != before
        assert digests[0] == digests[1]

    def test_prioritized_text_mask_trains_like_none_on_desk_captions(self, tiny_dataset):
        # at ratio 0.5, 16 of 32 tokens stay visible and desk captions hold
        # at most 7 valid ones, so prioritized masking hides only padding
        assert tokenize_batch(tiny_dataset.captions).valid_lengths.max() <= 16
        digests = []
        for ratio in (0.5, 0.0):
            state = init_train_state(desk_config(text_mask_policy="prioritized",
                                                 text_mask_ratio=ratio))
            pretrain(state, tiny_dataset, n_steps=2)
            digests.append(hashlib.sha256(b"".join(
                p.data.tobytes() for p in state.params.values())).hexdigest())
        assert digests[0] == digests[1]


class TestGoldenLosses:
    """First per-step (contrastive, reconstruction) losses pinned. The
    determinism tests compare two runs of the same code; these catch a
    refactor that changes what a step computes."""

    GOLDEN = {
        "m50-prioritized": (
            dict(mask_ratio=0.5, text_mask_policy="prioritized"),
            [(3.930185079574585, None), (4.20341682434082, None),
             (3.5043230056762695, None)],
        ),
        "m75-rec-random": (
            dict(mask_ratio=0.75, rec_weight=1.0, text_mask_policy="random"),
            [(3.7937188148498535, 1.0080159902572632), (4.412652969360352, 1.0022190809249878),
             (3.616398334503174, 1.00821053981781)],
        ),
    }

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        return generate_dataset(128, 7, tmp_path_factory.mktemp("golden") / "g.flipds")

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_first_three_steps(self, dataset, name):
        overrides, expected = self.GOLDEN[name]
        cfg = TrainConfig(base_lr=4e-3, batch_size=32, warmup_samples=32,
                          total_samples=32 * 4, seed=1, **overrides)
        losses = []
        pretrain(init_train_state(cfg), dataset, n_steps=3,
                 on_step=lambda st, b: losses.append((b.contrastive, b.reconstruction)))
        for (con, rec), (want_con, want_rec) in zip(losses, expected, strict=True):
            assert con == pytest.approx(want_con, rel=1e-4)
            if want_rec is None:
                assert rec is None
            else:
                assert rec == pytest.approx(want_rec, rel=1e-4)


class TestDeskLearningSmoke:
    def test_loss_drops_below_ln_b_within_200_steps(self, tiny_dataset):
        cfg = desk_config(base_lr=4e-3, batch_size=32, warmup_samples=320,
                          total_samples=32 * 200)
        state = init_train_state(cfg)
        losses = []
        pretrain(state, tiny_dataset, on_step=lambda st, b: losses.append(b.total))
        floor = math.log(32)
        assert np.mean(losses[-20:]) < floor, f"{np.mean(losses[-20:])} !< {floor}"


class TestUnmaskedTune:
    def test_zero_samples_is_identity(self, tiny_dataset):
        state = init_train_state(desk_config())
        before = {k: p.data.copy() for k, p in state.params.items()}
        unmasked_tune(state, tiny_dataset, tune_samples=0)
        for k, p in state.params.items():
            assert np.array_equal(p.data, before[k])

    def test_default_duration_fraction(self, tiny_dataset):
        cfg = desk_config(total_samples=64 * 20)
        state = init_train_state(cfg)
        pretrain(state, tiny_dataset)
        unmasked_tune(state, tiny_dataset)
        extra = state.samples_seen - cfg.total_samples
        assert extra == int(0.05 * cfg.total_samples) // cfg.batch_size * cfg.batch_size

    def test_moments_reset_for_tuning(self, tiny_dataset):
        state = init_train_state(desk_config(total_samples=64 * 4))
        pretrain(state, tiny_dataset)
        assert state.adam_t == 4
        unmasked_tune(state, tiny_dataset, tune_samples=64)
        assert state.adam_t == 1  # fresh moments, one tuning step applied

    def test_decoder_untouched_when_not_trained(self, tiny_dataset):
        state = init_train_state(desk_config(mask_ratio=0.75, rec_weight=1.0))
        pretrain(state, tiny_dataset, n_steps=2)
        decoder = {k: p.data.copy() for k, p in state.params.items() if k.startswith("dec/")}
        encoder = {k: p.data.copy() for k, p in state.params.items() if k.startswith("img/")}
        unmasked_tune(state, tiny_dataset, tune_samples=128)
        assert decoder
        for k, before in decoder.items():
            assert np.array_equal(state.params[k].data, before), k
        assert any(not np.array_equal(state.params[k].data, v) for k, v in encoder.items())

    def test_no_reconstruction_when_nothing_is_hidden(self, tiny_dataset):
        state = init_train_state(desk_config(mask_ratio=0.75, rec_weight=1.0))
        bundles = []
        unmasked_tune(state, tiny_dataset, tune_samples=128,
                      on_step=lambda st, b: bundles.append(b))
        assert [b.reconstruction for b in bundles] == [None, None]
        assert all(b.total == b.contrastive for b in bundles)

    def test_ratio_that_hides_no_patch_skips_reconstruction(self, tiny_dataset, caplog):
        # round(0.97 * 16) keeps all 16 patches of the tiny preset
        state = init_train_state(desk_config(mask_ratio=0.03, rec_weight=1.0))
        with caplog.at_level(logging.WARNING):
            bundle = first_step(state, tiny_dataset.images[:64], tiny_dataset.captions[:64])
        assert bundle.reconstruction is None
        assert bundle.total == bundle.contrastive
        assert not caplog.records


class TestScalingAxes:
    def test_schedule_axis_doubles_samples(self, tmp_path):
        base = desk_config(train_data="unused.flipds")
        out = scaled_config(base, "schedule", tmp_path)
        assert out.total_samples == 2 * base.total_samples
        assert out.preset == base.preset

    def test_model_axis_upgrades_preset(self, tmp_path):
        base = desk_config(train_data="unused.flipds")
        out = scaled_config(base, "model", tmp_path)
        assert out.preset == "small"
        assert out.total_samples == base.total_samples

    def test_data_axis_doubles_dataset_fixed_schedule(self, tmp_path, tiny_dataset):
        from flip.data import read_dataset, write_dataset

        train_path = tmp_path / "train.flipds"
        write_dataset(train_path, tiny_dataset)
        base = desk_config(train_data=str(train_path))
        out = scaled_config(base, "data", tmp_path)
        assert out.total_samples == base.total_samples  # identical step budget
        assert len(read_dataset(out.train_data)) == 2 * len(tiny_dataset)

    def test_unknown_axis(self, tmp_path):
        with pytest.raises(ConfigError):
            scaled_config(desk_config(), "width", tmp_path)
