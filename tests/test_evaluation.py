"""Evaluation-side tests: prompts, class embeddings, classification,
retrieval, linear probe, inference modes."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flip.data import CLASS_NAMES, Dataset, make_record
from flip.encoders import init_params, preset
from flip.errors import ConfigError
from flip import evaluation
from flip.autodiff import Graph, on_worker
from flip.evaluation import (
    EVAL_BATCH,
    IMAGE_CHUNK,
    EvalReport,
    PromptSet,
    class_embeddings,
    desk_prompts,
    embed_images,
    embed_texts,
    eval_inference_modes,
    linear_probe,
    recall_at_k,
    zero_shot_classify,
)


@pytest.fixture(scope="module")
def tiny():
    cfg = preset("tiny")
    return cfg, init_params(cfg, seed=1)


@pytest.fixture(scope="module")
def small_dataset():
    images = np.stack([make_record(0, i)[0] for i in range(32)])
    captions = [make_record(0, i)[1] for i in range(32)]
    return Dataset(images=images, captions=captions)


class TestPromptSet:
    def test_desk_prompts_shape(self):
        p = desk_prompts()
        assert len(p.templates) == 7
        assert len(p.classes) == 16

    def test_placeholder_validation(self):
        with pytest.raises(ConfigError):
            PromptSet(templates=("a photo of {} and {}",), classes=("x",))
        with pytest.raises(ConfigError):
            PromptSet(templates=("no placeholder",), classes=("x",))
        with pytest.raises(ConfigError):
            PromptSet(templates=(), classes=("x",))


class TestClassEmbeddings:
    def test_single_template_is_its_embedding(self, tiny):
        cfg, params = tiny
        one = PromptSet(templates=("a photo of a {}.",), classes=("red circle",))
        from flip.evaluation import embed_texts

        direct = embed_texts(params, cfg, ["a photo of a red circle."])
        via = class_embeddings(one.classes, one, params, cfg)
        assert np.allclose(direct, via, atol=1e-6)

    def test_duplicate_templates_match_single(self, tiny):
        cfg, params = tiny
        single = PromptSet(templates=("an image of a {}.",), classes=("blue cross",))
        doubled = PromptSet(templates=("an image of a {}.",) * 2, classes=("blue cross",))
        a = class_embeddings(single.classes, single, params, cfg)
        b = class_embeddings(doubled.classes, doubled, params, cfg)
        assert np.allclose(a, b, atol=1e-6)

    def test_rows_unit_norm(self, tiny):
        cfg, params = tiny
        emb = class_embeddings(CLASS_NAMES, desk_prompts(), params, cfg)
        assert emb.shape == (16, cfg.embed_dim)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-5)

    def test_template_order_invariance(self, tiny):
        cfg, params = tiny
        fwd = desk_prompts()
        rev = PromptSet(templates=fwd.templates[::-1], classes=fwd.classes)
        a = class_embeddings(fwd.classes, fwd, params, cfg)
        b = class_embeddings(rev.classes, rev, params, cfg)
        assert np.allclose(a, b, atol=1e-6)


class TestZeroShot:
    def test_identity_when_classes_are_the_queries(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((8, 16))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        assert np.array_equal(zero_shot_classify(emb, emb), np.arange(8))

    def test_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((20, 6))
        cls = rng.standard_normal((5, 6))
        base = zero_shot_classify(img, cls)
        assert np.array_equal(base, zero_shot_classify(img * 17.0, cls))

    def test_tie_breaks_to_lowest_index(self):
        img = np.array([[1.0, 0.0]])
        cls = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert zero_shot_classify(img, cls)[0] == 0


class TestEmbedImages:
    def test_uint8_chunks_match_scaled_float_input(self, tiny):
        # more images than one chunk, so the per-chunk scaling crosses a
        # chunk boundary
        cfg, params = tiny
        rng = np.random.default_rng(4)
        size = cfg.image.image_size
        images = rng.integers(0, 256, size=(IMAGE_CHUNK + 5, size, size, 3), dtype=np.uint8)
        scaled = images.astype(np.float32) / 255.0
        assert np.array_equal(embed_images(params, cfg, images),
                              embed_images(params, cfg, scaled))

    def test_chunk_size_does_not_change_embeddings(self, tiny, monkeypatch):
        from flip.masking import complementary_views, sample_patch_mask

        cfg, params = tiny
        n, size = 150, cfg.image.image_size
        images = np.random.default_rng(5).integers(0, 256, size=(n, size, size, 3), dtype=np.uint8)
        n_patches = cfg.image.num_patches
        masks = [None, sample_patch_mask(n_patches, 0.5, np.random.default_rng(6), batch_size=n),
                 *complementary_views(n_patches, 0.75, np.random.default_rng(7), batch_size=n)]
        by_chunk = {}
        for chunk in (32, 64, 128):
            monkeypatch.setattr(evaluation, "IMAGE_CHUNK", chunk)
            by_chunk[chunk] = [embed_images(params, cfg, images, mask=m).tobytes() for m in masks]
        assert by_chunk[32] == by_chunk[64] == by_chunk[128]

    def test_inference_modes_activations_stay_at_most_one_mib(self, tiny, monkeypatch):
        # the widest activation of a tiny forward is the GELU input; a
        # full-view chunk of 128 images makes it 2**19 float32 elements,
        # and masked chunks of 64 (ratio 0.5) or 128 (0.75) images hold
        # no more rows than a full-view chunk of 32
        from flip import autodiff

        cfg, params = tiny
        images = np.stack([make_record(1, i)[0] for i in range(200)])
        captions = [make_record(1, i)[1] for i in range(200)]
        sizes = []
        gelu_forward = autodiff._gelu_forward

        def recording_gelu_forward(x, out, e):
            sizes.append(x.size)
            return gelu_forward(x, out, e)

        monkeypatch.setattr(autodiff, "_gelu_forward", recording_gelu_forward)
        for ratio in (0.5, 0.75):
            sizes.clear()
            eval_inference_modes(params, cfg, Dataset(images=images, captions=captions), ratio=ratio)
            assert sizes and max(sizes) <= 2**18, ratio

    @pytest.mark.parametrize("ratio, masked", [
        # 200 images: full views go 32 per forward; the masked view and
        # the 2 complementary views at ratio 0.5 go 64, the masked view
        # and the 4 complementary views at 0.75 go 128, each view with a
        # last short forward
        (0.5, {(64, 8): 9, (8, 8): 3}),
        (0.75, {(128, 4): 5, (72, 4): 5}),
    ])
    def test_masked_forwards_hold_the_rows_of_a_full_view_chunk(self, tiny, monkeypatch,
                                                                 ratio, masked):
        from collections import Counter

        cfg, params = tiny
        n_patches = cfg.image.num_patches
        assert IMAGE_CHUNK == 32 and n_patches == 16
        images = np.stack([make_record(1, i)[0] for i in range(200)])
        captions = [make_record(1, i)[1] for i in range(200)]
        calls = []
        encode = evaluation.encode_image

        def recording(patches, mask, *args):
            calls.append((patches.shape[0], n_patches if mask is None else mask.n_visible))
            return encode(patches, mask, *args)

        monkeypatch.setattr(evaluation, "encode_image", recording)
        eval_inference_modes(params, cfg, Dataset(images=images, captions=captions), ratio=ratio)
        assert Counter(calls) == Counter({(32, 16): 6, (8, 16): 1, **masked})
        assert max(b * v for b, v in calls) == IMAGE_CHUNK * n_patches

    @pytest.mark.parametrize("rows", [1, 3])
    def test_mask_batch_mismatch(self, tiny, rows):
        from flip.errors import DimensionError
        from flip.masking import sample_patch_mask

        cfg, params = tiny
        images = np.zeros((8, cfg.image.image_size, cfg.image.image_size, 3), np.uint8)
        m = sample_patch_mask(cfg.image.num_patches, 0.5, np.random.default_rng(0), batch_size=rows)
        with pytest.raises(DimensionError, match=f"patch mask holds {rows} rows for a batch of 8"):
            embed_images(params, cfg, images, mask=m)

    def test_zero_rows_embed_to_an_empty_matrix(self, tiny):
        cfg, params = tiny
        images = np.zeros((0, cfg.image.image_size, cfg.image.image_size, 3), np.uint8)
        for emb in (embed_images(params, cfg, images), embed_texts(params, cfg, [])):
            assert emb.shape == (0, cfg.embed_dim) and emb.dtype == np.float32


class Boom(Exception):
    pass


class TestTwoThreads:
    @staticmethod
    def embed_all(params, cfg, images, mask, captions):
        return (embed_images(params, cfg, images), embed_images(params, cfg, images, mask=mask),
                embed_texts(params, cfg, captions))

    def test_two_threads_match_a_call_run_on_the_worker(self, tiny, monkeypatch):
        from flip.masking import sample_patch_mask

        cfg, params = tiny
        n = 3 * IMAGE_CHUNK + 5
        size = cfg.image.image_size
        images = np.random.default_rng(8).integers(0, 256, size=(n, size, size, 3), dtype=np.uint8)
        mask = sample_patch_mask(cfg.image.num_patches, 0.5, np.random.default_rng(9), batch_size=n)
        captions = [make_record(3, i)[1] for i in range(3 * EVAL_BATCH + 5)]
        threads = []

        def recording(encode):
            def call(*args):
                threads.append(threading.current_thread())
                return encode(*args)
            return call

        for name in ("encode_image", "encode_text"):
            monkeypatch.setattr(evaluation, name, recording(getattr(evaluation, name)))

        # Inside a branch every call is on the worker, which runs its own
        # half inline; a call that queued it would wait for itself.
        def on_the_worker():
            with Graph() as g:
                return g.branch(self.embed_all, params, cfg, images, mask, captions)()

        want = []
        caller = threading.Thread(target=lambda: want.extend(on_the_worker()), daemon=True)
        caller.start()
        caller.join(timeout=300)  # a guard only
        assert not caller.is_alive(), "a call on the worker waited for the worker"
        assert len(want) == 3 and len(set(threads)) == 1
        worker = threads[0]
        threads.clear()
        got = self.embed_all(params, cfg, images, mask, captions)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert set(threads) == {threading.current_thread(), worker}

    def test_error_on_the_worker_reaches_the_caller(self, tiny, monkeypatch):
        cfg, params = tiny
        size = cfg.image.image_size
        images = np.random.default_rng(10).integers(0, 256, size=(3 * IMAGE_CHUNK, size, size, 3),
                                                    dtype=np.uint8)
        want = embed_images(params, cfg, images)
        caller = threading.current_thread()
        encode = evaluation.encode_image

        def fail_on_the_worker(*args):
            if threading.current_thread() is not caller:
                raise Boom("chunk on the worker")
            return encode(*args)

        monkeypatch.setattr(evaluation, "encode_image", fail_on_the_worker)
        with pytest.raises(Boom, match="chunk on the worker"):
            embed_images(params, cfg, images)
        monkeypatch.undo()
        assert embed_images(params, cfg, images).tobytes() == want.tobytes()

    def test_caller_error_waits_for_the_worker_half(self, tiny, monkeypatch):
        cfg, params = tiny
        size = cfg.image.image_size
        images = np.zeros((2 * IMAGE_CHUNK, size, size, 3), np.uint8)
        caller = threading.current_thread()
        started, release, finished = threading.Event(), threading.Event(), []
        encode = evaluation.encode_image

        def held_or_failing(*args):
            if threading.current_thread() is caller:
                started.wait(timeout=30)  # a guard only
                release.set()
                raise Boom("chunk on the caller")
            started.set()
            release.wait(timeout=30)  # a guard only
            out = encode(*args)
            finished.append(True)
            return out

        monkeypatch.setattr(evaluation, "encode_image", held_or_failing)
        with pytest.raises(Boom, match="chunk on the caller"):
            embed_images(params, cfg, images)
        assert finished == [True]  # the worker's half ended before the error left


class TestRecallTwoThreads:
    """``recall_at_k`` ranks its query blocks as the embeds run their
    chunks: the even ones on the caller, the odd ones on the worker."""

    @staticmethod
    def held_queries(hook):
        """Queries of three blocks whose ``hook`` runs as each block is sliced."""

        class Rows(np.ndarray):
            def __getitem__(self, key):
                hook()
                return np.asarray(self)[key]

        rng = np.random.default_rng(11)
        return rng.standard_normal((3 * EVAL_BATCH, 8)).view(Rows), rng.standard_normal((50, 8))

    def test_error_on_the_worker_waits_for_the_caller_half(self):
        caller = threading.current_thread()
        raised, finished = threading.Event(), []

        def hook():
            if threading.current_thread() is not caller:
                raised.set()
                raise Boom("block on the worker")
            raised.wait(timeout=30)  # a guard only
            finished.append(True)

        q, g = self.held_queries(hook)
        with pytest.raises(Boom, match="block on the worker"):
            recall_at_k(q, g, np.arange(q.shape[0]) % 50, 5)
        assert finished == [True, True]  # both of the caller's blocks ran first
        assert on_worker(threading.current_thread).result(timeout=30) is not caller
        plain = np.asarray(q)
        assert recall_at_k(plain, g, np.arange(q.shape[0]) % 50, 5) == argsort_recall(
            plain, g, np.arange(q.shape[0]) % 50, 5)

    def test_caller_error_waits_for_the_worker_half(self):
        caller = threading.current_thread()
        started, release, finished = threading.Event(), threading.Event(), []

        def hook():
            if threading.current_thread() is caller:
                started.wait(timeout=30)  # a guard only
                release.set()
                raise Boom("block on the caller")
            started.set()
            release.wait(timeout=30)  # a guard only
            finished.append(True)

        q, g = self.held_queries(hook)
        with pytest.raises(Boom, match="block on the caller"):
            recall_at_k(q, g, np.arange(q.shape[0]) % 50, 5)
        assert finished == [True]  # the worker's block ended before the error left
        assert on_worker(threading.current_thread).result(timeout=30) is not caller


class TestRecall:
    def test_gallery_equals_queries(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((10, 8))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        assert recall_at_k(e, e, np.arange(10), 1) == 1.0

    def test_adversarial_distractor(self):
        q = np.array([[1.0, 0.0]])
        gallery = np.array([[0.0, 1.0], [1.0, 0.0]])  # true match is index 0
        assert recall_at_k(q, gallery, [0], 1) == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((30, 6))
        g = rng.standard_normal((40, 6))
        truth = rng.integers(0, 40, size=30)
        values = [recall_at_k(q, g, truth, k) for k in (1, 5, 10, 40)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_k_beyond_gallery(self):
        with pytest.raises(ConfigError):
            recall_at_k(np.ones((2, 3)), np.ones((4, 3)), [0, 1], 5)
        for k in (0, -1):
            with pytest.raises(ConfigError, match="k must be >= 1"):
                recall_at_k(np.ones((2, 3)), np.ones((4, 3)), [0, 1], k)

    def test_query_blocks_match_whole_ranking(self):
        # more queries than one block, and rounded embeddings so that ties
        # (broken by gallery index) cross the block boundaries
        rng = np.random.default_rng(3)
        q = np.round(rng.standard_normal((EVAL_BATCH * 2 + 37, 4)), 1)
        g = np.round(rng.standard_normal((90, 4)), 1)
        truth = rng.integers(0, 90, size=q.shape[0])
        for k in (1, 3, 20):
            assert recall_at_k(q, g, truth, k) == argsort_recall(q, g, truth, k)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_rank_count_matches_stable_argsort(self, data):
        # integer-valued embeddings: exact scores and many ties
        n = data.draw(st.integers(1, EVAL_BATCH + 40), label="queries")
        m = data.draw(st.integers(1, 40), label="gallery")
        d = data.draw(st.integers(1, 4), label="dim")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        q = np.round(rng.standard_normal((n, d)) * 2).astype(dtype)
        g = np.round(rng.standard_normal((m, d)) * 2).astype(dtype)
        truth = rng.integers(0, m, size=n)
        k = data.draw(st.integers(1, m), label="k")
        assert recall_at_k(q, g, truth, k) == argsort_recall(q, g, truth, k)

    def test_nan_scores_rank_last_as_in_argsort(self):
        rng = np.random.default_rng(5)
        q = np.round(rng.standard_normal((20, 3)))
        g = np.round(rng.standard_normal((12, 3)))
        q[3], g[[2, 7]] = np.nan, np.nan
        truth = rng.integers(0, 12, size=20)
        truth[:2] = 7  # true matches that score NaN
        for k in (1, 4, 12):
            assert recall_at_k(q, g, truth, k) == argsort_recall(q, g, truth, k)

    @pytest.mark.parametrize("truth", [[0, 4], [-1, 0]])
    def test_truth_outside_gallery(self, truth):
        with pytest.raises(ConfigError, match="ground truth"):
            recall_at_k(np.ones((2, 3)), np.ones((4, 3)), truth, 1)


def argsort_recall(q, g, truth, k):
    """The ranking by definition: a stable argsort of negated scores."""
    order = np.argsort(-(q @ g.T), axis=1, kind="stable")
    return float(np.mean((order[:, :k] == np.asarray(truth)[:, None]).any(axis=1)))


class TestLinearProbe:
    def test_separable_features_reach_one(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 100)
        feats = rng.standard_normal((200, 4)) * 0.1
        feats[:, 0] += np.where(labels == 0, 2.0, -2.0)
        _, acc = linear_probe(feats, labels)
        assert acc == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(1)
        k = 4
        n = 2000
        feats = rng.standard_normal((n, 6))
        labels = rng.integers(0, k, size=n)
        _, acc = linear_probe(feats, labels)
        # 3 sigma binomial band around chance on the held-out fifth
        sigma = np.sqrt(0.25 * 0.75 / (n * 0.2))
        assert abs(acc - 1.0 / k) < 3 * sigma + 0.02

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            linear_probe(np.ones((10, 3)), np.zeros(10, dtype=int))


class TestInferenceModes:
    def test_three_reports_structure(self, tiny, small_dataset):
        cfg, params = tiny
        reports = eval_inference_modes(params, cfg, small_dataset, ratio=0.5)
        assert [r.mode for r in reports] == ["full", "masked", "ensemble"]
        for r in reports:
            assert 0.0 <= r.value <= 1.0
            assert r.metric == "zero_shot_acc"

    @pytest.mark.parametrize("ratio", [0.6, 0.97])
    def test_ratio_refused_before_any_embedding(self, tiny, small_dataset, monkeypatch, ratio):
        cfg, params = tiny
        calls = []
        for name in ("embed_images", "class_embeddings"):
            monkeypatch.setattr(evaluation, name, lambda *a, name=name, **k: calls.append(name))
        with pytest.raises(ConfigError, match="integer view count"):
            eval_inference_modes(params, cfg, small_dataset, ratio=ratio)
        assert calls == []

    def test_report_json_fields(self):
        rep = EvalReport(metric="zero_shot_acc", value=0.5, mode="full", config="abc")
        import json

        decoded = json.loads(rep.to_json())
        assert set(decoded) == {"metric", "value", "mode", "config"}

    def test_ensemble_views_cover_every_patch(self, tiny, small_dataset):
        from flip.masking import complementary_views

        views = complementary_views(16, 0.75, np.random.default_rng(0), batch_size=4)
        stacked = np.sort(np.concatenate([v.visible for v in views], axis=1), axis=1)
        assert np.array_equal(stacked, np.tile(np.arange(16), (4, 1)))

    def test_ratio_zero_ensemble_equals_full(self, tiny, small_dataset):
        cfg, params = tiny
        reports = eval_inference_modes(params, cfg, small_dataset, ratio=0.0)
        full, masked, ensemble = reports
        assert ensemble.value == full.value == masked.value

    def test_ensemble_embedding_unit_norm(self, tiny, small_dataset):
        from flip.evaluation import _renormalize
        from flip.masking import complementary_views

        cfg, params = tiny
        n = len(small_dataset)
        views = complementary_views(16, 0.5, np.random.default_rng(0), batch_size=n)
        acc = np.zeros((n, cfg.embed_dim))
        for vm in views:
            acc += _renormalize(embed_images(params, cfg, small_dataset.images, mask=vm))
        emb = _renormalize(acc / len(views))
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-5)
