"""Mask sampling invariants: counts, uniqueness, partitions, and the
prioritized text policy."""

import re
import warnings

import numpy as np
import pytest

from flip import masking
from flip.errors import ConfigError
from flip.tokenizer import TokenizedBatch


def make_batch(valid_len, batch_size=1, length=32):
    ids = np.zeros((batch_size, length), dtype=np.int64)
    ids[:, :valid_len] = 5
    valid = np.full(batch_size, valid_len, dtype=np.int64)
    return TokenizedBatch(token_ids=ids, valid_lengths=valid)


def assert_mask_invariants(mask):
    n = mask.n_total
    for b in range(mask.batch_size):
        vis, hid = mask.visible[b], mask.hidden[b]
        combined = np.concatenate([vis, hid])
        assert np.unique(vis).size == vis.size
        assert np.array_equal(np.sort(combined), np.arange(n))


class TestPatchMask:
    def test_ratio_zero_all_visible(self):
        m = masking.sample_patch_mask(16, 0.0, np.random.default_rng(0), batch_size=3)
        assert m.n_visible == 16
        assert np.array_equal(m.visible, np.tile(np.arange(16), (3, 1)))

    def test_paper_ratio_arithmetic(self):
        m = masking.sample_patch_mask(196, 0.75, np.random.default_rng(0))
        assert m.n_visible == 49

    def test_fixed_seed_repeatable(self):
        a = masking.sample_patch_mask(16, 0.5, np.random.default_rng(7))
        b = masking.sample_patch_mask(16, 0.5, np.random.default_rng(7))
        assert a.n_visible == 8
        assert np.array_equal(a.visible, b.visible)

    def test_invariants_over_many_draws(self):
        rng = np.random.default_rng(3)
        for ratio in (0.25, 0.5, 0.75):
            m = masking.sample_patch_mask(16, ratio, rng, batch_size=200)
            assert_mask_invariants(m)

    def test_ratio_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            masking.sample_patch_mask(16, 1.0, rng)
        with pytest.raises(ConfigError):
            masking.sample_patch_mask(16, -0.1, rng)

    def test_counter_seeding_order_independent(self):
        a = masking.patch_masks_for_samples(16, 0.5, 9, epoch=2, sample_indices=[4, 9])
        b = masking.patch_masks_for_samples(16, 0.5, 9, epoch=2, sample_indices=[9, 4])
        assert np.array_equal(a.visible[0], b.visible[1])
        assert np.array_equal(a.visible[1], b.visible[0])


class TestComplementaryViews:
    def test_two_views_partition(self):
        views = masking.complementary_views(16, 0.5, np.random.default_rng(0))
        assert len(views) == 2 and all(v.n_visible == 8 for v in views)
        union = np.sort(np.concatenate([v.visible[0] for v in views]))
        assert np.array_equal(union, np.arange(16))

    def test_four_views_partition_196(self):
        views = masking.complementary_views(196, 0.75, np.random.default_rng(0))
        assert len(views) == 4 and all(v.n_visible == 49 for v in views)

    def test_partition_property_over_seeds(self):
        for seed in range(100):
            views = masking.complementary_views(16, 0.75, np.random.default_rng(seed))
            union = np.sort(np.concatenate([v.visible[0] for v in views]))
            assert np.array_equal(union, np.arange(16))

    def test_non_integer_view_count_rejected(self):
        with pytest.raises(ConfigError):
            masking.complementary_views(16, 0.6, np.random.default_rng(0))

    def test_view_count(self):
        for n, ratio, k in ((16, 0.0, 1), (16, 0.5, 2), (196, 0.75, 4)):
            assert masking.view_count(n, ratio) == k
        for n, ratio, message in ((16, 0.6, "integer view count"), (16, 0.97, "integer view count"),
                                  (10, 0.75, "do not evenly partition"), (16, 1.0, "[0, 1)")):
            with pytest.raises(ConfigError, match=re.escape(message)):
                masking.view_count(n, ratio)

    def test_ratio_zero_single_view(self):
        views = masking.complementary_views(16, 0.0, np.random.default_rng(0))
        assert len(views) == 1
        assert np.array_equal(views[0].visible[0], np.arange(16))


class TestTextMask:
    def test_prioritized_rule_exact(self):
        # 20 valid + 12 pads, mask 16: all 12 pads + 4 valid masked
        batch = make_batch(20)
        m = masking.sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(0))
        assert m.n_visible == 16
        hidden = m.hidden[0]
        assert np.isin(np.arange(20, 32), hidden).all()  # every pad masked
        assert (m.visible[0] < 20).all()  # survivors are all valid tokens
        assert (hidden < 20).sum() == 4

    def test_prioritized_never_prefers_valid(self):
        # pads >= mask count: no valid token may be masked
        batch = make_batch(10)  # 22 pads, mask count 16
        for seed in range(50):
            m = masking.sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(seed))
            assert (m.hidden[0] >= 10).all()

    def test_random_policy_expectation(self):
        # uniform masking of 16/32 positions hits ~10 of 20 valid tokens
        batch = make_batch(20)
        total = 0
        for seed in range(1000):
            m = masking.sample_text_mask(batch, 0.5, "random", np.random.default_rng(seed))
            total += (m.hidden[0] < 20).sum()
        assert abs(total / 1000 - 10.0) < 1.0

    def test_prioritized_dominates_random_survival(self):
        batch = make_batch(20)
        wins = strict = 0
        trials = 1000
        agg_p = agg_r = 0
        for seed in range(trials):
            mp = masking.sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(seed))
            mr = masking.sample_text_mask(batch, 0.5, "random", np.random.default_rng(seed))
            sp = (mp.visible[0] < 20).sum()
            sr = (mr.visible[0] < 20).sum()
            agg_p += sp
            agg_r += sr
            wins += sp >= sr
            strict += sp > sr
        assert wins >= 0.95 * trials
        assert agg_p > agg_r

    def test_unknown_policy(self):
        for policy in ("sometimes", "none"):  # no masking is ratio 0, not a policy
            with pytest.raises(ConfigError, match="text_mask_policy"):
                masking.sample_text_mask(make_batch(5), 0.5, policy, np.random.default_rng(0))
            with pytest.raises(ConfigError, match="text_mask_policy"):
                masking.text_masks_for_samples(make_batch(5), 0.5, policy, 0, 0, [0])

    def test_invariants(self):
        batch = make_batch(20, batch_size=50)
        m = masking.sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(1))
        assert_mask_invariants(m)


def make_ragged_batch():
    """Three length-8 rows with 3, 6 and 8 valid tokens."""
    ids = np.zeros((3, 8), dtype=np.int64)
    valid = np.array([3, 6, 8], dtype=np.int64)
    for b, n in enumerate(valid):
        ids[b, :n] = 5
    return TokenizedBatch(token_ids=ids, valid_lengths=valid)


class TestGoldenDraws:
    """Visible indices pinned so a sampler rewrite cannot change any draw."""

    def test_patch_masks_for_samples(self):
        m = masking.patch_masks_for_samples(16, 0.75, 11, 2, [4, 9, 0])
        assert m.visible.tolist() == [[7, 8, 11, 15], [1, 4, 12, 15], [2, 10, 11, 13]]

    def test_text_masks_for_samples(self):
        batch = make_ragged_batch()
        rand = masking.text_masks_for_samples(batch, 0.5, "random", 11, 3, [7, 1, 5])
        prio = masking.text_masks_for_samples(batch, 0.5, "prioritized", 11, 3, [7, 1, 5])
        assert rand.visible.tolist() == [[0, 1, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4]]
        assert prio.visible.tolist() == [[0, 1, 2, 3], [0, 2, 3, 4], [0, 1, 3, 4]]

    def test_sample_patch_mask_shared_generator(self):
        m = masking.sample_patch_mask(16, 0.75, np.random.default_rng(5), batch_size=3)
        assert m.visible.tolist() == [[4, 7, 8, 11], [3, 7, 13, 15], [2, 6, 10, 15]]

    def test_sample_text_mask_shared_generator(self):
        batch = make_ragged_batch()
        rand = masking.sample_text_mask(batch, 0.5, "random", np.random.default_rng(5))
        prio = masking.sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(5))
        assert rand.visible.tolist() == [[3, 4, 5, 7], [0, 2, 3, 4], [0, 3, 5, 7]]
        assert prio.visible.tolist() == [[0, 1, 2, 7], [0, 2, 3, 4], [0, 3, 5, 7]]

    def test_complementary_views(self):
        views = masking.complementary_views(16, 0.75, np.random.default_rng(5), batch_size=2)
        assert [v.visible.tolist() for v in views] == [
            [[4, 7, 8, 11], [3, 7, 13, 15]],
            [[3, 5, 6, 12], [0, 1, 5, 10]],
            [[0, 1, 2, 10], [2, 4, 8, 14]],
            [[9, 13, 14, 15], [6, 9, 11, 12]],
        ]
        assert views[3].hidden.tolist() == [
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12], [0, 1, 2, 3, 4, 5, 7, 8, 10, 13, 14, 15],
        ]


class TestCounterSeededRows:
    """Rows of a counter-seeded mask: row b is a function of (seed, tag,
    epoch, idx[b]) alone, and its positions are uniform over indices."""

    SEED, EPOCH, IDX = 4, 1, [12, 0, 7, 3, 2**40 + 5, 9]

    @staticmethod
    def draw(idx, policy, seed=SEED, epoch=EPOCH, n=16):
        """One mask per kind: patch, or text over rows of 3, n, 1, 11, ... valid tokens."""
        if policy == "patch":
            return masking.patch_masks_for_samples(n, 0.5, seed, epoch, idx)
        batch = make_batch(n, batch_size=len(idx), length=n)
        batch.valid_lengths[:] = (np.asarray(idx) % (n + 1))
        return masking.text_masks_for_samples(batch, 0.5, policy, seed, epoch, idx)

    @pytest.mark.parametrize("policy", ["patch", "random", "prioritized"])
    def test_row_depends_only_on_its_index(self, policy):
        whole = self.draw(self.IDX, policy)
        order = [4, 2, 0, 5, 1, 3]
        permuted = self.draw([self.IDX[i] for i in order], policy)
        assert np.array_equal(permuted.visible, whole.visible[order])
        assert np.array_equal(permuted.hidden, whole.hidden[order])
        for lo, hi in ((0, 1), (1, 4), (4, 6)):
            part = self.draw(self.IDX[lo:hi], policy)
            assert np.array_equal(part.visible, whole.visible[lo:hi])
            assert np.array_equal(part.hidden, whole.hidden[lo:hi])

    def test_other_tags_seeds_and_epochs_give_other_rows(self):
        idx = list(range(64))
        base = self.draw(idx, "patch").visible
        for other in (self.draw(idx, "random").visible,  # text tag, same counters
                      self.draw(idx, "patch", epoch=self.EPOCH + 1).visible,
                      self.draw(idx, "patch", seed=self.SEED + 1).visible):
            assert (other != base).any(axis=1).sum() >= 60

    @pytest.mark.parametrize("n, ratio", [(16, 0.5), (16, 0.75), (32, 0.5)])
    def test_position_frequency_is_uniform(self, n, ratio):
        m = masking.patch_masks_for_samples(n, ratio, self.SEED, self.EPOCH, np.arange(20_000))
        freq = np.bincount(m.visible.ravel(), minlength=n) / 20_000
        assert np.abs(freq - (1.0 - ratio)).max() <= 0.02, freq

    def test_no_uint64_overflow_warning(self):
        batch = make_batch(5, batch_size=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, epoch in ((0, 0), (2**63 - 1, 2**40), (2**64 - 1, 2**64 - 1)):
                idx = [0, 2**63 + 7, 2**64 - 1]
                masking.patch_masks_for_samples(16, 0.75, seed, epoch, idx)
                masking.text_masks_for_samples(batch, 0.5, "prioritized", seed, epoch, idx)


class TestRatioZero:
    """Ratio 0 is an ordinary ratio: every sampler keeps all positions."""

    @staticmethod
    def assert_full(m, n, batch_size):
        full = masking.full_mask(n, batch_size)
        assert m.ratio == full.ratio == 0.0 and m.n_total == n
        assert np.array_equal(m.visible, full.visible) and m.visible.dtype == full.visible.dtype
        assert m.hidden.shape == full.hidden.shape == (batch_size, 0)

    @pytest.mark.parametrize("policy", masking.POLICIES)
    def test_text_samplers_return_full_mask(self, policy):
        batch = make_batch(5, batch_size=3)
        self.assert_full(masking.sample_text_mask(batch, 0.0, policy, np.random.default_rng(0)),
                         32, 3)
        self.assert_full(masking.text_masks_for_samples(batch, 0.0, policy, 7, 2, [4, 0, 9]),
                         32, 3)

    def test_patch_samplers_return_full_mask(self):
        self.assert_full(masking.sample_patch_mask(16, 0.0, np.random.default_rng(0), 3), 16, 3)
        self.assert_full(masking.patch_masks_for_samples(16, 0.0, 7, 2, [4, 0, 9]), 16, 3)
