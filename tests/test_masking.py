"""Mask sampling invariants: counts, uniqueness, partitions, and the
prioritized text policy."""

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

    def test_ratio_zero_single_view(self):
        views = masking.complementary_views(16, 0.0, np.random.default_rng(0))
        assert len(views) == 1
        assert np.array_equal(views[0].visible[0], np.arange(16))


class TestTextMask:
    def test_policy_none_all_visible(self):
        m = masking.sample_text_mask(make_batch(10), 0.5, "none")
        assert m.n_visible == 32

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
        with pytest.raises(ConfigError):
            masking.sample_text_mask(make_batch(5), 0.5, "sometimes")

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
        assert m.visible.tolist() == [[2, 4, 8, 14], [5, 6, 8, 11], [9, 12, 13, 14]]

    def test_text_masks_for_samples(self):
        batch = make_ragged_batch()
        rand = masking.text_masks_for_samples(batch, 0.5, "random", 11, 3, [7, 1, 5])
        prio = masking.text_masks_for_samples(batch, 0.5, "prioritized", 11, 3, [7, 1, 5])
        assert rand.visible.tolist() == [[2, 3, 4, 5], [2, 3, 5, 6], [0, 3, 6, 7]]
        assert prio.visible.tolist() == [[0, 1, 2, 5], [1, 2, 4, 5], [0, 1, 5, 7]]

    def test_sample_patch_mask_shared_generator(self):
        m = masking.sample_patch_mask(16, 0.75, np.random.default_rng(5), batch_size=3)
        assert m.visible.tolist() == [[1, 3, 7, 11], [2, 4, 7, 9], [0, 1, 9, 14]]

    def test_sample_text_mask_shared_generator(self):
        batch = make_ragged_batch()
        rand = masking.sample_text_mask(batch, 0.5, "random", np.random.default_rng(5))
        prio = masking.sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(5))
        assert rand.visible.tolist() == [[1, 2, 3, 4], [0, 1, 3, 6], [2, 3, 6, 7]]
        assert prio.visible.tolist() == [[0, 1, 2, 6], [0, 2, 3, 4], [0, 4, 5, 6]]

    def test_complementary_views(self):
        views = masking.complementary_views(16, 0.75, np.random.default_rng(5), batch_size=2)
        assert [v.visible.tolist() for v in views] == [
            [[1, 3, 7, 11], [2, 4, 7, 9]],
            [[2, 9, 10, 15], [6, 10, 11, 15]],
            [[0, 4, 6, 12], [0, 1, 3, 12]],
            [[5, 8, 13, 14], [5, 8, 13, 14]],
        ]
        assert views[3].hidden.tolist() == [
            [0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 15], [0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 15],
        ]


class TestCounterSeededRows:
    """Row b of a counter-seeded mask is the single-generator draw made with
    per_sample_rng(seed, tag, epoch, idx[b])."""

    SEED, EPOCH, IDX = 4, 1, [12, 0, 7, 3]

    def rng_for(self, tag, idx):
        return masking.per_sample_rng(self.SEED, tag, self.EPOCH, idx)

    def test_patch_rows(self):
        m = masking.patch_masks_for_samples(16, 0.5, self.SEED, self.EPOCH, self.IDX)
        for b, idx in enumerate(self.IDX):
            one = masking.sample_patch_mask(16, 0.5, self.rng_for(masking.TAG_PATCH_MASK, idx))
            assert np.array_equal(m.visible[b], one.visible[0])
            assert np.array_equal(m.hidden[b], one.hidden[0])

    @pytest.mark.parametrize("policy", ["random", "prioritized"])
    def test_text_rows(self, policy):
        batch = make_batch(20, batch_size=len(self.IDX))
        batch.valid_lengths[:] = [20, 3, 32, 11]
        m = masking.text_masks_for_samples(batch, 0.5, policy, self.SEED, self.EPOCH, self.IDX)
        for b, idx in enumerate(self.IDX):
            row = TokenizedBatch(token_ids=batch.token_ids[b : b + 1],
                                 valid_lengths=batch.valid_lengths[b : b + 1])
            one = masking.sample_text_mask(row, 0.5, policy,
                                           self.rng_for(masking.TAG_TEXT_MASK, idx))
            assert np.array_equal(m.visible[b], one.visible[0])
            assert np.array_equal(m.hidden[b], one.hidden[0])

    def test_policy_none_is_full(self):
        m = masking.text_masks_for_samples(make_batch(5, batch_size=2), 0.5, "none",
                                           self.SEED, self.EPOCH, [0, 1])
        assert m.ratio == 0.0 and m.n_visible == 32 and m.hidden.shape == (2, 0)
