"""Patch and token masks: which positions an encoder actually sees.

A mask stores, per sample, the sorted visible indices and the sorted
hidden complement. Visible counts use round((1 - ratio) * n) with
ties-to-even, which lands exactly on the usual ratios for 16 and 196
patches. Sampling is seedable and per-sample independent; trainers use
counter-based seeds (global seed, stage tag, epoch, sample index) so
evaluation order and parallelism never change the draw. The two entry
points of each kind (``sample_*`` and ``*_for_samples``) differ only in
their per-row generators: one shared generator, or one per_sample_rng
per dataset index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tokenizer import TokenizedBatch

# stage tags for counter-based seeding
TAG_PATCH_MASK = 1
TAG_TEXT_MASK = 2
TAG_INIT = 3
TAG_SHUFFLE = 4
TAG_DATA = 5
TAG_EVAL = 6

POLICIES = ("none", "random", "prioritized")


def per_sample_rng(global_seed: int, tag: int, epoch: int, index: int) -> np.random.Generator:
    """Generator derived from a counter, stable across platforms and order."""
    return np.random.default_rng(np.random.SeedSequence([global_seed, tag, epoch, index]))


def visible_count(n: int, ratio: float) -> int:
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1), got {ratio}")
    v = round((1.0 - ratio) * n)
    if v == 0 and n > 0:
        raise ConfigError(f"ratio {ratio} leaves no visible positions out of {n}")
    return v


@dataclass
class PatchMask:
    """Per-sample visible/hidden index sets over n_total positions."""

    ratio: float
    visible: np.ndarray  # int64 [B, v], sorted per row
    hidden: np.ndarray  # int64 [B, n_total - v], sorted per row
    n_total: int

    @property
    def batch_size(self) -> int:
        return self.visible.shape[0]

    @property
    def n_visible(self) -> int:
        return self.visible.shape[1]


def _split_visible(n: int, v: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    return np.sort(perm[:v]), np.sort(perm[v:])


def full_mask(n: int, batch_size: int = 1) -> PatchMask:
    idx = np.tile(np.arange(n, dtype=np.int64), (batch_size, 1))
    empty = np.empty((batch_size, 0), dtype=np.int64)
    return PatchMask(ratio=0.0, visible=idx, hidden=empty, n_total=n)


def _counter_rngs(global_seed: int, tag: int, epoch: int, sample_indices) -> list:
    return [per_sample_rng(global_seed, tag, epoch, int(idx))
            for idx in np.asarray(sample_indices, dtype=np.int64)]


def _draw_rows(n: int, ratio: float, rngs, draw_row) -> PatchMask:
    """Row b is draw_row(b, v, rngs[b]): its v visible and n - v hidden indices."""
    v = visible_count(n, ratio)
    vis = np.empty((len(rngs), v), dtype=np.int64)
    hid = np.empty((len(rngs), n - v), dtype=np.int64)
    for b, rng in enumerate(rngs):
        vis[b], hid[b] = draw_row(b, v, rng)
    return PatchMask(ratio=ratio, visible=vis, hidden=hid, n_total=n)


def _uniform_rows(n: int, ratio: float, rngs) -> PatchMask:
    return _draw_rows(n, ratio, rngs, lambda b, v, rng: _split_visible(n, v, rng))


def sample_patch_mask(
    n: int, ratio: float, rng: np.random.Generator, batch_size: int = 1
) -> PatchMask:
    """Uniform per-sample mask: keep round((1-ratio)*n) positions visible."""
    return _uniform_rows(n, ratio, [rng] * batch_size)


def patch_masks_for_samples(
    n: int, ratio: float, global_seed: int, epoch: int, sample_indices
) -> PatchMask:
    """Counter-seeded batch mask: one independent draw per dataset index."""
    return _uniform_rows(n, ratio,
                         _counter_rngs(global_seed, TAG_PATCH_MASK, epoch, sample_indices))


def _prioritized_row(length, valid_len, mask_count, rng):
    pads = np.arange(valid_len, length)
    if mask_count <= pads.size:
        masked = rng.choice(pads, size=mask_count, replace=False)
    else:
        extra = rng.choice(np.arange(valid_len), size=mask_count - pads.size, replace=False)
        masked = np.concatenate([pads, extra])
    masked = np.sort(masked)
    vis = np.setdiff1d(np.arange(length), masked, assume_unique=True)
    return vis, masked


def _text_rows(batch: TokenizedBatch, ratio: float, policy: str, rngs) -> PatchMask:
    length = batch.seq_len
    if policy == "random":
        return _uniform_rows(length, ratio, rngs)
    return _draw_rows(length, ratio, rngs, lambda b, v, rng: _prioritized_row(
        length, int(batch.valid_lengths[b]), length - v, rng))


def sample_text_mask(
    batch: TokenizedBatch,
    ratio: float,
    policy: str,
    rng: np.random.Generator | None = None,
) -> PatchMask:
    """Token mask over a tokenized batch.

    ``random`` draws uniformly over all positions. ``prioritized`` masks
    padding positions first and only then draws from valid tokens, so no
    valid token is removed while an unmasked padding token remains.
    Masked tokens are removed from the sequence entirely, not replaced
    by a mask token.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown text mask policy {policy!r}, expected one of {POLICIES}")
    if policy == "none":
        return full_mask(batch.seq_len, batch.batch_size)
    if rng is None:
        raise ConfigError(f"policy {policy!r} needs an rng")
    return _text_rows(batch, ratio, policy, [rng] * batch.batch_size)


def text_masks_for_samples(
    batch: TokenizedBatch,
    ratio: float,
    policy: str,
    global_seed: int,
    epoch: int,
    sample_indices,
) -> PatchMask:
    """Counter-seeded variant of sample_text_mask (one draw per dataset index)."""
    if policy not in ("random", "prioritized"):  # "none" builds no generator; unknown raises
        return sample_text_mask(batch, ratio, policy)
    return _text_rows(batch, ratio, policy,
                      _counter_rngs(global_seed, TAG_TEXT_MASK, epoch, sample_indices))


def complementary_views(
    n: int, ratio: float, rng: np.random.Generator, batch_size: int = 1
) -> list[PatchMask]:
    """Disjoint equal-size visible sets that together cover all n positions.

    Needs 1/(1-ratio) to be an integer k dividing n (k views): ratio 0.5
    gives 2 views, 0.75 gives 4.
    """
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1), got {ratio}")
    k_float = 1.0 / (1.0 - ratio)
    k = round(k_float)
    if abs(k_float - k) > 1e-9:
        raise ConfigError(f"ratio {ratio} does not yield an integer view count (1/(1-r)={k_float:.4f})")
    if n % k != 0:
        raise ConfigError(f"{k} views do not evenly partition {n} positions")
    m = n // k
    perms = np.stack([rng.permutation(n) for _ in range(batch_size)])
    out = []
    for j in range(k):
        vis = np.sort(perms[:, j * m : (j + 1) * m], axis=1)
        hid = np.sort(np.delete(perms, np.s_[j * m : (j + 1) * m], axis=1), axis=1)
        out.append(PatchMask(ratio=ratio, visible=vis, hidden=hid, n_total=n))
    return out
