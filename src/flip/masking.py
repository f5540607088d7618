"""Patch and token masks: which positions an encoder actually sees.

A mask stores, per sample, the sorted visible indices and the sorted
hidden complement. Visible counts use round((1 - ratio) * n) with
ties-to-even, which lands exactly on the usual ratios for 16 and 196
patches.

Every sampler follows one rule: each position gets a uniform key in
[0, 1), and a row's visible set is its v smallest-key positions. The
``prioritized`` text policy adds 1 to the keys of padding positions, so
padding is hidden before any valid token. Complementary views cut one
key order into k equal parts; at ratio 0 every sampler returns
``full_mask``'s indices. The two entry points of each kind differ only
in where the keys come from:

- ``sample_*`` and ``complementary_views`` take them from one shared
  generator, ``rng.random((B, n))``;
- ``*_for_samples`` hash (global seed, stage tag, epoch, sample index,
  position) with splitmix64 in uint64 array arithmetic, so a row
  depends only on its own dataset index, never on batch order or size.

Every step is a whole-batch array operation; there is no per-row loop.
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

POLICIES = ("random", "prioritized")


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


def full_mask(n: int, batch_size: int = 1) -> PatchMask:
    idx = np.tile(np.arange(n, dtype=np.int64), (batch_size, 1))
    empty = np.empty((batch_size, 0), dtype=np.int64)
    return PatchMask(ratio=0.0, visible=idx, hidden=empty, n_total=n)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output function, in place on a uint64 array (wraps mod 2**64)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _counter_uniforms(global_seed: int, tag: int, epoch: int, sample_indices, n: int) -> np.ndarray:
    """Float64 uniforms in [0, 1), one per (sample, position).

    Row b is the first n outputs of a splitmix64 stream whose state is a
    hash of (global_seed, tag, epoch, sample_indices[b]), so a row never
    depends on the rest of the batch. All arithmetic is on uint64 arrays,
    which wrap silently.
    """
    h = np.zeros(1, dtype=np.uint64)
    for word in (global_seed, tag, epoch):
        h += np.uint64(word)
        _splitmix64(h)
    state = h + np.asarray(sample_indices, dtype=np.uint64)
    _splitmix64(state)
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= _GOLDEN_GAMMA
    z = _splitmix64(state[:, None] + steps)
    return (z >> 11).astype(np.float64) * 2.0**-53


def _split(order: np.ndarray, lo: int, hi: int, ratio: float) -> PatchMask:
    """The mask whose visible set in row b is order[b, lo:hi]; each row of
    ``order`` is a permutation of range(n)."""
    b, n = order.shape
    visible = np.zeros((b, n), dtype=bool)
    np.put_along_axis(visible, order[:, lo:hi], True, axis=1)
    # nonzero walks row-major, so every row comes out sorted
    return PatchMask(ratio=ratio,
                     visible=np.nonzero(visible)[1].reshape(b, hi - lo),
                     hidden=np.nonzero(~visible)[1].reshape(b, n - hi + lo),
                     n_total=n)


def _smallest_keys(keys: np.ndarray, ratio: float) -> PatchMask:
    """Each row keeps its round((1-ratio)*n) smallest-key positions visible."""
    v = visible_count(keys.shape[1], ratio)
    return _split(np.argsort(keys, axis=1, kind="stable"), 0, v, ratio)


def sample_patch_mask(
    n: int, ratio: float, rng: np.random.Generator, batch_size: int = 1
) -> PatchMask:
    """Uniform per-sample mask: keep round((1-ratio)*n) positions visible."""
    return _smallest_keys(rng.random((batch_size, n)), ratio)


def patch_masks_for_samples(
    n: int, ratio: float, global_seed: int, epoch: int, sample_indices
) -> PatchMask:
    """Counter-seeded batch mask: one independent draw per dataset index."""
    return _smallest_keys(
        _counter_uniforms(global_seed, TAG_PATCH_MASK, epoch, sample_indices, n), ratio)


def check_policy(policy: str) -> None:
    """Refuse a text mask policy that is not in ``POLICIES``."""
    if policy not in POLICIES:
        raise ConfigError(f"text_mask_policy {policy!r} not in {POLICIES}")


def _text_mask(batch: TokenizedBatch, ratio: float, policy: str, keys: np.ndarray) -> PatchMask:
    check_policy(policy)
    if policy == "prioritized":  # padding sorts after every valid token, so it is hidden first
        keys += np.arange(batch.seq_len) >= batch.valid_lengths[:, None]
    return _smallest_keys(keys, ratio)


def sample_text_mask(
    batch: TokenizedBatch, ratio: float, policy: str, rng: np.random.Generator
) -> PatchMask:
    """Token mask over a tokenized batch.

    ``random`` draws uniformly over all positions. ``prioritized`` masks
    padding positions first and only then draws from valid tokens, so no
    valid token is removed while an unmasked padding token remains.
    Masked tokens are removed from the sequence entirely, not replaced
    by a mask token.
    """
    return _text_mask(batch, ratio, policy, rng.random((batch.batch_size, batch.seq_len)))


def text_masks_for_samples(batch: TokenizedBatch, ratio: float, policy: str,
                           global_seed: int, epoch: int, sample_indices) -> PatchMask:
    """Counter-seeded variant of sample_text_mask (one draw per dataset index)."""
    return _text_mask(batch, ratio, policy, _counter_uniforms(
        global_seed, TAG_TEXT_MASK, epoch, sample_indices, batch.seq_len))


def view_count(n: int, ratio: float) -> int:
    """The number k of complementary views at ``ratio``: 1/(1-ratio) must
    be an integer that divides n. Ratio 0.5 gives 2 views, 0.75 gives 4."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"mask ratio must be in [0, 1), got {ratio}")
    k_float = 1.0 / (1.0 - ratio)
    k = round(k_float)
    if abs(k_float - k) > 1e-9:
        raise ConfigError(f"ratio {ratio} does not yield an integer view count (1/(1-r)={k_float:.4f})")
    if n % k != 0:
        raise ConfigError(f"{k} views do not evenly partition {n} positions")
    return k


def complementary_views(
    n: int, ratio: float, rng: np.random.Generator, batch_size: int = 1
) -> list[PatchMask]:
    """``view_count(n, ratio)`` disjoint equal-size visible sets that
    together cover all n positions."""
    k = view_count(n, ratio)
    m = n // k
    order = np.argsort(rng.random((batch_size, n)), axis=1, kind="stable")
    return [_split(order, j * m, (j + 1) * m, ratio) for j in range(k)]
