"""Joint embedding space and losses.

Tower outputs are linearly projected to a shared embedding dimension and
L2-normalized. The contrastive loss is symmetric InfoNCE over the B x B
cosine-similarity matrix scaled by a learnable temperature (stored in
log space, exp clamped to 100): the mean of image-to-text and
text-to-image cross entropies with matched pairs on the diagonal.

An optional reconstruction head (small 2-layer decoder at half the
image width) predicts per-patch normalized pixels of the hidden patches
from the encoded visible tokens, mean-squared-error on hidden patches
only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import DECODER_LAYERS, EncoderConfig, transformer_block
from .errors import ConfigError
from .masking import PatchMask

logger = logging.getLogger(__name__)

MAX_LOGIT_SCALE = 100.0
PIXEL_NORM_EPS = 1e-6


def _float32_floor(x: float) -> float:
    """Largest float32 not exceeding x."""
    f = np.float32(x)
    if float(f) > x:
        f = np.nextafter(f, np.float32(-np.inf))
    return float(f)


# log(100) rounded down so exp(clamped scale) <= 100 holds in float32 too
LOG_MAX_LOGIT_SCALE = _float32_floor(math.log(MAX_LOGIT_SCALE))


@dataclass
class EmbeddingBatch:
    """L2-normalized image/text embeddings plus the learnable logit scale."""

    image_emb: Tensor  # [B, embed_dim]
    text_emb: Tensor  # [B, embed_dim]
    logit_scale: Tensor  # [1], log space

    @property
    def batch_size(self) -> int:
        return self.image_emb.shape[0]


@dataclass
class LossBundle:
    contrastive: float
    reconstruction: Optional[float]
    total: float
    rec_weight: float = 0.0


def project_and_normalize(feat: Tensor, proj: Tensor) -> Tensor:
    """Linear map into the joint space, then per-row L2 normalization."""
    return ad.l2_normalize_rows(ad.matmul(feat, proj), eps=1e-8)


def similarity_logits(e: EmbeddingBatch) -> Tensor:
    """logits[i][j] = exp(clamped logit_scale) * <image_i, text_j>."""
    s = ad.exp(ad.clamp_max(e.logit_scale, LOG_MAX_LOGIT_SCALE))
    return ad.scale_by(ad.matmul(e.image_emb, ad.transpose(e.text_emb)), s)


def _diagonal_cross_entropy(logits: Tensor) -> Tensor:
    return ad.mean_all(ad.sub(ad.logsumexp_rows(logits), ad.take_diagonal(logits)))


def info_nce(e: EmbeddingBatch) -> Tensor:
    """Symmetric InfoNCE with diagonal targets; other rows are negatives."""
    if e.batch_size < 2:
        raise ConfigError(f"contrastive loss needs batch >= 2, got {e.batch_size}")
    logits = similarity_logits(e)
    i2t = _diagonal_cross_entropy(logits)
    t2i = _diagonal_cross_entropy(ad.transpose(logits))
    return ad.scale(ad.add(i2t, t2i), 0.5)


def normalize_patches(patches: np.ndarray) -> np.ndarray:
    """Per-patch zero mean / unit variance pixel targets."""
    mu = patches.mean(axis=-1, keepdims=True)
    var = patches.var(axis=-1, keepdims=True)
    return (patches - mu) / np.sqrt(var + PIXEL_NORM_EPS)


def reconstruction_loss(
    params: dict,
    encoded_visible: Tensor,
    mask: PatchMask,
    target_patches: np.ndarray,
    config: EncoderConfig,
) -> Tensor:
    """MSE on hidden patches, MAE-style.

    Mask tokens fill the hidden positions, decoder positional embeddings
    are re-added by original index, a small decoder runs over the full
    sequence, and the loss compares hidden-patch predictions against
    per-patch normalized pixels. With no hidden patches there is nothing
    to reconstruct: returns 0 and warns.
    """
    b, v, d = encoded_visible.shape
    n = mask.n_total
    nh = n - v
    if nh == 0:
        logger.warning("reconstruction requested with mask ratio 0; nothing is hidden")
        return Tensor(0.0)
    dd = params["dec/embed/w"].shape[1]  # decoder width, fixed by init_params
    heads = config.image.heads

    offsets = np.arange(b)[:, None] * n
    flat_vis = (offsets + mask.visible).ravel()
    flat_hid = (offsets + mask.hidden).ravel()

    emb = ad.linear(ad.reshape(encoded_visible, (b * v, d)), params["dec/embed/w"],
                    params["dec/embed/b"])
    placed = ad.scatter_rows(emb, flat_vis, b * n)
    mask_tokens = ad.take_rows(params["dec/mask_token"], np.zeros(b * nh, dtype=np.int64))
    placed = ad.add(placed, ad.scatter_rows(mask_tokens, flat_hid, b * n))
    pos = ad.take_rows(params["dec/pos"], np.tile(np.arange(n), b))
    x = ad.reshape(ad.add(placed, pos), (b, n, dd))
    for i in range(DECODER_LAYERS):
        x = transformer_block(x, params, f"dec/blk{i}", heads)
    x = ad.layer_norm(x, params["dec/ln_f/g"], params["dec/ln_f/b"])
    pred = ad.linear(ad.reshape(x, (b * n, dd)), params["dec/out/w"], params["dec/out/b"])
    pred_hidden = ad.take_rows(pred, flat_hid)

    targets = normalize_patches(target_patches)[np.arange(b)[:, None], mask.hidden]
    diff = ad.sub(pred_hidden, Tensor(targets.reshape(b * nh, -1)))
    return ad.mean_all(ad.mul(diff, diff))
