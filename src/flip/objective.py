"""Joint embedding space and losses.

Tower outputs are linearly projected to a shared embedding dimension and
L2-normalized. The contrastive loss is symmetric InfoNCE over the B x B
cosine-similarity matrix scaled by a learnable temperature (stored in
log space, exp clamped to 100): the mean of image-to-text and
text-to-image cross entropies with matched pairs on the diagonal. It
takes plain tensors, the three values CLIP's pseudocode passes: the
[B, D] image and text embeddings and the [1] log-space scale, and it is
one fused tape node, ``autodiff.symmetric_info_nce``.

An optional reconstruction head (small 2-layer decoder at half the
image width) predicts per-patch normalized pixels of the hidden patches
from the encoded visible tokens, mean-squared-error on hidden patches
only, as one fused tape node, ``autodiff.mean_squared_error``. Like the
image encoder, it never restores raster order: it runs on the visible
tokens followed by one mask token per hidden patch, each carrying its
decoder position embedding by original patch index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import DECODER_LAYERS, EncoderConfig, transformer_block
from .errors import ConfigError
from .masking import PatchMask

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
class LossBundle:
    contrastive: float
    reconstruction: Optional[float]  # None when the step did not reconstruct
    total: float


def project_and_normalize(feat: Tensor, proj: Tensor) -> Tensor:
    """Linear map into the joint space, then per-row L2 normalization."""
    return ad.l2_normalize_rows(ad.matmul(feat, proj))


def info_nce(image_emb: Tensor, text_emb: Tensor, logit_scale: Tensor) -> Tensor:
    """Symmetric InfoNCE with diagonal targets; other rows are negatives."""
    b = image_emb.shape[0]
    if b < 2:
        raise ConfigError(f"contrastive loss needs batch >= 2, got {b}")
    return ad.symmetric_info_nce(image_emb, text_emb, logit_scale, LOG_MAX_LOGIT_SCALE)


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

    The decoder runs on the sequence ``[visible..., hidden...]`` in mask
    order: the embedded visible tokens, then one mask token per hidden
    patch, each plus the decoder position embedding of its original
    patch index. Attention has no positional term, so the blocks are
    permutation-equivariant: running them on this order gives every
    token the output it would get in raster order, and no unshuffle is
    needed. Only the trailing hidden tokens go through the final norm
    and the pixel projection, and the loss compares them with per-patch
    normalized pixels gathered in the same ``mask.hidden`` order.
    """
    b, v, _ = encoded_visible.shape
    n = mask.n_total
    pos = params["dec/pos"]
    visible = ad.linear(encoded_visible, params["dec/embed/w"], params["dec/embed/b"],
                        residual=ad.take_rows(pos, mask.visible))
    hidden = ad.add(ad.take_rows(pos, mask.hidden), params["dec/mask_token"])
    x = ad.concat([visible, hidden], axis=1)
    for i in range(DECODER_LAYERS):
        x = transformer_block(x, params, f"dec/blk{i}", config.image.heads)
    x = ad.layer_norm(ad.slice_axis(x, v, n, axis=1), params["dec/ln_f/g"], params["dec/ln_f/b"])
    pred = ad.linear(x, params["dec/out/w"], params["dec/out/b"])

    targets = normalize_patches(target_patches)[np.arange(b)[:, None], mask.hidden]
    return ad.mean_squared_error(pred, targets)
