"""Image and text transformer encoders with sparse visible-token encoding.

The image tower is a pre-norm ViT that runs only on the visible patches:
raw patches are gathered by the mask before the linear patch embedding,
so every projection, attention and MLP in the tower works on the short
v-length sequence. Positional embeddings are indexed by the original
patch position, which also means no interpolation is needed when the
same weights later run on full-length sequences.

The text tower is a non-autoregressive transformer over fixed-length
token sequences. Padding tokens are hidden from attention keys and from
pooling, so up to float32 rounding an embedding depends only on the
valid tokens and their positions. Padding is also not computed: every
batch runs only up to the last visible column that holds a valid token
in some row, which on sorted mask rows is the batch's longest visible
valid prefix. That width sets the lengths of the softmax sums and of the
pooling product, so the same caption can embed differently in the last
bits next to a longer one (up to about 1e-7 per element on the desk
captions). A sample with no valid visible token attends to and pools
over every column the batch runs. Both towers end with a final layer
norm and average pooling (no class token).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .masking import PatchMask, full_mask, per_sample_rng, TAG_INIT
from .tokenizer import TokenizedBatch, default_vocab

ATTN_MASK_VALUE = -1e9
INIT_STD = 0.02
MLP_RATIO = 4
DECODER_LAYERS = 2  # reconstruction decoder depth, MAE-style
LOGIT_SCALE_INIT = math.log(1.0 / 0.07)  # learnable temperature, log space


@dataclass(frozen=True)
class ImageTowerConfig:
    layers: int
    width: int
    heads: int
    patch_size: int
    image_size: int

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


@dataclass(frozen=True)
class TextTowerConfig:
    layers: int
    width: int
    heads: int
    seq_len: int = 32
    vocab_size: int = 0


@dataclass(frozen=True)
class EncoderConfig:
    image: ImageTowerConfig
    text: TextTowerConfig
    embed_dim: int

    def __post_init__(self):
        if self.image.image_size % self.image.patch_size != 0:
            raise ConfigError(
                f"image size {self.image.image_size} not divisible by patch size {self.image.patch_size}"
            )
        for name, tower in (("image", self.image), ("text", self.text)):
            if tower.width % tower.heads != 0:
                raise ConfigError(
                    f"{name} width {tower.width} not divisible by heads {tower.heads}"
                )


def preset(name: str) -> EncoderConfig:
    """Named encoder geometries.

    "B-like" / "L-like" / "H-like" mirror the standard CLIP-style ViT
    pairings (e.g. L: image 24x1024x16 at patch 16, text 12x768x12,
    embedding 768). "tiny" and "small" are desk-scale geometries for
    32x32 inputs.
    """
    desk_vocab = len(default_vocab())
    table = {
        "tiny": EncoderConfig(
            image=ImageTowerConfig(4, 64, 4, 8, 32),
            text=TextTowerConfig(2, 64, 4, 32, desk_vocab),
            embed_dim=64,
        ),
        "small": EncoderConfig(
            image=ImageTowerConfig(6, 96, 6, 8, 32),
            text=TextTowerConfig(3, 96, 6, 32, desk_vocab),
            embed_dim=96,
        ),
        "B-like": EncoderConfig(
            image=ImageTowerConfig(12, 768, 12, 16, 224),
            text=TextTowerConfig(12, 512, 8, 32, 49408),
            embed_dim=512,
        ),
        "L-like": EncoderConfig(
            image=ImageTowerConfig(24, 1024, 16, 16, 224),
            text=TextTowerConfig(12, 768, 12, 32, 49408),
            embed_dim=768,
        ),
        "H-like": EncoderConfig(
            image=ImageTowerConfig(32, 1280, 16, 14, 224),
            text=TextTowerConfig(24, 1024, 16, 32, 49408),
            embed_dim=1024,
        ),
    }
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(table)}")
    return table[name]


PRESET_NAMES = ("tiny", "small", "B-like", "L-like", "H-like")


# ---------------------------------------------------------------------------
# patch grid


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """[B,H,W,C] images to [B, N, P*P*C] rows in raster order of the grid.
    uint8 pixels become float32 ``x / 255``; float input passes through."""
    if images.ndim != 4:
        raise ConfigError(f"expected [B,H,W,C] images, got shape {images.shape}")
    b, h, w, c = images.shape
    p = patch_size
    if h % p or w % p:
        raise ConfigError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    x = images.reshape(b, gh, p, gw, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)  # [B, gh, gw, p, p, c]
    x = x.reshape(b, gh * gw, p * p * c)
    if x.dtype == np.uint8:
        x = x.astype(np.float32)
        x /= 255.0
    return x


# ---------------------------------------------------------------------------
# parameters


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """N(0, INIT_STD) cut at two standard deviations, by inverse CDF.

    The same draws as ``scipy.stats.truncnorm.rvs(-2, 2, scale=INIT_STD,
    size=shape, random_state=rng)``, byte for byte: one uniform per
    element, then the ``scipy.special`` calls of truncnorm's left-tail
    ``_ppf`` in the same order. ``scipy.special`` loads on the first
    call, so a process that only reads a checkpoint never loads it."""
    from scipy.special import log1p, log_ndtr, logsumexp, ndtr, ndtri_exp

    q = rng.uniform(size=shape)
    log_mass = log1p(-ndtr(-2.0) - ndtr(-2.0))
    log_cdf = logsumexp([np.full(q.shape, log_ndtr(-2.0)), np.log(q) + log_mass], axis=0)
    return ndtri_exp(log_cdf) * INIT_STD + 0  # truncnorm adds loc 0: -0.0 becomes 0.0


def _block_shapes(prefix: str, d: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    h = MLP_RATIO * d
    shapes = {"ln1/g": (d,), "ln1/b": (d,), "q/w": (d, d), "q/b": (d,), "k/w": (d, d),
              "k/b": (d,), "v/w": (d, d), "v/b": (d,), "attn_out/w": (d, d), "attn_out/b": (d,),
              "ln2/g": (d,), "ln2/b": (d,), "mlp1/w": (d, h), "mlp1/b": (h,),
              "mlp2/w": (h, d), "mlp2/b": (d,)}
    return ((f"{prefix}/{name}", shape) for name, shape in shapes.items())


def param_shapes(config: EncoderConfig, with_decoder: bool = False
                 ) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in the order ``init_params``
    draws them. Lazy and allocation-free, so a checkpoint reader can walk
    it for any stored geometry and stop at the first mismatch."""
    img, txt = config.image, config.text
    yield from {"img/patch_embed/w": (img.patch_dim, img.width),
                "img/patch_embed/b": (img.width,), "img/pos": (img.num_patches, img.width)}.items()
    for i in range(img.layers):
        yield from _block_shapes(f"img/blk{i}", img.width)
    yield from {"img/ln_f/g": (img.width,), "img/ln_f/b": (img.width,),
                "txt/tok_emb": (txt.vocab_size, txt.width),
                "txt/pos": (txt.seq_len, txt.width)}.items()
    for i in range(txt.layers):
        yield from _block_shapes(f"txt/blk{i}", txt.width)
    yield from {"txt/ln_f/g": (txt.width,), "txt/ln_f/b": (txt.width,),
                "proj/img/w": (img.width, config.embed_dim),
                "proj/txt/w": (txt.width, config.embed_dim), "logit_scale": (1,)}.items()
    if with_decoder:
        dd = img.width // 2
        if dd % img.heads != 0:
            raise ConfigError(f"decoder width {dd} not divisible by heads {img.heads}")
        yield from {"dec/embed/w": (img.width, dd), "dec/embed/b": (dd,),
                    "dec/mask_token": (1, dd), "dec/pos": (img.num_patches, dd)}.items()
        for i in range(DECODER_LAYERS):
            yield from _block_shapes(f"dec/blk{i}", dd)
        yield from {"dec/ln_f/g": (dd,), "dec/ln_f/b": (dd,),
                    "dec/out/w": (dd, img.patch_dim), "dec/out/b": (img.patch_dim,)}.items()


def init_params(
    config: EncoderConfig, seed: int = 0, with_decoder: bool = False,
) -> dict[str, Tensor]:
    """Fresh parameter set, drawn in ``param_shapes`` order: unit gains
    (``/g``), zero biases (``/b``), learnable temperature at log(1/0.07),
    and truncated-normal (0.02) weights, embeddings and mask token. The
    truncated-normal draws are what loads ``scipy.special``."""
    rng = per_sample_rng(seed, TAG_INIT, 0, 0)
    constants = {"g": 1.0, "b": 0.0, "logit_scale": LOGIT_SCALE_INIT}  # by last name part
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config, with_decoder):
        value = constants.get(name.rsplit("/", 1)[-1])
        params[name] = ad.parameter(
            _trunc_normal(rng, shape) if value is None else np.full(shape, value))
    return params


# ---------------------------------------------------------------------------
# forward passes


def transformer_block(
    x: Tensor, params: dict, prefix: str, heads: int, attn_bias: Tensor | None = None
) -> Tensor:
    """Pre-norm block: x + attn(ln(x)); x + mlp(ln(x)). No dropout."""
    p = params

    def wb(name):  # a projection's weight and bias
        return p[f"{prefix}/{name}/w"], p[f"{prefix}/{name}/b"]

    h = ad.layer_norm(x, p[f"{prefix}/ln1/g"], p[f"{prefix}/ln1/b"])
    q, k, v = (ad.linear(h, *wb(name)) for name in ("q", "k", "v"))
    x = ad.linear(ad.attention(q, k, v, heads, attn_bias), *wb("attn_out"), residual=x)
    h = ad.layer_norm(x, p[f"{prefix}/ln2/g"], p[f"{prefix}/ln2/b"])
    return ad.mlp(h, *wb("mlp1"), *wb("mlp2"), residual=x)


def _check_mask(mask: PatchMask, n: int, what: str):
    if mask.n_total != n or (mask.visible.size and mask.visible.max() >= n):
        raise DimensionError(
            f"{what} mask covers {mask.n_total} positions, encoder expects {n}"
        )


def encode_image(
    patches: np.ndarray,
    mask: PatchMask | None,
    params: dict,
    config: EncoderConfig,
) -> tuple[Tensor, Tensor]:
    """``(pooled, tokens)``: [B, width] features pooled over the visible
    patches, and the [B, v, width] final-norm tokens they were pooled
    from, which the reconstruction decoder takes.

    The mask selects raw patches before the patch embedding, positional
    embeddings are looked up by original patch index, and the tower runs
    on the v-length sequence. ``mask=None`` (or a ratio-0 mask, whose
    sorted visible set is the identity) is the dense path: same code,
    full gather width.
    """
    img = config.image
    b, n, pd = patches.shape
    if n != img.num_patches or pd != img.patch_dim:
        raise DimensionError(
            f"patches {patches.shape[1:]} do not match config (N={img.num_patches}, dim={img.patch_dim})"
        )
    if mask is None:
        mask = full_mask(n, b)
    _check_mask(mask, n, "patch")

    # the visible patches [B, v, pd], a constant input; no name holds
    # them, so without a tape they are freed once embedded
    x = ad.linear(Tensor(patches[np.arange(b)[:, None], mask.visible]),
                  params["img/patch_embed/w"], params["img/patch_embed/b"],
                  residual=ad.take_rows(params["img/pos"], mask.visible))
    for i in range(img.layers):
        x = transformer_block(x, params, f"img/blk{i}", img.heads)
    x = ad.layer_norm(x, params["img/ln_f/g"], params["img/ln_f/b"])
    return ad.mean_over_axis(x, axis=1), x


def encode_text(
    batch: TokenizedBatch,
    mask: PatchMask | None,
    params: dict,
    config: EncoderConfig,
) -> Tensor:
    """Pooled text features over visible non-padding tokens.

    Visible padding tokens are masked out of attention keys, so they
    cannot influence any other position; pooling likewise skips them.
    The batch runs only up to the last visible column that holds a valid
    token in some row (all ``mask.n_visible`` columns if no row has one):
    the padding columns past it are not computed at all. On the sorted
    rows that flip's masks hold, that is the batch's longest visible
    valid prefix. Padding is inert only up to float32 rounding: that
    width sets the lengths of the softmax sums and the pooling product,
    so a row's features can change in the last bits with the longest
    caption in its batch. A sample with no valid visible token attends
    to and pools over every column the batch runs.
    """
    txt = config.text
    b, length = batch.token_ids.shape
    if length != txt.seq_len:
        raise DimensionError(f"sequence length {length} != configured {txt.seq_len}")
    if mask is None:
        mask = full_mask(length, b)
    _check_mask(mask, length, "token")

    is_valid = mask.visible < batch.valid_lengths[:, None]  # [B, v]
    # run to the last column valid in some row; all visible ones if none is
    v = int(np.flatnonzero(is_valid.any(axis=0)).max(initial=-1)) + 1 or mask.n_visible
    visible, is_valid = mask.visible[:, :v], is_valid[:, :v]
    key_ok = is_valid | ~is_valid.any(axis=1, keepdims=True)

    vis_ids = batch.token_ids[np.arange(b)[:, None], visible]  # [B, v]
    x = ad.add(ad.take_rows(params["txt/tok_emb"], vis_ids),
               ad.take_rows(params["txt/pos"], visible))
    bias = Tensor(np.where(key_ok, 0.0, ATTN_MASK_VALUE)[:, None, None, :])

    for i in range(txt.layers):
        x = transformer_block(x, params, f"txt/blk{i}", txt.heads, attn_bias=bias)
    x = ad.layer_norm(x, params["txt/ln_f/g"], params["txt/ln_f/b"])

    counts = key_ok.sum(axis=1, keepdims=True)
    weights = (key_ok / counts)[:, None, :]  # [B, 1, v]
    pooled = ad.matmul(Tensor(weights), x)
    return ad.reshape(pooled, (b, txt.width))
