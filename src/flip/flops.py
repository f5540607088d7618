"""Analytic forward-pass FLOP model for the two encoder towers.

Convention: multiply-accumulate counts as 2 FLOPs; per transformer layer
over v tokens of width d that is 8*v*d^2 for the QKV and output
projections, 16*v*d^2 for the 4x MLP, and 4*v^2*d for the attention
score and value matmuls. The image patch-embedding projection is
included (about 0.5% of a large tower); token-embedding lookups and
elementwise costs (layer norm, softmax, GELU, sub-1% at these widths)
are not. All counts are per sample.

The text tower is counted at ``visible_count(SEQ_LEN, ratio)`` tokens.
That is an upper bound on what runs: ``encode_text`` computes only up
to the longest visible valid (non-padding) prefix in the batch, so on
short captions the measured text cost sits below this count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .encoders import EncoderConfig
from .masking import visible_count
from .tokenizer import SEQ_LEN


@dataclass
class FlopReport:
    """Per-sample forward FLOPs and ratios against the unmasked baseline.

    ``text_fraction`` is text-tower cost relative to the unmasked image
    tower, so it does not move with the image masking ratio.
    ``text_flops`` counts ``visible_count(SEQ_LEN, text_mask_ratio)``
    tokens, the upper bound: padding past a batch's longest visible
    valid prefix is never computed.
    """

    mask_ratio: float
    text_mask_ratio: float
    image_flops: int
    text_flops: int
    total_flops: int
    ratio_vs_unmasked: float
    text_fraction: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _tower_flops(layers: int, width: int, tokens: int) -> int:
    per_layer = 24 * tokens * width * width + 4 * tokens * tokens * width
    return layers * per_layer


def count_flops(
    config: EncoderConfig, mask_ratio: float, text_mask_ratio: float = 0.0
) -> FlopReport:
    img, txt = config.image, config.text
    n = img.num_patches

    def image_flops(ratio: float) -> int:
        v = visible_count(n, ratio)
        return _tower_flops(img.layers, img.width, v) + 2 * v * img.patch_dim * img.width

    def text_flops(ratio: float) -> int:
        return _tower_flops(txt.layers, txt.width, visible_count(SEQ_LEN, ratio))

    image = image_flops(mask_ratio)
    text = text_flops(text_mask_ratio)
    image_dense = image_flops(0.0)
    text_dense = text_flops(0.0)
    return FlopReport(
        mask_ratio=mask_ratio,
        text_mask_ratio=text_mask_ratio,
        image_flops=image,
        text_flops=text,
        total_flops=image + text,
        ratio_vs_unmasked=(image + text) / (image_dense + text_dense),
        text_fraction=text / image_dense,
    )
