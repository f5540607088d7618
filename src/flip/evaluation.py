"""Zero-shot classification, retrieval, linear probing, and the three
inference modes (full view, single masked view, complementary-view
ensemble).

Class embeddings average the normalized embeddings of each prompt
template filled with the class name, then re-normalize. Retrieval ranks
by cosine similarity with stable index order on ties. The linear probe
trains a plain multinomial logistic regression on frozen full-view
features with a cosine-decayed learning rate and no weight decay.

Evaluation embeds on two threads. ``embed_images`` and ``embed_texts``
run their even chunks on the calling thread and their odd ones on the
autodiff worker (``autodiff.on_worker``), and both threads write their
rows into the one output array. Images go ``IMAGE_CHUNK`` = 32 at a time,
so the two threads hold 64 images in flight, no more than one 64-image
chunk on one thread did. An image embedding does not depend on its
chunk, so the result is bit-identical to a one-thread run. Captions stay
at ``EVAL_BATCH`` = 128 per chunk, because a text embedding can depend
on the longest caption in its chunk: a smaller chunk would change the
bits, while the thread a chunk runs on changes none.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import on_worker
from .data import CLASS_NAMES, Dataset
from .encoders import EncoderConfig, encode_image, encode_text, patchify
from .errors import ConfigError
from .masking import TAG_EVAL, PatchMask, complementary_views, per_sample_rng, sample_patch_mask
from .objective import project_and_normalize
from .tokenizer import tokenize_batch

# Captions per text forward and queries per retrieval block. A text
# embedding can change in the last bits with the longest caption in its
# batch (see ``encode_text``), so a different text chunk would change
# the embeddings; at 128 the 112 desk class prompts share one batch.
EVAL_BATCH = 128
# Images per image forward. An image embedding does not depend on the
# rest of its chunk. ``embed_images`` runs every other chunk on the
# autodiff worker, so the two threads together hold at most 64 images
# in flight, the training batch, and a 64-image call runs one chunk on
# each core. At 32 a full-view ``tiny`` chunk peaks at a 512 KiB MLP
# activation ([512, 256] float32). At 128 that activation would be
# 2 MiB, which glibc maps afresh for every op, at about 78k minor page
# faults per ``eval_inference_modes`` call on 1024 images.
IMAGE_CHUNK = 32

DESK_TEMPLATES = (
    "a photo of a {}.",
    "an image of a {}.",
    "a picture of a {}.",
    "a drawing of a {}.",
    "a {}.",
    "the {}.",
    "a photo of the {}.",
)


@dataclass
class PromptSet:
    """Prompt templates (one "{}" placeholder each) over a class list."""

    templates: tuple[str, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        for t in self.templates:
            if t.count("{}") != 1:
                raise ConfigError(f"template needs exactly one placeholder: {t!r}")
        if not self.templates or not self.classes:
            raise ConfigError("prompt set needs at least one template and one class")


def desk_prompts() -> PromptSet:
    """The 7 templates over the 16 classes of the synthetic shapes domain.

    Runs on real data should import the published prompt set of the
    target benchmark instead.
    """
    return PromptSet(templates=DESK_TEMPLATES, classes=CLASS_NAMES)


@dataclass
class EvalReport:
    metric: str
    value: float
    mode: str  # full | masked | ensemble
    config: str  # short hash of the evaluation setup

    def to_json(self) -> str:
        return json.dumps(
            {"metric": self.metric, "value": self.value, "mode": self.mode,
             "config": self.config}
        )


def config_hash(*parts) -> str:
    text = "|".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# embedding extraction (no autodiff tape)


def _alternate(n: int, size: int, embed) -> None:
    """Call ``embed(lo, hi)`` over the ``size``-row chunks of ``range(n)``:
    the even chunks on the calling thread, the odd ones on the autodiff
    worker beside it. Returns once both are done and raises what either
    raised."""
    spans = [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def run(part):
        for lo, hi in part:
            embed(lo, hi)

    if len(spans) < 2:
        run(spans)
        return
    with on_worker(lambda: run(spans[1::2])):
        run(spans[::2])


def embed_images(params, config: EncoderConfig, images: np.ndarray, mask=None) -> np.ndarray:
    """Normalized ``[n, embed_dim]`` float32 image embeddings, in row
    order, ``IMAGE_CHUNK`` images per forward on two threads, so
    ``patchify`` scales uint8 images to [0, 1] one chunk at a time."""
    out = np.empty((images.shape[0], config.embed_dim), np.float32)

    def embed(lo, hi):
        chunk = patchify(images[lo:hi], config.image.patch_size)
        m = None if mask is None else _slice_mask(mask, lo, hi)
        pooled, _ = encode_image(chunk, m, params, config)
        out[lo:hi] = project_and_normalize(pooled, params["proj/img/w"]).data

    _alternate(images.shape[0], IMAGE_CHUNK, embed)
    return out


def _slice_mask(mask, lo, hi):
    return PatchMask(ratio=mask.ratio, visible=mask.visible[lo:hi],
                     hidden=mask.hidden[lo:hi], n_total=mask.n_total)


def embed_texts(params, config: EncoderConfig, captions) -> np.ndarray:
    """Normalized ``[n, embed_dim]`` float32 text embeddings with no
    masking, ``EVAL_BATCH`` captions per forward on two threads."""
    out = np.empty((len(captions), config.embed_dim), np.float32)

    def embed(lo, hi):
        tokens = tokenize_batch(captions[lo:hi], seq_len=config.text.seq_len)
        pooled = encode_text(tokens, None, params, config)
        out[lo:hi] = project_and_normalize(pooled, params["proj/txt/w"]).data

    _alternate(len(captions), EVAL_BATCH, embed)
    return out


def _renormalize(x: np.ndarray) -> np.ndarray:
    return x / (np.linalg.norm(x, axis=1, keepdims=True) + 1e-8)


def class_embeddings(classes, prompts: PromptSet, params, config: EncoderConfig) -> np.ndarray:
    """One embedding per class: mean of its filled-template embeddings,
    re-normalized."""
    if not len(classes):
        raise ConfigError("no classes given")
    captions = [t.format(c) for c in classes for t in prompts.templates]
    emb = embed_texts(params, config, captions)
    per_class = emb.reshape(len(classes), len(prompts.templates), -1).mean(axis=1)
    return _renormalize(per_class)


# ---------------------------------------------------------------------------
# metrics


def zero_shot_classify(image_emb: np.ndarray, class_emb: np.ndarray) -> np.ndarray:
    """Nearest class embedding by cosine similarity; ties go to the
    lowest class index."""
    return np.argmax(image_emb @ class_emb.T, axis=1)


def accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predicted == labels))


def check_recall_k(k: int, gallery_size: int) -> None:
    """Refuse a retrieval cutoff outside [1, gallery_size]."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > gallery_size:
        raise ConfigError(f"k={k} exceeds gallery size {gallery_size}")


def recall_at_k(
    query_emb: np.ndarray, gallery_emb: np.ndarray, ground_truth, k: int
) -> float:
    """Fraction of queries whose true match ranks in the top k by cosine
    similarity (descending; ties broken by gallery index, NaN last).

    Nothing is sorted: a query hits when fewer than k gallery items rank
    above its match, counting those with a higher score and those with
    an equal score and a lower index."""
    m = gallery_emb.shape[0]
    check_recall_k(k, m)
    n = query_emb.shape[0]
    truth = np.broadcast_to(np.asarray(ground_truth).reshape(-1), (n,))
    if n and not 0 <= truth.min() <= truth.max() < m:
        raise ConfigError(f"ground truth indices must lie in [0, {m})")
    index = np.arange(m)
    hit = np.empty(n, dtype=bool)
    # a block of queries at a time, so the similarity matrix never exists whole
    for lo in range(0, n, EVAL_BATCH):
        t = truth[lo : lo + EVAL_BATCH]
        sims = query_emb[lo : lo + EVAL_BATCH] @ gallery_emb.T
        np.fmax(sims, -np.inf, out=sims)  # NaN ranks below every score
        match = sims[np.arange(t.size), t][:, None]
        above = (np.count_nonzero(sims > match, axis=1)
                 + np.count_nonzero((sims == match) & (index < t[:, None]), axis=1))
        hit[lo : lo + EVAL_BATCH] = above < k
    return float(np.mean(hit))


@dataclass
class ProbeConfig:
    lr: float = 2.0
    epochs: int = 300
    batch_size: int = 512
    train_fraction: float = 0.8
    seed: int = 0


def linear_probe(
    features: np.ndarray, labels: np.ndarray, probe: ProbeConfig = ProbeConfig()
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Multinomial logistic regression on frozen features.

    Plain mini-batch gradient descent with cosine-decayed lr and no
    weight decay; returns ((weights, bias), held-out accuracy).
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ConfigError("linear probe needs at least two classes")
    k = int(classes.max()) + 1
    n, d = features.shape
    rng = np.random.default_rng(probe.seed)
    order = rng.permutation(n)
    n_train = int(probe.train_fraction * n)
    if n_train == 0 or n_train == n:
        raise ConfigError(f"degenerate train fraction {probe.train_fraction}")
    tr, te = order[:n_train], order[n_train:]

    w = np.zeros((d, k), dtype=np.float64)
    b = np.zeros(k, dtype=np.float64)
    x_tr, y_tr = features[tr].astype(np.float64), labels[tr]
    onehot = np.eye(k)[y_tr]
    steps_per_epoch = max(1, n_train // probe.batch_size)
    total = probe.epochs * steps_per_epoch
    t = 0
    for epoch in range(probe.epochs):
        perm = rng.permutation(n_train)
        for s in range(steps_per_epoch):
            idx = perm[s * probe.batch_size : (s + 1) * probe.batch_size]
            if idx.size == 0:
                continue
            xb = x_tr[idx]
            logits = xb @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot[idx]) / idx.size
            lr = probe.lr * 0.5 * (1.0 + np.cos(np.pi * t / total))
            w -= lr * (xb.T @ g)
            b -= lr * g.sum(axis=0)
            t += 1
    pred = np.argmax(features[te].astype(np.float64) @ w + b, axis=1)
    return (w, b), float(np.mean(pred == labels[te]))


# ---------------------------------------------------------------------------
# inference modes


def zero_shot_accuracy(
    params, config: EncoderConfig, dataset: Dataset, prompts: PromptSet,
    image_emb: Optional[np.ndarray] = None,
) -> float:
    class_emb = class_embeddings(prompts.classes, prompts, params, config)
    if image_emb is None:
        image_emb = embed_images(params, config, dataset.images)
    return accuracy(zero_shot_classify(image_emb, class_emb), dataset.labels)


def eval_inference_modes(
    params,
    config: EncoderConfig,
    dataset: Dataset,
    ratio: float,
    prompts: Optional[PromptSet] = None,
    seed: int = 0,
) -> list[EvalReport]:
    """Zero-shot accuracy under full, masked, and ensemble inference.

    Full view encodes intact images; masked draws one random mask per
    image; ensemble encodes the complementary views of a per-image
    partition and averages the normalized embeddings, re-normalizing
    the mean.
    """
    prompts = prompts or desk_prompts()
    n = len(dataset)
    n_patches = config.image.num_patches
    class_emb = class_embeddings(prompts.classes, prompts, params, config)
    labels = dataset.labels
    cfg_hash = config_hash(config, ratio, seed, "modes")

    def report(mode, emb):
        value = accuracy(zero_shot_classify(emb, class_emb), labels)
        return EvalReport(metric="zero_shot_acc", value=value, mode=mode, config=cfg_hash)

    full = report("full", embed_images(params, config, dataset.images))

    rng = per_sample_rng(seed, TAG_EVAL, 0, 0)
    one_mask = sample_patch_mask(n_patches, ratio, rng, batch_size=n)
    masked = report("masked", embed_images(params, config, dataset.images, mask=one_mask))

    views = complementary_views(n_patches, ratio, rng, batch_size=n)
    acc = np.zeros((n, class_emb.shape[1]))
    for vm in views:
        acc += _renormalize(embed_images(params, config, dataset.images, mask=vm))
    ensemble = report("ensemble", _renormalize(acc / len(views)))
    return [full, masked, ensemble]
