"""Optimization loop: AdamW with decoupled weight decay, linear-scaled
learning rate (base_lr * batch / 256) with linear warmup and cosine
decay to zero, masked contrastive pre-training, and a short unmasked
tuning stage at mask ratio 0.

All randomness is counter-based (seed, stage tag, epoch, sample index),
so a fixed seed reproduces bit-identical state and a checkpoint resume
continues the exact same trajectory. ``run_pretraining`` drives every
run, fresh or resumed. At mask ratio 0 the mask draw keeps every patch,
and a step reconstructs only when some patch is hidden.

``train_step`` takes a ready batch and its lr, epoch, sample indices and
mask ratio from ``run_phase``, which tokenizes the captions once per call.
The text tower shares nothing with the image side up to the InfoNCE,
so a step encodes the text on the autodiff worker thread
(``Graph.branch``) while the calling thread encodes the image, runs the
decoder and projects the image, and the backward walks overlap the same
way. Losses, gradients and moments are bit-identical to running it all
on one thread.

The parameters and both Adam moments share one flat float32 arena (see
``TrainState``), so the optimizer runs a few long cache-blocked loops per
step rather than one small update per tensor. Checkpoints still store
every tensor by name.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import _join_u48, _split_u48, atomic_write, load_tensors, save_tensors
from .data import Dataset, read_dataset
from .encoders import (
    EncoderConfig,
    ImageTowerConfig,
    TextTowerConfig,
    encode_image,
    encode_text,
    init_params,
    param_shapes,
    patchify,
    preset,
)
from .errors import ConfigError, DataFormatError, DimensionError
from .flops import count_flops
from .masking import (
    TAG_SHUFFLE,
    check_policy,
    patch_masks_for_samples,
    per_sample_rng,
    text_masks_for_samples,
    visible_count,
)
from .objective import (
    LOG_MAX_LOGIT_SCALE,
    LossBundle,
    info_nce,
    project_and_normalize,
    reconstruction_loss,
)
from .report import CURVE_HEADER, TIMING_HEADER, read_curve, read_timing, write_rows
from .tokenizer import SEQ_LEN, TokenizedBatch, default_vocab, tokenize_batch

logger = logging.getLogger(__name__)

ADAM_EPS = 1e-8
TUNE_LR_FACTOR = 0.01  # unmasked tuning runs at base_lr / 100
TUNE_SAMPLES_FRACTION = 0.05
TUNE_WARMUP_FRACTION = 0.2
LOG_EVERY = 50  # steps between loss log lines in run_pretraining


@dataclass
class TrainConfig:
    preset: str = "tiny"
    base_lr: float = 6e-3  # per-256 reference; the linear rule scales it
    batch_size: int = 64
    weight_decay: float = 0.2
    betas: tuple[float, float] = (0.9, 0.95)
    warmup_samples: int = 6_400
    total_samples: int = 192_000
    mask_ratio: float = 0.5
    text_mask_policy: str = "prioritized"
    text_mask_ratio: float = 0.5
    rec_weight: float = 0.0
    seed: int = 0
    train_data: str = ""
    eval_data: str = ""
    eval_every_samples: int = 0  # 0: only the final point

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.warmup_samples < 0:
            raise ConfigError(f"warmup_samples must be >= 0, got {self.warmup_samples}")
        if self.total_samples < self.warmup_samples:
            raise ConfigError(
                f"total_samples {self.total_samples} < warmup_samples {self.warmup_samples}"
            )
        check_policy(self.text_mask_policy)
        # a ratio must leave a position visible; an unknown preset is refused here too
        n_patches = preset(self.preset).image.num_patches
        for name, n in (("mask_ratio", n_patches), ("text_mask_ratio", SEQ_LEN)):
            try:
                visible_count(n, getattr(self, name))
            except ConfigError as e:
                raise ConfigError(f"{name}: {e}") from None
        for name in ("base_lr", "weight_decay", "rec_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not all(0.0 <= beta < 1.0 for beta in self.betas):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
        if not 0 <= self.seed < 2**48:  # checkpoints store the seed as a 48-bit counter
            raise ConfigError(f"seed must be in [0, 2**48), got {self.seed}")
        if self.eval_every_samples < 0:
            raise ConfigError(f"eval_every_samples must be >= 0, got {self.eval_every_samples}")

    @property
    def total_steps(self) -> int:
        return self.total_samples // self.batch_size


def effective_lr(config: TrainConfig) -> float:
    """Linear scaling rule: lr = base_lr * batch_size / 256."""
    if config.batch_size <= 0:
        raise ConfigError("batch_size must be positive")
    return config.base_lr * config.batch_size / 256.0


def lr_at(samples_seen: int, config: TrainConfig) -> float:
    """Linear warmup to the effective lr, then cosine decay to 0."""
    if not 0 <= samples_seen <= config.total_samples:
        raise ConfigError(
            f"samples_seen {samples_seen} outside [0, {config.total_samples}]"
        )
    peak = effective_lr(config)
    if samples_seen <= config.warmup_samples:
        if config.warmup_samples == 0:
            return peak
        return peak * samples_seen / config.warmup_samples
    span = config.total_samples - config.warmup_samples
    progress = (samples_seen - config.warmup_samples) / span
    return peak * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# config file (UTF-8 "key = value" lines)


def save_config(config: TrainConfig, path) -> None:
    lines = []
    for f_ in dataclasses.fields(config):
        value = getattr(config, f_.name)
        if f_.name == "betas":
            value = f"{value[0]},{value[1]}"
        lines.append(f"{f_.name} = {value}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    """UTF-8 ``text`` to ``path`` through ``atomic_write``: a write that
    raises leaves the old file."""
    with atomic_write(path) as f:
        f.write(text.encode("utf-8"))


def load_config(path) -> TrainConfig:
    fields = {f_.name: f_ for f_ in dataclasses.fields(TrainConfig)}
    kwargs = {}
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        parse = {"int": int, "float": float}.get(fields[key].type, str)
        try:
            if key == "betas":  # exactly two floats
                beta1, beta2 = map(float, value.replace("(", "").replace(")", "").split(","))
                kwargs[key] = (beta1, beta2)
            else:
                kwargs[key] = parse(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# state


@dataclass
class TrainState:
    """Everything a run carries from one step to the next.

    The parameters and both Adam moments live in one flat float32 arena,
    three contiguous rows in ``params`` order: ``params[name].data``,
    ``adam_m[name]`` and ``adam_v[name]`` are views into it, so
    ``adamw_step`` updates long runs of memory instead of one tensor at a
    time. Building the state and unpickling it both copy the arrays into a
    fresh arena; whatever updates a parameter must write into its ``data``
    in place.
    """

    config: TrainConfig
    encoder_config: EncoderConfig
    params: dict[str, Tensor]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int = 0
    adam_t: int = 0  # steps since the moments were (re)initialized
    samples_seen: int = 0
    aborted_steps: int = 0

    def __post_init__(self):
        self._build_arena()

    def _build_arena(self) -> None:
        """Copy parameters and moments into a fresh arena and rebind every
        tensor and moment entry to its view."""
        sizes = [p.data.size for p in self.params.values()]
        ends = np.cumsum(sizes).tolist()
        self._spans = {name: (end - size, end) for name, size, end in zip(self.params, sizes, ends)}
        self._arena = np.empty((3, sum(sizes)), dtype=np.float32)
        for name, p in self.params.items():
            lo, hi = self._spans[name]
            views = [row[lo:hi].reshape(p.data.shape) for row in self._arena]
            for view, source in zip(views, (p.data, self.adam_m[name], self.adam_v[name])):
                view[...] = source
            p.data, self.adam_m[name], self.adam_v[name] = views

    def __getstate__(self):
        # the views pickle as copies of their data; the arena is rebuilt from them
        return {k: v for k, v in self.__dict__.items() if k not in ("_arena", "_spans")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_arena()


def init_train_state(config: TrainConfig) -> TrainState:
    enc_cfg = preset(config.preset)
    params = init_params(enc_cfg, seed=config.seed, with_decoder=config.rec_weight > 0)
    return TrainState(
        config=config,
        encoder_config=enc_cfg,
        params=params,
        adam_m={k: np.zeros_like(p.data) for k, p in params.items()},
        adam_v={k: np.zeros_like(p.data) for k, p in params.items()},
    )


def reset_moments(state: TrainState) -> None:
    state._arena[1:] = 0.0
    state.adam_t = 0


_ADAM_BLOCK = 1 << 16  # elements per AdamW block: its five float32 slices (1.25 MB) stay in L2


def _adamw_runs(state: TrainState, names: list[str]) -> list[list]:
    """[lo, hi, decay] arena runs covering ``names``: consecutive
    parameters merge while they are adjacent and share a decay flag."""
    runs: list[list] = []
    for name in names:
        lo, hi = state._spans[name]
        decay = bool(state.config.weight_decay) and name != "logit_scale"
        if runs and runs[-1][1] == lo and runs[-1][2] == decay:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, decay])
    return runs


def adamw_step(state: TrainState, lr: float) -> bool:
    """Bias-corrected Adam update with decoupled weight decay, from each
    parameter's ``grad``. Decay multiplies parameters by (1 - lr*wd)
    separately from the gradient step; the logit scale is exempt. A
    parameter whose ``grad`` is None is left alone: no moment update and
    no decay. A non-finite gradient aborts the whole step (no update)
    and is reported, not raised.

    The gradients are concatenated in arena order and checked by one
    ``isfinite``. The update then runs over each contiguous run of
    parameters that have a gradient, in blocks of ``_ADAM_BLOCK``
    elements with one preallocated scratch row. Each element goes
    through the same float32 operations, in the same order, as a
    per-tensor update would apply.
    """
    names = [name for name, p in state.params.items() if p.grad is not None]
    flat_grad = np.concatenate([state.params[name].grad.reshape(-1) for name in names]
                               or [np.empty(0)], dtype=np.float32)
    if not np.isfinite(flat_grad).all():
        bad = next(name for name in names if not np.isfinite(state.params[name].grad).all())
        state.aborted_steps += 1
        logger.error("non-finite gradient in %s at step %d; step aborted", bad, state.step)
        return False
    beta1, beta2 = state.config.betas
    lr_wd = lr * state.config.weight_decay
    t = state.adam_t + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    params, ms, vs = state._arena
    scratch = np.empty(min(flat_grad.size, _ADAM_BLOCK), dtype=np.float32)
    g_lo = 0
    for lo, hi, decay in _adamw_runs(state, names):
        for s in range(lo, hi, _ADAM_BLOCK):
            e = min(s + _ADAM_BLOCK, hi)
            # g is this step's own copy, so it serves as scratch once m has used it
            g = flat_grad[g_lo + s - lo : g_lo + e - lo]
            p, m, v, a = params[s:e], ms[s:e], vs[s:e], scratch[: e - s]
            np.subtract(g, m, out=a)  # m += (1 - beta1) * (g - m)
            a *= 1.0 - beta1
            m += a
            g *= g  # v += (1 - beta2) * (g * g - v)
            g -= v
            g *= 1.0 - beta2
            v += g
            if decay:  # p -= lr * wd * p
                np.multiply(p, lr_wd, out=a)
                p -= a
            np.divide(v, bc2, out=g)  # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            np.divide(m, bc1, out=a)
            a *= lr
            a /= g
            p -= a
        g_lo += hi - lo
    state.adam_t = t
    return True


def clamp_logit_scale(state: TrainState) -> None:
    np.minimum(state.params["logit_scale"].data, LOG_MAX_LOGIT_SCALE,
               out=state.params["logit_scale"].data)


def train_step(
    state: TrainState,
    images: np.ndarray,
    tokens: TokenizedBatch,
    *,
    epoch: int,
    sample_indices: np.ndarray,
    lr: float,
    mask_ratio: float,
) -> LossBundle:
    """One optimization step on the images and token rows of the dataset
    samples ``sample_indices``, which with ``epoch`` key the mask draws:
    mask; encode, reconstruct (when ``rec_weight > 0`` and a patch is
    hidden) and project the image while a graph branch encodes the text;
    project the text; InfoNCE; backward, with the text tower's walk again
    beside the rest; AdamW at ``lr``; clamp the logit scale. Mutates
    ``state`` in place; returns the losses.
    """
    cfg, enc_cfg, params = state.config, state.encoder_config, state.params
    b = images.shape[0]
    if tokens.batch_size != b:
        raise DimensionError(f"batch mismatch: {b} images vs {tokens.batch_size} captions")

    patches = patchify(images, enc_cfg.image.patch_size)
    pmask = patch_masks_for_samples(enc_cfg.image.num_patches, mask_ratio, cfg.seed, epoch,
                                    sample_indices)
    tmask = text_masks_for_samples(
        tokens, cfg.text_mask_ratio, cfg.text_mask_policy, cfg.seed, epoch, sample_indices
    )

    for p in params.values():
        p.zero_grad()
    rec = None
    with ad.Graph() as graph:
        # the image tower, the decoder and the image projection run beside
        # the text tower, forward and backward
        text = graph.branch(encode_text, tokens, tmask, params, enc_cfg)
        pooled, visible_tokens = encode_image(patches, pmask, params, enc_cfg)
        if cfg.rec_weight > 0 and pmask.hidden.size:
            rec = reconstruction_loss(params, visible_tokens, pmask, patches, enc_cfg)
        image_emb = project_and_normalize(pooled, params["proj/img/w"])
        text_emb = project_and_normalize(text(), params["proj/txt/w"])
        total = contrastive = info_nce(image_emb, text_emb, params["logit_scale"])
        if rec is not None:
            total = ad.add(contrastive, ad.scale(rec, cfg.rec_weight))
        graph.backward(total)

    adamw_step(state, lr)
    clamp_logit_scale(state)
    state.step += 1
    state.samples_seen += b
    return LossBundle(
        contrastive=float(contrastive.data),
        reconstruction=float(rec.data) if rec is not None else None,
        total=float(total.data),
    )


# ---------------------------------------------------------------------------
# run loops


def _epoch_indices(n: int, seed: int, epoch: int) -> np.ndarray:
    return per_sample_rng(seed, TAG_SHUFFLE, epoch, 0).permutation(n)


def run_phase(
    state: TrainState,
    dataset: Dataset,
    schedule: TrainConfig,
    n_steps: int,
    *,
    schedule_origin: int = 0,
    on_step: Optional[Callable[[TrainState, LossBundle], None]] = None,
) -> TrainState:
    """Drive train_step for n_steps with the lr schedule and mask ratio
    of ``schedule``.

    The dataset's captions are tokenized once per call; each step takes
    the token rows at the same shuffled indices as its images.

    The schedule is positioned at samples_seen relative to
    ``schedule_origin`` (0 for pre-training, the tune start for the
    unmasked stage), so a checkpoint resume lands on the exact same
    learning rates. Epochs and batch slots derive from state.step, which
    likewise replays the same shuffles.
    """
    n = len(dataset)
    b = state.config.batch_size
    if n < b:
        raise ConfigError(f"dataset of {n} samples is smaller than batch {b}")
    per_epoch = n // b
    tokens = tokenize_batch(dataset.captions)
    perm_epoch, perm = -1, None
    for _ in range(n_steps):
        epoch, slot = divmod(state.step, per_epoch)
        if epoch != perm_epoch:
            perm = _epoch_indices(n, state.config.seed, epoch)
            perm_epoch = epoch
        idx = perm[slot * b : (slot + 1) * b]
        phase_samples = min(state.samples_seen - schedule_origin + b, schedule.total_samples)
        bundle = train_step(
            state,
            dataset.images[idx],
            TokenizedBatch(tokens.token_ids[idx], tokens.valid_lengths[idx]),
            epoch=epoch,
            sample_indices=idx,
            lr=lr_at(phase_samples, schedule),
            mask_ratio=schedule.mask_ratio,
        )
        if on_step is not None:
            on_step(state, bundle)
    return state


def pretrain(
    state: TrainState,
    dataset: Dataset,
    *,
    on_step=None,
    n_steps: Optional[int] = None,
) -> TrainState:
    cfg = state.config
    remaining = cfg.total_steps - state.step
    steps = remaining if n_steps is None else min(n_steps, remaining)
    return run_phase(state, dataset, cfg, steps, on_step=on_step)


def unmasked_tune(
    state: TrainState,
    dataset: Dataset,
    *,
    tune_samples: Optional[int] = None,
    on_step=None,
) -> TrainState:
    """Continue pre-training at mask ratio 0 to close the masking gap.

    By default 5% of the pre-training samples; base lr lowered 100x (the
    4e-6 -> 4e-8 proportion), warmup shortened to 20% of the tuning
    span. Optimizer moments restart fresh for the new stage.
    """
    cfg = state.config
    if tune_samples is None:
        tune_samples = int(TUNE_SAMPLES_FRACTION * cfg.total_samples)
    if tune_samples == 0:
        return state
    steps = max(1, tune_samples // cfg.batch_size)
    schedule = replace(
        cfg,
        base_lr=cfg.base_lr * TUNE_LR_FACTOR,
        warmup_samples=int(TUNE_WARMUP_FRACTION * tune_samples),
        total_samples=tune_samples,
        mask_ratio=0.0,
    )
    reset_moments(state)
    return run_phase(
        state, dataset, schedule, steps, schedule_origin=state.samples_seen, on_step=on_step
    )


# ---------------------------------------------------------------------------
# checkpoint glue


def save_state(path, state: TrainState) -> None:
    enc = state.encoder_config
    tensors: dict[str, np.ndarray] = {}
    text = astuple(enc.text) + (SEQ_LEN, len(default_vocab()))  # slots 8, 9: the tokenizer's
    tensors["meta/geometry"] = np.asarray(
        astuple(enc.image) + text + (enc.embed_dim,), dtype=np.float32
    )
    counters = []
    for value in (state.step, state.adam_t, state.samples_seen,
                  state.aborted_steps, state.config.seed):
        counters.extend(_split_u48(value))
    tensors["meta/counters"] = np.asarray(counters, dtype=np.float32)
    for name, p in state.params.items():
        tensors[f"param/{name}"] = p.data
        tensors[f"m/{name}"] = state.adam_m[name]
        tensors[f"v/{name}"] = state.adam_v[name]
    save_tensors(path, tensors)


def _meta(tensors: dict[str, np.ndarray], name: str, n: int, minimum: int, path) -> list[int]:
    """The stored ``meta/<name>`` entry: n finite integers >= minimum."""
    arr = tensors.get(f"meta/{name}")
    if arr is None or arr.shape != (n,) or not (np.isfinite(arr).all() and (arr >= minimum).all()
                                                and (arr == np.round(arr)).all()):
        raise DataFormatError(f"{path}: 'meta/{name}' is absent or not {n} integers >= {minimum}")
    return [int(x) for x in arr]


def _entries(tensors: dict, prefix: str, shapes, path) -> dict[str, np.ndarray]:
    """The ``prefix`` entries of a checkpoint, in the order of the (name, shape)
    pairs ``shapes``. A missing, misshapen or unexpected entry is a data error;
    the walk stops at the first, so it never goes past what the file holds."""
    found = {key[len(prefix):]: arr for key, arr in tensors.items() if key.startswith(prefix)}
    entries = {}
    for name, shape in shapes:
        arr = found.pop(name, None)
        if arr is None or arr.shape != shape:
            raise DataFormatError(f"{path}: checkpoint entry {prefix + name!r} is "
                                  f"{'absent' if arr is None else arr.shape}, "
                                  f"but the stored geometry needs {shape}")
        entries[name] = arr
    if found:
        raise DataFormatError(f"{path}: unexpected checkpoint entry {prefix + min(found)!r}")
    return entries


def _load_checkpoint(path, keep: tuple[str, ...] | None = None
                     ) -> tuple[dict[str, np.ndarray], EncoderConfig, dict[str, Tensor]]:
    """The stored tensors that ``load_tensors`` keeps, the geometry and
    the parameters of a checkpoint. The geometry's text length and
    vocabulary slots must hold the tokenizer's, and the parameters must be
    exactly the stored geometry's ``param_shapes``, with the decoder if the
    file holds one."""
    tensors = load_tensors(path, keep)
    vals = _meta(tensors, "geometry", 11, 1, path)
    if vals[8:10] != [SEQ_LEN, len(default_vocab())]:
        raise DataFormatError(f"{path}: stored geometry's text length and vocabulary {vals[8:10]} "
                              f"are not the tokenizer's {[SEQ_LEN, len(default_vocab())]}")
    with_decoder = any(key.startswith("param/dec/") for key in tensors)
    try:
        enc_cfg = EncoderConfig(ImageTowerConfig(*vals[:5]), TextTowerConfig(*vals[5:8]),
                                vals[10])
        stored = _entries(tensors, "param/", param_shapes(enc_cfg, with_decoder), path)
    except ConfigError as e:
        raise DataFormatError(f"{path}: invalid stored geometry: {e}") from e
    return tensors, enc_cfg, {name: ad.parameter(arr) for name, arr in stored.items()}


def load_state(path, config: TrainConfig) -> TrainState:
    """Resume the training state stored at ``path`` under ``config``.

    Counters that are not 10 non-negative integers, or moments whose
    names or shapes are not the parameters', are a ``DataFormatError``.
    A checkpoint whose geometry is not ``config.preset``'s, whose seed is
    not ``config.seed``, or that has no decoder while ``config`` trains
    one is refused with ``ConfigError``.
    """
    tensors, enc_cfg, params = _load_checkpoint(path)
    counters = _meta(tensors, "counters", 10, 0, path)
    step, adam_t, samples_seen, aborted, seed = map(_join_u48, counters[0::2], counters[1::2])
    shapes = [(name, p.data.shape) for name, p in params.items()]
    adam_m, adam_v = (_entries(tensors, prefix, shapes, path) for prefix in ("m/", "v/"))
    if enc_cfg != preset(config.preset):
        raise ConfigError(f"{path}: stored geometry is not preset {config.preset!r}'s")
    if seed != config.seed:
        raise ConfigError(f"{path}: stored seed {seed} is not the config's {config.seed}")
    if config.rec_weight > 0 and not any(name.startswith("dec/") for name in params):
        raise ConfigError(f"{path}: rec_weight > 0 but the checkpoint has no decoder")
    return TrainState(
        config=config,
        encoder_config=enc_cfg,
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        step=step,
        adam_t=adam_t,
        samples_seen=samples_seen,
        aborted_steps=aborted,
    )


def load_encoder(path) -> tuple[dict[str, Tensor], EncoderConfig]:
    """Parameters and geometry only, for evaluation. The Adam moments are
    parsed and bounds-checked like every entry, but never read into
    memory."""
    _, enc_cfg, params = _load_checkpoint(path, keep=("meta/", "param/"))
    return params, enc_cfg


def read_dataset_for(path, enc_cfg: EncoderConfig) -> Dataset:
    """``read_dataset``, refusing images the image tower cannot take."""
    dataset = read_dataset(path)
    side = enc_cfg.image.image_size
    if dataset.images.shape[1:] != (side, side, 3):
        h, w, c = dataset.images.shape[1:]
        raise DataFormatError(f"{path}: images are {h}x{w}x{c}, "
                              f"but the image tower takes {side}x{side}x3")
    return dataset


# ---------------------------------------------------------------------------
# run directories and the scaling harness


def run_pretraining(config: TrainConfig, out_dir, resume=None) -> TrainState:
    """Full pre-training run, fresh or continued from the checkpoint
    ``resume``, writing a self-contained run directory: config.txt,
    flops.json, curve.csv (zero-shot accuracy at every multiple of
    ``eval_every_samples``, and at the end), timing.csv (seconds since the
    call began, less evaluation) and final.ckpt. A resumed run keeps the
    rows that ``out_dir`` already holds up to the checkpoint's samples,
    and its seconds continue from the last kept one. Nothing is written
    before the checkpoint, the datasets and those rows have been read.
    """
    from .evaluation import desk_prompts, zero_shot_accuracy

    t_start = time.monotonic()
    if not config.train_data:
        raise ConfigError("config.train_data is required")
    state = init_train_state(config) if resume is None else load_state(resume, config)
    train_set = read_dataset_for(config.train_data, state.encoder_config)
    eval_set = (read_dataset_for(config.eval_data, state.encoder_config)
                if config.eval_data else None)
    out = Path(out_dir)

    def kept_rows(read, name: str) -> list:
        """The rows of ``out/name`` that a resumed run continues from."""
        if resume is None or not (out / name).exists():
            return []
        return [row for row in read(out / name) if row[0] <= state.samples_seen]

    curve_rows = kept_rows(read_curve, "curve.csv")
    timing_rows = kept_rows(read_timing, "timing.csv")
    t_start -= timing_rows[-1][1] if timing_rows else 0.0  # seconds continue from the kept rows
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / "config.txt")
    flop_report = count_flops(state.encoder_config, config.mask_ratio, config.text_mask_ratio)
    _write_text(out / "flops.json", flop_report.to_json())

    prompts = desk_prompts()
    eval_seconds = 0.0

    def eval_point():
        nonlocal eval_seconds
        if eval_set is None:
            return
        t_eval = time.monotonic()
        timing_rows.append((state.samples_seen, t_eval - t_start - eval_seconds))
        value = zero_shot_accuracy(state.params, state.encoder_config, eval_set, prompts)
        curve_rows.append((state.samples_seen, "zero_shot_acc", value))
        logger.info("samples %d: zero-shot %.4f", state.samples_seen, value)
        eval_seconds += time.monotonic() - t_eval

    every = config.eval_every_samples or config.total_samples
    next_eval = (state.samples_seen // every + 1) * every

    def on_step(st, bundle):
        nonlocal next_eval
        if st.step % LOG_EVERY == 0:
            logger.info("step %d loss %.4f", st.step, bundle.total)
        if st.samples_seen >= next_eval:
            eval_point()
            next_eval += every

    pretrain(state, train_set, on_step=on_step)
    if not curve_rows or curve_rows[-1][0] != state.samples_seen:
        eval_point()

    write_rows(out / "curve.csv", CURVE_HEADER, curve_rows)
    write_rows(out / "timing.csv", TIMING_HEADER, timing_rows)
    save_state(out / "final.ckpt", state)
    return state


SCALING_AXES = ("model", "data", "schedule")
_BIGGER = {"tiny": "small", "B-like": "L-like", "L-like": "H-like"}


def scaled_config(base: TrainConfig, axis: str, workdir) -> TrainConfig:
    """The controlled variant for one scaling axis.

    model: next preset up, same data and schedule. data: twice the
    unique training data at the same total samples (regenerated next to
    the original). schedule: twice the total samples.
    """
    if axis not in SCALING_AXES:
        raise ConfigError(f"unknown scaling axis {axis!r}, expected one of {SCALING_AXES}")
    if axis == "model":
        if base.preset not in _BIGGER:
            raise ConfigError(f"no larger preset registered above {base.preset!r}")
        return replace(base, preset=_BIGGER[base.preset])
    if axis == "schedule":
        return replace(base, total_samples=2 * base.total_samples)
    from .data import generate_dataset

    base_set = read_dataset(base.train_data)
    bigger = Path(workdir) / "train_2x.flipds"
    if not bigger.exists():
        generate_dataset(2 * len(base_set), base.seed + 1, bigger)
    return replace(base, train_data=str(bigger))


def run_scaling_axis(base: TrainConfig, axis: str, workdir) -> list[tuple[int, str, float]]:
    """Train the scaled variant of ``base`` and emit its accuracy curve.

    Writes a run directory under ``workdir/<axis>`` and returns the
    curve rows (samples_seen, metric, value).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = scaled_config(base, axis, workdir)
    out = workdir / axis
    run_pretraining(config, out)
    return read_curve(out / "curve.csv")
