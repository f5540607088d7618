"""The benchmark's workloads: set-up, the closed measuring loop, the
correctness checks and the metrics derived from them.

Everything here drives flip through its public API only (``trainer``,
``evaluation``, ``data``); per-layer numbers come from spans that
``tracing.patched`` records around the module attributes in ``TARGETS``.
The load is a closed loop with one client: each training step or eval
task starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from flip import autodiff, data, evaluation, flops, trainer  # noqa: E402

import tracing  # noqa: E402

BATCH = 64
SEGMENT_STEPS = 32  # steps per pretrain() call; each segment starts from a fresh state
LR_WARMUP_STEPS = 8
PRETRAIN_RECORDS = 2048  # one epoch per segment

EVAL_TRAIN_RECORDS = 1024
EVAL_SETUP_STEPS = 24  # short pre-training that gives eval-suite above-chance weights
EVAL_SETUP_BASE_LR = 3e-3
HELD_OUT_RECORDS = 1024
EVAL_CHUNK = 64  # images per zero-shot step, the same batch as training
MODES_RATIO = 0.5
RECALL_K = 5
CHANCE = 1.0 / len(data.CLASS_NAMES)
UNIT_NORM_TOL = 1e-4

MIN_PASSES = 2  # so every run repeats its work at least once and can compare
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "samples_per_s": "1/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric holding its self time per unit (step or pass)
SELF_TIME_METRICS = {
    "autodiff.backward": "autodiff.backward_ms",
    "encoders.encode_image": "encoders.encode_image_ms",
    "encoders.encode_text": "encoders.encode_text_ms",
    "encoders.patchify": "encoders.patchify_ms",
    "masking.patch_mask": "masking.patch_mask_ms",
    "masking.text_mask": "masking.text_mask_ms",
    "masking.views": "masking.views_ms",
    "tokenizer.tokenize": "tokenizer.tokenize_ms",
    "objective.project": "objective.project_ms",
    "objective.info_nce": "objective.info_nce_ms",
    "objective.reconstruction": "objective.reconstruction_ms",
    "trainer.adamw": "trainer.adamw_ms",
    "trainer.train_step": "trainer.step_self_ms",
    "bench.pretrain": "trainer.data_wait_ms",
    "evaluation.embed_images": "evaluation.embed_images_ms",
    "evaluation.embed_texts": "evaluation.embed_texts_ms",
    "evaluation.class_embeddings": "evaluation.class_embeddings_ms",
    "evaluation.recall": "evaluation.recall_ms",
    "evaluation.linear_probe": "evaluation.linear_probe_ms",
}

PER_LAYER_UNITS = {
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes": "count",
    "autodiff.activation_mb": "MB",
    "encoders.encode_image_ms": "ms",
    "encoders.encode_text_ms": "ms",
    "encoders.patchify_ms": "ms",
    "encoders.image_gflops_per_s": "GFLOP/s",
    "encoders.text_gflops_per_s": "GFLOP/s",
    "masking.patch_mask_ms": "ms",
    "masking.text_mask_ms": "ms",
    "masking.views_ms": "ms",
    "tokenizer.tokenize_ms": "ms",
    "tokenizer.captions_per_s": "1/s",
    "objective.project_ms": "ms",
    "objective.info_nce_ms": "ms",
    "objective.reconstruction_ms": "ms",
    "trainer.adamw_ms": "ms",
    "trainer.step_self_ms": "ms",
    "trainer.data_wait_ms": "ms",
    "trainer.aborted_steps": "count",
    "evaluation.embed_images_ms": "ms",
    "evaluation.embed_texts_ms": "ms",
    "evaluation.class_embeddings_ms": "ms",
    "evaluation.recall_ms": "ms",
    "evaluation.linear_probe_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "data.generate_s": "s",
    "data.read_s": "s",
    "flops.masked_speedup_measured": "x",
    "flops.masked_speedup_analytic": "x",
    "trace.overhead_ms": "ms",
}


# ---------------------------------------------------------------------------
# span targets: the module attributes trainer and evaluation call through


def _image_info(args, kwargs):
    mask = args[1]
    return (args[0].shape[0], mask.ratio if mask is not None else 0.0)


def _text_info(args, kwargs):
    mask = args[1]
    return (args[0].batch_size, mask.ratio if mask is not None else 0.0)


def _caption_count(args, kwargs):
    return (len(args[0]),)


def _tape_info(args, kwargs):
    nodes = args[0].nodes
    return (len(nodes), sum(n.output.data.nbytes for n in nodes))


TARGETS = [
    (trainer, "train_step", "trainer.train_step", None),
    (trainer, "adamw_step", "trainer.adamw", None),
    (trainer, "patchify", "encoders.patchify", None),
    (trainer, "tokenize_batch", "tokenizer.tokenize", _caption_count),
    (trainer, "patch_masks_for_samples", "masking.patch_mask", None),
    (trainer, "text_masks_for_samples", "masking.text_mask", None),
    (trainer, "encode_image", "encoders.encode_image", _image_info),
    (trainer, "encode_text", "encoders.encode_text", _text_info),
    (trainer, "project_and_normalize", "objective.project", None),
    (trainer, "info_nce", "objective.info_nce", None),
    (trainer, "reconstruction_loss", "objective.reconstruction", None),
    (autodiff.Graph, "backward", "autodiff.backward", _tape_info),
    (evaluation, "embed_images", "evaluation.embed_images", None),
    (evaluation, "embed_texts", "evaluation.embed_texts", None),
    (evaluation, "class_embeddings", "evaluation.class_embeddings", None),
    (evaluation, "recall_at_k", "evaluation.recall", None),
    (evaluation, "linear_probe", "evaluation.linear_probe", None),
    (evaluation, "eval_inference_modes", "evaluation.inference_modes", None),
    (evaluation, "patchify", "encoders.patchify", None),
    (evaluation, "tokenize_batch", "tokenizer.tokenize", _caption_count),
    (evaluation, "encode_image", "encoders.encode_image", _image_info),
    (evaluation, "encode_text", "encoders.encode_text", _text_info),
    (evaluation, "project_and_normalize", "objective.project", None),
    (evaluation, "sample_patch_mask", "masking.views", None),
    (evaluation, "complementary_views", "masking.views", None),
]


def target_originals() -> dict:
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in TARGETS}


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Checks:
    """Correctness checks; each one is an attempted operation."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Loop:
    """What one measuring phase saw."""

    step_ms: list = field(default_factory=list)  # one per closed-loop step
    pass_s: list = field(default_factory=list)  # one per segment or eval pass
    items: int = 0  # training samples, or full-view zero-shot images
    items_s: float = 0.0  # wall seconds those items took
    units: int = 0  # what per-layer times are divided by: training steps or eval passes


def _done(deadline: float, last_pass_s: float) -> bool:
    """Stop once less than half a pass is left, so that a run measures
    ``--seconds`` give or take half a pass."""
    return deadline - time.perf_counter() < last_pass_s / 2


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _finite_unit_rows(emb: np.ndarray) -> bool:
    return bool(np.isfinite(emb).all()) and bool(
        np.all(np.abs(np.linalg.norm(emb, axis=1) - 1.0) < UNIT_NORM_TOL)
    )


def _in_unit_interval(*values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def make_workload(name: str):
    if name == "pretrain-m50":
        return PretrainWorkload(mask_ratio=0.5, rec_weight=0.0)
    if name == "pretrain-m75-rec":
        return PretrainWorkload(mask_ratio=0.75, rec_weight=1.0)
    if name == "eval-suite":
        return EvalWorkload()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# pre-training workloads


class PretrainWorkload:
    """``tiny`` preset, batch 64, prioritized text masking at 0.5; the image
    mask ratio and reconstruction weight select the recipe."""

    SETUP_REPEATS = 5  # set-up is short and noisy, so take the median of more
    PASSES = "segments"
    ALIASES = {"pass_s": f"one {SEGMENT_STEPS}-step pretrain() segment"}

    def __init__(self, mask_ratio: float, rec_weight: float):
        self.config = trainer.TrainConfig(
            preset="tiny",
            batch_size=BATCH,
            mask_ratio=mask_ratio,
            rec_weight=rec_weight,
            text_mask_policy="prioritized",
            text_mask_ratio=0.5,
            total_samples=SEGMENT_STEPS * BATCH,
            warmup_samples=LR_WARMUP_STEPS * BATCH,
            seed=0,
        )
        self.dataset = None
        self.encoder_config = None
        self.reference = None  # per-step losses of the first segment
        self.last_state = None
        self.aborted_steps = 0

    def setup(self, workdir: Path, seed: int) -> dict:
        path = workdir / "train.flipds"
        t0 = time.perf_counter()
        data.generate_dataset(PRETRAIN_RECORDS, 2 * seed, path)
        t1 = time.perf_counter()
        self.dataset = data.read_dataset(path)
        t2 = time.perf_counter()
        self.encoder_config = trainer.init_train_state(self.config).encoder_config
        return {"data.generate_s": t1 - t0, "data.read_s": t2 - t1}

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.dataset.images.tobytes())
        h.update("\n".join(self.dataset.captions).encode("utf-8"))
        return h.hexdigest()

    def warm_up(self) -> None:
        state = trainer.init_train_state(self.config)
        trainer.pretrain(state, self.dataset, n_steps=2)

    def measure(self, seconds: float, checks: Checks, recorder=None) -> Loop:
        loop = Loop()
        deadline = time.perf_counter() + seconds
        while True:
            state = trainer.init_train_state(self.config)
            marks, steps = [], []

            def on_step(st, bundle):
                marks.append(time.perf_counter())
                steps.append((bundle.contrastive, bundle.reconstruction, bundle.total,
                              st.aborted_steps))
                if recorder is not None:
                    recorder.unit += 1

            if recorder is not None:
                on_step = recorder.wrap("bench.on_step", on_step)
            t0 = time.perf_counter()
            with _span(recorder, "bench.pretrain"):
                trainer.pretrain(state, self.dataset, n_steps=SEGMENT_STEPS, on_step=on_step)
            t1 = time.perf_counter()

            loop.step_ms.extend(1000.0 * np.diff([t0] + marks))
            loop.pass_s.append(t1 - t0)
            loop.items += BATCH * len(marks)
            loop.units += len(marks)
            loop.items_s += t1 - t0
            self._check_segment(steps, checks)
            self.last_state = state
            self.aborted_steps += state.aborted_steps
            if len(loop.pass_s) >= MIN_PASSES and _done(deadline, t1 - t0):
                return loop

    def _check_segment(self, steps, checks: Checks) -> None:
        checks.check(len(steps) == SEGMENT_STEPS, f"segment ran {len(steps)} steps")
        if self.reference is None:
            self.reference = steps
        for i, step in enumerate(steps):
            finite = all(math.isfinite(v) for v in step[:3] if v is not None)
            checks.check(finite and step[3] == 0 and step == self.reference[i],
                         f"step {i}: losses {step[:3]} aborted {step[3]} "
                         f"(first segment: {self.reference[i][:3]})")

    def finish(self, workdir: Path, checks: Checks) -> dict:
        """Checkpoint round trip of the last segment's final state."""
        path = workdir / "final.ckpt"
        state = self.last_state
        t0 = time.perf_counter()
        trainer.save_state(path, state)
        t1 = time.perf_counter()
        params, enc_cfg = trainer.load_encoder(path)
        t2 = time.perf_counter()
        same = enc_cfg == state.encoder_config and params.keys() == state.params.keys() and all(
            np.array_equal(params[k].data, p.data) for k, p in state.params.items()
        )
        checks.check(same, "checkpoint round trip changed the parameters")
        return {"checkpoint.save_ms": 1000.0 * (t1 - t0), "checkpoint.load_ms": 1000.0 * (t2 - t1)}


# ---------------------------------------------------------------------------
# evaluation workload


def eval_setup_config() -> trainer.TrainConfig:
    """The short pre-training run whose checkpoint eval-suite evaluates."""
    return trainer.TrainConfig(
        preset="tiny",
        batch_size=BATCH,
        base_lr=EVAL_SETUP_BASE_LR,
        mask_ratio=0.5,
        total_samples=EVAL_SETUP_STEPS * BATCH,
        warmup_samples=EVAL_SETUP_STEPS * BATCH // 4,
        seed=0,
    )


class EvalWorkload:
    """Checkpoint load, then passes of zero-shot, retrieval both ways,
    linear probe and the three inference modes over a held-out set."""

    SETUP_REPEATS = 3  # each set-up pre-trains for a few seconds
    PASSES = "passes"
    ALIASES = {
        "step_ms_p50": f"per {EVAL_CHUNK}-image zero-shot step",
        "step_ms_p90": f"per {EVAL_CHUNK}-image zero-shot step",
        "samples_per_s": "eval_images_per_s",
        "pass_s": "eval_suite_s",
    }

    def __init__(self):
        self.prompts = evaluation.desk_prompts()
        self.held_out = None
        self.labels = None
        self.params = None
        self.encoder_config = None
        self.setup_report = None
        self.ckpt_path = None
        self.reference = None  # results of the first pass
        self.aborted_steps = 0

    def setup(self, workdir: Path, seed: int) -> dict:
        train_path = workdir / "eval-train.flipds"
        held_path = workdir / "held-out.flipds"
        ckpt = workdir / "setup.ckpt"
        t0 = time.perf_counter()
        data.generate_dataset(EVAL_TRAIN_RECORDS, 2 * seed, train_path)
        data.generate_dataset(HELD_OUT_RECORDS, 2 * seed + 1, held_path)
        t1 = time.perf_counter()
        # Pre-training runs in a child so this process's peak RSS is the
        # evaluation's own, with no training activations in it.
        child = subprocess.run(
            [sys.executable, str(HERE / "pretrain_ckpt.py"), str(train_path), str(ckpt)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up pre-training failed:\n{child.stderr}")
        self.setup_report = json.loads(child.stdout.splitlines()[-1])
        t2 = time.perf_counter()
        self.held_out = data.read_dataset(held_path)
        t3 = time.perf_counter()
        self.params, self.encoder_config = trainer.load_encoder(ckpt)
        t4 = time.perf_counter()
        self.labels = self.held_out.labels
        self.ckpt_path = ckpt
        self.aborted_steps = self.setup_report["aborted_steps"]
        return {
            "data.generate_s": t1 - t0,
            "data.read_s": t3 - t2,
            "checkpoint.save_ms": self.setup_report["save_ms"],
            "checkpoint.load_ms": 1000.0 * (t4 - t3),
        }

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.ckpt_path.read_bytes())
        h.update(self.held_out.images.tobytes())
        h.update("\n".join(self.held_out.captions).encode("utf-8"))
        return h.hexdigest()

    def warm_up(self) -> None:
        evaluation.embed_images(self.params, self.encoder_config, self.held_out.images[:EVAL_CHUNK])
        evaluation.embed_texts(self.params, self.encoder_config, self.held_out.captions[:EVAL_CHUNK])

    def measure(self, seconds: float, checks: Checks, recorder=None) -> Loop:
        loop = Loop()
        deadline = time.perf_counter() + seconds
        while True:
            if recorder is not None:
                recorder.unit = len(loop.pass_s)
            t0 = time.perf_counter()
            result, zero_shot_s = self._one_pass(loop, checks, recorder)
            t1 = time.perf_counter()
            loop.pass_s.append(t1 - t0)
            loop.items += len(self.held_out)
            loop.units += 1
            loop.items_s += zero_shot_s
            self._check_pass(result, checks)
            if len(loop.pass_s) >= MIN_PASSES and _done(deadline, t1 - t0):
                return loop

    def _one_pass(self, loop: Loop, checks: Checks, recorder):
        E, params, cfg = evaluation, self.params, self.encoder_config
        images, captions = self.held_out.images, self.held_out.captions
        n = len(self.held_out)

        with _span(recorder, "bench.zero_shot"):
            t0 = time.perf_counter()
            class_emb = E.class_embeddings(self.prompts.classes, self.prompts, params, cfg)
            embs, preds = [], []
            for lo in range(0, n, EVAL_CHUNK):
                b0 = time.perf_counter()
                emb = E.embed_images(params, cfg, images[lo : lo + EVAL_CHUNK])
                preds.append(E.zero_shot_classify(emb, class_emb))
                loop.step_ms.append(1000.0 * (time.perf_counter() - b0))
                embs.append(emb)
            zero_shot_s = time.perf_counter() - t0
        for lo, emb in zip(range(0, n, EVAL_CHUNK), embs):
            checks.check(_finite_unit_rows(emb), f"image embeddings {lo}.. not finite unit rows")
        image_emb = np.concatenate(embs)
        acc = E.accuracy(np.concatenate(preds), self.labels)

        with _span(recorder, "bench.retrieval"):
            text_emb = E.embed_texts(params, cfg, captions)
            gt = np.arange(n)
            i2t = E.recall_at_k(image_emb, text_emb, gt, RECALL_K)
            t2i = E.recall_at_k(text_emb, image_emb, gt, RECALL_K)
        with _span(recorder, "bench.linear_probe"):
            _, probe_acc = E.linear_probe(image_emb, self.labels)
        with _span(recorder, "bench.modes"):
            modes = E.eval_inference_modes(params, cfg, self.held_out, MODES_RATIO, self.prompts)

        result = {
            "zero_shot": (acc, image_emb),
            "retrieval": (i2t, t2i, text_emb),
            "linear_probe": (probe_acc,),
            "modes": tuple((m.mode, m.value) for m in modes),
        }
        return result, zero_shot_s

    def _check_pass(self, result: dict, checks: Checks) -> None:
        if self.reference is None:
            self.reference = result
        ref = self.reference
        acc, image_emb = result["zero_shot"]
        checks.check(_in_unit_interval(acc) and acc > CHANCE and acc == ref["zero_shot"][0]
                     and np.array_equal(image_emb, ref["zero_shot"][1]),
                     f"zero-shot accuracy {acc} (chance {CHANCE:.4f}, first pass {ref['zero_shot'][0]})")
        i2t, t2i, text_emb = result["retrieval"]
        checks.check(_in_unit_interval(i2t, t2i) and _finite_unit_rows(text_emb)
                     and (i2t, t2i) == ref["retrieval"][:2]
                     and np.array_equal(text_emb, ref["retrieval"][2]),
                     f"retrieval R@{RECALL_K} {i2t}/{t2i}")
        probe = result["linear_probe"][0]
        checks.check(_in_unit_interval(probe) and result["linear_probe"] == ref["linear_probe"],
                     f"linear probe accuracy {probe}")
        values = [v for _, v in result["modes"]]
        checks.check(len(values) == 3 and _in_unit_interval(*values) and result["modes"] == ref["modes"],
                     f"inference modes {result['modes']}")

    def finish(self, workdir: Path, checks: Checks) -> dict:
        report = self.setup_report
        checks.check(report["steps"] == EVAL_SETUP_STEPS and report["aborted_steps"] == 0
                     and math.isfinite(report["final_loss"]),
                     f"set-up pre-training: {report}")
        return {}


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(loop: Loop, setup_s: list, peak_rss_bytes: int) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "step_ms_p50": percentile(loop.step_ms, 50),
        "step_ms_p90": percentile(loop.step_ms, 90),
        "samples_per_s": loop.items / loop.items_s,
        "pass_s": statistics.median(loop.pass_s),
        "peak_rss_mb": peak_rss_bytes / 1e6,
    }


def layer_metrics(spans, units: int, enc_cfg) -> dict:
    """Per-layer metrics of one traced phase of ``units`` steps or passes.

    Times are self times per unit; rates divide the work a span did (the
    analytic ``count_flops`` of its batch, or captions tokenized) by the
    span's whole duration.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    self_s = defaultdict(float)
    for s, own in zip(spans, tracing.self_times(spans)):
        self_s[s.name] += own
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = 1000.0 * self_s[span_name] / units

    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    tape = by_name["autodiff.backward"]
    if tape:
        out["autodiff.tape_nodes"] = float(statistics.mean(s.info[0] for s in tape))
        out["autodiff.activation_mb"] = statistics.mean(s.info[1] for s in tape) / 1e6

    def gflops_per_s(spans_, per_sample):
        seconds = sum(s.duration for s in spans_)
        work = sum(s.info[0] * per_sample(s.info[1]) for s in spans_)
        return work / seconds / 1e9 if seconds > 0 else 0.0

    out["encoders.image_gflops_per_s"] = gflops_per_s(
        by_name["encoders.encode_image"], lambda r: flops.count_flops(enc_cfg, r).image_flops)
    out["encoders.text_gflops_per_s"] = gflops_per_s(
        by_name["encoders.encode_text"], lambda r: flops.count_flops(enc_cfg, 0.0, r).text_flops)

    tok = by_name["tokenizer.tokenize"]
    tok_s = sum(s.duration for s in tok)
    if tok_s > 0:
        out["tokenizer.captions_per_s"] = sum(s.info[0] for s in tok) / tok_s

    def seconds_per_image(ratio):
        picked = [s for s in by_name["encoders.encode_image"] if s.info[1] == ratio]
        images = sum(s.info[0] for s in picked)
        return sum(s.duration for s in picked) / images if images else 0.0

    full, masked = seconds_per_image(0.0), seconds_per_image(MODES_RATIO)
    if full and masked:
        out["flops.masked_speedup_measured"] = full / masked
    out["flops.masked_speedup_analytic"] = (flops.count_flops(enc_cfg, 0.0).image_flops
                                            / flops.count_flops(enc_cfg, MODES_RATIO).image_flops)
    return out
