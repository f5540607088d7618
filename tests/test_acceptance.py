"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The desk-scale learning criteria train real models
and dominate the runtime; everything else is fast.
"""

import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import flip
from flip import autodiff as ad
from flip.autodiff import Tensor
from flip.data import generate_dataset, read_dataset
from flip.encoders import preset
from flip.evaluation import (
    desk_prompts,
    embed_images,
    embed_texts,
    eval_inference_modes,
    zero_shot_accuracy,
)
from flip.flops import count_flops
from flip.masking import complementary_views, sample_patch_mask, sample_text_mask
from flip.objective import info_nce
from flip.tokenizer import TokenizedBatch
from flip.trainer import (
    TrainConfig,
    effective_lr,
    init_train_state,
    load_state,
    lr_at,
    pretrain,
    save_state,
    unmasked_tune,
)

# pinned desk-experiment setup (calibrated once; see decisions notes)
DESK_LR = 6e-3
MAIN_STEPS = 3000
SHORT_STEPS = 600
BATCH = 64
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RESULTS = []


def report(criterion: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line, flush=True)
    RESULTS.append(line)
    assert passed, line


def desk_config(seed: int, steps: int, train_path, **kw) -> TrainConfig:
    args = dict(
        preset="tiny", base_lr=DESK_LR, batch_size=BATCH,
        warmup_samples=BATCH * 100, total_samples=BATCH * steps,
        mask_ratio=0.5, seed=seed, train_data=str(train_path),
    )
    args.update(kw)
    return TrainConfig(**args)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    train = generate_dataset(8000, 0, root / "train.flipds")
    heldout = generate_dataset(2000, 1, root / "heldout.flipds")
    return root, train, heldout


def train_seeds(seeds, train, train_path):
    """Pre-train each seed in turn: seed 0 the full schedule, the others
    the short one."""
    runs = {}
    t0 = time.monotonic()
    for seed in seeds:
        steps = MAIN_STEPS if seed == 0 else SHORT_STEPS
        state = init_train_state(desk_config(seed, steps, train_path))
        pretrain(state, train)
        runs[seed] = state
        print(f"  trained seed {seed} ({steps} steps, {time.monotonic()-t0:.0f}s elapsed)",
              flush=True)
    return runs


@pytest.fixture(scope="module")
def trained_runs(workspace):
    """Seed 0 trains the full schedule; seeds 1-4 train short schedules
    for the trend criteria. Seed 0 (3000 steps) and seeds 1-4 (4 x 600)
    train side by side in two worker processes, each with one BLAS
    thread; every run is deterministic, so the states are the ones a
    serial loop gives."""
    root, train, heldout = workspace
    src = str(Path(flip.__file__).parents[1])
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    jobs = []
    for seeds in ("0", "1,2,3,4"):
        out = root / f"runs-{seeds}.pkl"
        cmd = [sys.executable, __file__, seeds, str(root / "train.flipds"), str(out)]
        jobs.append((out, subprocess.Popen(cmd, env=env)))
    codes = [proc.wait() for _, proc in jobs]
    assert codes == [0, 0], f"training workers exited with {codes}"
    return {seed: state for out, _ in jobs
            for seed, state in pickle.loads(out.read_bytes()).items()}


def held_out_full_view_loss(state, dataset, batch=BATCH) -> float:
    """Mean InfoNCE over fixed held-out batches, full-view inference."""
    losses = []
    n = (len(dataset) // batch) * batch
    for lo in range(0, n, batch):
        img = embed_images(state.params, state.encoder_config,
                           dataset.images[lo : lo + batch])
        txt = embed_texts(state.params, state.encoder_config,
                          dataset.captions[lo : lo + batch])
        losses.append(float(info_nce(Tensor(img), Tensor(txt),
                                     Tensor(state.params["logit_scale"].data.copy())).data))
    return float(np.mean(losses))


class TestCriterion1Flops:
    def test_flop_ratios(self):
        start = time.monotonic()
        cfg = preset("L-like")
        r50 = count_flops(cfg, 0.5)
        r75 = count_flops(cfg, 0.75)
        elapsed = time.monotonic() - start
        ok = (
            abs(r50.ratio_vs_unmasked - 0.52) <= 0.01
            and abs(r75.ratio_vs_unmasked - 0.28) <= 0.01
            and abs(r50.text_fraction - 0.044) <= 0.005
            and elapsed < 1.0
        )
        report(
            "criterion 1 (FLOP ratios)",
            ok,
            f"0.5x->{r50.ratio_vs_unmasked:.4f}, 0.75x->{r75.ratio_vs_unmasked:.4f}, "
            f"text {r50.text_fraction:.4f}, {elapsed*1000:.0f}ms",
        )


class TestCriterion2GradientSuite:
    def test_all_registered_ops(self):
        start = time.monotonic()
        failures = []
        worst = 0.0
        for name in sorted(ad.REGISTERED_OPS):
            rep = ad.check_gradients(name, tolerance=1e-4, n_seeds=10, step=1e-5)
            worst = max(worst, rep.worst)
            if not rep.passed:
                failures.append(str(rep))
        elapsed = time.monotonic() - start
        report(
            "criterion 2 (gradient suite)",
            not failures and elapsed < 60,
            f"{len(ad.REGISTERED_OPS)} ops, 10 seeds each, worst rel err "
            f"{worst:.2e}, {elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""),
        )


class TestCriterion3InfoNCE:
    def test_exactness_and_gradients(self):
        ortho = abs(float(info_nce(Tensor(np.eye(2)), Tensor(np.eye(2)),
                                   Tensor(np.zeros(1))).data) - 0.31326) <= 1e-4

        uniform_ok = True
        for b in (2, 8, 32):
            img = np.tile(np.eye(1, 16), (b, 1))
            loss = info_nce(Tensor(img), Tensor(img), Tensor(np.zeros(1)))
            uniform_ok &= abs(float(loss.data) - math.log(b)) <= 1e-6

        def make_inputs(rng):
            img = rng.standard_normal((4, 5))
            txt = rng.standard_normal((4, 5))
            img /= np.linalg.norm(img, axis=1, keepdims=True)
            txt /= np.linalg.norm(txt, axis=1, keepdims=True)
            return ([Tensor(img, requires_grad=True), Tensor(txt, requires_grad=True),
                     Tensor(rng.uniform(0.5, 2.0, size=1), requires_grad=True)], {})

        check = ad.OpCheck("info_nce_acceptance", info_nce, make_inputs)
        grad_report = ad.check_gradients(check, tolerance=1e-4, n_seeds=10)
        report(
            "criterion 3 (InfoNCE exactness)",
            ortho and uniform_ok and grad_report.passed,
            f"orthonormal 0.31326 ok={ortho}, uniform lnB ok={uniform_ok}, "
            f"grad worst {grad_report.worst:.2e}",
        )


class TestCriterion4MaskingInvariants:
    def test_mask_properties(self, workspace):
        rng = np.random.default_rng(0)
        n_masks = 10_000
        ok = True
        for ratio, n in ((0.5, 16), (0.75, 16), (0.5, 196)):
            m = sample_patch_mask(n, ratio, rng, batch_size=n_masks // 4)
            full = np.sort(np.concatenate([m.visible, m.hidden], axis=1), axis=1)
            ok &= (full == np.arange(n)).all()
            ok &= m.visible.shape[1] == round((1 - ratio) * n)

        # ratio-0 masked path equals the dense path bit for bit
        cfg = preset("tiny")
        params = flip.init_params(cfg, seed=0)
        _, train, _ = workspace
        patches = flip.patchify(train.images[:8].astype(np.float32) / 255.0, 8)
        m0 = sample_patch_mask(16, 0.0, np.random.default_rng(1), batch_size=8)
        dense, _ = flip.encode_image(patches, None, params, cfg)
        masked, _ = flip.encode_image(patches, m0, params, cfg)
        bitwise = dense.data.tobytes() == masked.data.tobytes()

        partition_ok = True
        for ratio in (0.5, 0.75):
            views = complementary_views(16, ratio, rng, batch_size=50)
            union = np.sort(np.concatenate([v.visible for v in views], axis=1), axis=1)
            partition_ok &= (union == np.arange(16)).all()

        report(
            "criterion 4 (masking invariants)",
            ok and bitwise and partition_ok,
            f"10^4 masks ok={ok}, ratio-0 bitwise={bitwise}, partitions ok={partition_ok}",
        )


class TestCriterion5PrioritizedMasking:
    def test_prioritized_vs_random(self):
        ids = np.zeros((1, 32), dtype=np.int64)
        ids[:, :12] = 5  # 12 valid + 20 pads >= 16 masked
        batch = TokenizedBatch(token_ids=ids, valid_lengths=np.array([12]))
        zero_valid_masked = all(
            (sample_text_mask(batch, 0.5, "prioritized", np.random.default_rng(s)).hidden >= 12).all()
            for s in range(200)
        )

        ids20 = np.zeros((1, 32), dtype=np.int64)
        ids20[:, :20] = 5
        batch20 = TokenizedBatch(token_ids=ids20, valid_lengths=np.array([20]))
        agg_p = agg_r = 0
        for s in range(1000):
            mp = sample_text_mask(batch20, 0.5, "prioritized", np.random.default_rng(s))
            mr = sample_text_mask(batch20, 0.5, "random", np.random.default_rng(s))
            agg_p += int((mp.visible < 20).sum())
            agg_r += int((mr.visible < 20).sum())
        report(
            "criterion 5 (prioritized text masking)",
            zero_valid_masked and agg_p > agg_r,
            f"zero valid masked with spare pads={zero_valid_masked}, "
            f"survival {agg_p} > {agg_r} over 1000 seeds",
        )


@pytest.mark.slow
class TestCriterion6DeskLearning:
    def test_zero_shot_accuracy_and_mode_ordering(self, workspace, trained_runs):
        root, train, heldout = workspace
        main = trained_runs[0]
        acc = zero_shot_accuracy(main.params, main.encoder_config, heldout, desk_prompts())

        ordering_wins = 0
        details = []
        for seed, state in trained_runs.items():
            reports = eval_inference_modes(state.params, state.encoder_config,
                                           heldout, ratio=0.5, seed=seed)
            by_mode = {r.mode: r.value for r in reports}
            ordering_wins += by_mode["full"] >= by_mode["masked"]
            details.append(f"s{seed} full={by_mode['full']:.3f} masked={by_mode['masked']:.3f}")
        ok = acc >= 0.60 and ordering_wins >= 4
        report(
            "criterion 6 (desk-scale learning)",
            ok,
            f"zero-shot {acc:.3f} (chance 0.0625), full>=masked in {ordering_wins}/5 seeds; "
            + "; ".join(details),
        )


@pytest.mark.slow
class TestExtraProbeTrend:
    def test_linear_probe_at_least_zero_shot_trend(self, workspace, trained_runs):
        # op-level example, not a numbered criterion: over 5 seeds the mean
        # probe accuracy tracks or exceeds mean zero-shot (frozen band -0.02)
        from flip.evaluation import linear_probe

        root, train, heldout = workspace
        zs, probe = [], []
        for seed, state in trained_runs.items():
            feats = embed_images(state.params, state.encoder_config, heldout.images)
            zs.append(zero_shot_accuracy(state.params, state.encoder_config,
                                         heldout, desk_prompts(), image_emb=feats))
            _, acc = linear_probe(feats, heldout.labels)
            probe.append(acc)
        ok = float(np.mean(probe)) >= float(np.mean(zs)) - 0.02
        report(
            "extra (linear probe vs zero-shot trend)",
            ok,
            f"mean probe {np.mean(probe):.3f} vs mean zero-shot {np.mean(zs):.3f}",
        )


@pytest.mark.slow
class TestCriterion7UnmaskedTuning:
    def test_tuning_does_not_increase_full_view_loss(self, workspace, trained_runs):
        root, train, heldout = workspace
        wins = 0
        details = []
        for seed, state in trained_runs.items():
            before = held_out_full_view_loss(state, heldout)
            unmasked_tune(state, train)
            after = held_out_full_view_loss(state, heldout)
            wins += after <= before + 1e-9
            details.append(f"s{seed} {before:.4f}->{after:.4f}")
        report(
            "criterion 7 (unmasked tuning trend)",
            wins == 5,
            f"non-increasing in {wins}/5 seeds; " + "; ".join(details),
        )


@pytest.mark.slow
class TestCriterion8Reconstruction:
    def test_reconstruction_trains_and_decreases(self, workspace):
        root, train, _ = workspace
        steps = 300
        cfg = desk_config(7, steps, root / "train.flipds", rec_weight=1.0)
        state = init_train_state(cfg)
        rec_losses = []
        pretrain(state, train,
                 on_step=lambda st, b: rec_losses.append(b.reconstruction))
        early = float(np.mean(rec_losses[:50]))
        late = float(np.mean(rec_losses[-50:]))
        finite = all(np.isfinite(x) for x in rec_losses) and state.aborted_steps == 0
        report(
            "criterion 8 (reconstruction ablation)",
            finite and late < early,
            f"rec loss {early:.4f} -> {late:.4f} over {steps} steps, "
            f"aborted={state.aborted_steps}",
        )


class TestCriterion9Determinism:
    def test_bit_identical_training_and_round_trips(self, workspace, tmp_path):
        root, train, _ = workspace

        def run_100():
            cfg = desk_config(5, 100, root / "train.flipds", batch_size=16,
                              warmup_samples=160)
            state = init_train_state(cfg)
            pretrain(state, train)
            return state

        a, b = run_100(), run_100()
        params_equal = all(
            a.params[k].data.tobytes() == b.params[k].data.tobytes() for k in a.params
        )
        moments_equal = all(
            a.adam_m[k].tobytes() == b.adam_m[k].tobytes()
            and a.adam_v[k].tobytes() == b.adam_v[k].tobytes()
            for k in a.params
        )

        save_state(tmp_path / "det.ckpt", a)
        loaded = load_state(tmp_path / "det.ckpt", a.config)
        ckpt_ok = all(
            loaded.params[k].data.tobytes() == a.params[k].data.tobytes()
            for k in a.params
        ) and loaded.step == a.step

        ds_path = tmp_path / "roundtrip.flipds"
        flip.write_dataset(ds_path, flip.Dataset(images=train.images[:32],
                                                 captions=train.captions[:32]))
        back = read_dataset(ds_path)
        ds_ok = (back.images.tobytes() == train.images[:32].tobytes()
                 and back.captions == train.captions[:32])

        report(
            "criterion 9 (determinism & round-trips)",
            params_equal and moments_equal and ckpt_ok and ds_ok,
            f"100-step bitwise={params_equal and moments_equal}, checkpoint={ckpt_ok}, "
            f"dataset={ds_ok}",
        )


class TestCriterion10LearningRate:
    def test_schedule_shape(self):
        cfg = TrainConfig(base_lr=4e-6, batch_size=512, warmup_samples=1000,
                          total_samples=10_000)
        exact = effective_lr(cfg) == 4e-6 * 512 / 256
        boundary = abs(lr_at(1000, cfg) - effective_lr(cfg)) < 1e-15
        eps_side = effective_lr(cfg) - lr_at(999, cfg) < 1e-8
        ends_zero = lr_at(10_000, cfg) < 1e-18
        report(
            "criterion 10 (lr schedule)",
            exact and boundary and eps_side and ends_zero,
            f"linear rule exact={exact}, boundary continuous={boundary and eps_side}, "
            f"lr(end)={lr_at(10_000, cfg):.2e}",
        )


if __name__ == "__main__":
    # trained_runs worker: test_acceptance.py SEEDS TRAIN_PATH OUT_PICKLE
    seeds, train_path, out = sys.argv[1:]
    runs = train_seeds([int(x) for x in seeds.split(",")], read_dataset(train_path),
                       Path(train_path))
    Path(out).write_bytes(pickle.dumps(runs))
