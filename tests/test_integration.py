"""Cross-module flows: run directories, the scaling harness, CLI resume
and tuning, concurrent evaluation, the BLAS thread pin on import."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flip
from flip.cli import main
from flip.data import generate_dataset, read_dataset
from flip.encoders import init_params, preset
from flip import evaluation, trainer
from flip.evaluation import embed_images
from flip.report import read_curve, read_timing
from flip.trainer import (
    TrainConfig,
    load_state,
    run_pretraining,
    run_scaling_axis,
    save_config,
)


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    root = tmp_path_factory.mktemp("integration")
    generate_dataset(192, 0, root / "train.flipds")
    generate_dataset(64, 1, root / "eval.flipds")
    cfg = TrainConfig(
        base_lr=2e-3, batch_size=64, warmup_samples=64, total_samples=64 * 3,
        mask_ratio=0.5, seed=0, train_data=str(root / "train.flipds"),
        eval_data=str(root / "eval.flipds"), eval_every_samples=64,
    )
    return root, cfg


class TestRunDirectory:
    def test_artifacts_and_monotone_curve(self, micro, tmp_path):
        root, cfg = micro
        out = tmp_path / "run"
        run_pretraining(cfg, out)
        for name in ("config.txt", "flops.json", "curve.csv", "timing.csv", "final.ckpt"):
            assert (out / name).exists(), name
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "samples,metric,value"
        samples = [int(l.split(",")[0]) for l in lines[1:]]
        assert samples == sorted(samples) and len(samples) >= 2
        assert all(s1 < s2 for s1, s2 in zip(samples, samples[1:]))

    @pytest.mark.parametrize("name", ["config.txt", "flops.json"])
    def test_failed_write_keeps_the_old_file(self, micro, tmp_path, monkeypatch, name):
        # the rename that would replace ``name`` fails; the run stops there
        root, cfg = micro
        out = tmp_path / "run"
        out.mkdir()
        for old in ("config.txt", "flops.json"):
            (out / old).write_bytes(b"old " + old.encode())
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == name:
                raise OSError(f"cannot replace {dst}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="cannot replace"):
            run_pretraining(cfg, out)
        assert (out / name).read_bytes() == b"old " + name.encode()
        assert not list(out.glob("*.tmp"))

    def test_timing_leaves_out_evaluation(self, micro, tmp_path, monkeypatch):
        # the clock moves 1 s per training step and 100 s per evaluation
        clock = [0.0]
        step = trainer.train_step

        def timed_step(*args, **kwargs):
            clock[0] += 1.0
            return step(*args, **kwargs)

        def timed_eval(*args, **kwargs):
            clock[0] += 100.0
            return 0.5

        monkeypatch.setattr(trainer, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(trainer, "train_step", timed_step)
        monkeypatch.setattr(evaluation, "zero_shot_accuracy", timed_eval)
        root, cfg = micro
        run_pretraining(cfg, tmp_path / "run")
        timing = (tmp_path / "run" / "timing.csv").read_text().splitlines()
        assert timing == ["samples,seconds", "64,1.0", "128,2.0", "192,3.0"]


class TestScalingHarness:
    def test_schedule_axis_runs_and_doubles_steps(self, micro, tmp_path):
        root, cfg = micro
        rows = run_scaling_axis(cfg, "schedule", tmp_path)
        assert rows[-1][0] == 2 * cfg.total_samples
        assert all(r[1] == "zero_shot_acc" for r in rows)

    def test_model_axis_uses_bigger_preset(self, micro, tmp_path):
        root, cfg = micro
        run_scaling_axis(cfg, "model", tmp_path)
        written = (tmp_path / "model" / "config.txt").read_text()
        assert "preset = small" in written

    def test_data_axis_same_step_budget(self, micro, tmp_path):
        root, cfg = micro
        rows = run_scaling_axis(cfg, "data", tmp_path)
        assert rows[-1][0] == cfg.total_samples
        assert (tmp_path / "train_2x.flipds").exists()
        assert len(read_dataset(tmp_path / "train_2x.flipds")) == 2 * 192


class TestCliResumeAndTune:
    def test_resume_from_checkpoint(self, micro, tmp_path, capsys):
        root, cfg = micro
        first = tmp_path / "first"
        assert main(["train", "--config", str(root / "cfg_resume.txt"),
                     "--out-dir", str(first)]) == 2  # config file missing
        save_config(cfg, root / "cfg_resume.txt")
        assert main(["train", "--config", str(root / "cfg_resume.txt"),
                     "--out-dir", str(first)]) == 0
        mid = load_state(first / "final.ckpt", cfg)
        assert mid.step == 3

        resumed_cfg = TrainConfig(**{**cfg.__dict__, "total_samples": 64 * 5})
        save_config(resumed_cfg, root / "cfg_resume5.txt")
        second = tmp_path / "second"
        assert main(["train", "--config", str(root / "cfg_resume5.txt"),
                     "--out-dir", str(second), "--resume",
                     str(first / "final.ckpt")]) == 0
        final = load_state(second / "final.ckpt", resumed_cfg)
        assert final.step == 5
        # a resumed run writes a full run directory, evaluated on the fresh schedule
        for name in ("config.txt", "flops.json", "curve.csv", "timing.csv", "final.ckpt"):
            assert (second / name).exists(), name
        assert [row[0] for row in read_curve(second / "curve.csv")] == [256, 320]
        capsys.readouterr()
        assert main(["report", "--runs", str(second)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_resume_in_same_directory_keeps_earlier_rows(self, micro, tmp_path):
        root, cfg = micro
        out = tmp_path / "run"
        run_pretraining(cfg, out)
        first_timing = read_timing(out / "timing.csv")
        resumed_cfg = TrainConfig(**{**cfg.__dict__, "total_samples": 64 * 5})
        run_pretraining(resumed_cfg, out, resume=out / "final.ckpt")
        assert [row[0] for row in read_curve(out / "curve.csv")] == [64, 128, 192, 256, 320]
        timing = read_timing(out / "timing.csv")
        assert timing[:3] == first_timing
        assert [row[0] for row in timing] == [64, 128, 192, 256, 320]
        seconds = [row[1] for row in timing]
        assert all(a < b for a, b in zip(seconds, seconds[1:]))

    def test_tune_unmasked_cli(self, micro, tmp_path, capsys):
        root, cfg = micro
        out = tmp_path / "pre"
        save_config(cfg, root / "cfg_tune.txt")
        main(["train", "--config", str(root / "cfg_tune.txt"), "--out-dir", str(out)])
        ckpt = out / "final.ckpt"
        assert main(["tune-unmasked", "--ckpt", str(ckpt),
                     "--config", str(root / "cfg_tune.txt")]) == 0
        tuned = load_state(f"{ckpt}.tuned", cfg)
        before = load_state(ckpt, cfg)
        assert tuned.samples_seen > before.samples_seen


class TestConcurrentEvaluation:
    def test_parallel_embedding_matches_serial(self):
        cfg = preset("tiny")
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        images = (rng.random((48, 32, 32, 3)) * 255).astype(np.uint8)
        serial = embed_images(params, cfg, images)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(embed_images, params, cfg, images[lo : lo + 16])
                       for lo in range(0, 48, 16)]
            parallel = np.concatenate([f.result() for f in futures])
        assert np.allclose(serial, parallel, atol=1e-6)


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("user_value, expected", [(None, "1"), ("2", "2")])
    def test_import_pins_one_thread_unless_set(self, user_value, expected):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = str(Path(flip.__file__).parents[1])
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        show = "import os, flip; print(*(os.environ[v] for v in %r))" % (self.VARS,)
        out = subprocess.run([sys.executable, "-c", show], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == [expected, "1", "1"]


class TestScipyLoadsOnDemand:
    def test_only_a_fresh_init_loads_scipy_special(self, tmp_path):
        # a fresh process: importing flip, loading a checkpoint and
        # embedding load no scipy; initializing a model loads
        # scipy.special (its truncated-normal draws) and never scipy.stats
        ckpt = tmp_path / "x.ckpt"
        trainer.save_state(ckpt, trainer.init_train_state(TrainConfig()))
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import flip",
            "from flip import evaluation, trainer",
            "def show(): print(*(m in sys.modules for m in ('scipy.special', 'scipy.stats')))",
            "show()",
            "params, cfg = trainer.load_encoder(sys.argv[1])",
            "size = cfg.image.image_size",
            "evaluation.embed_images(params, cfg, np.zeros((2, size, size, 3), np.uint8))",
            "show()",
            "trainer.init_train_state(trainer.TrainConfig())",
            "show()",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(flip.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script, str(ckpt)], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == ["False False", "False False", "True False"]
