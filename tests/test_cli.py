"""CLI surface: subcommands, exit codes, and the file formats they emit."""

import json
import struct

import numpy as np
import pytest

from flip.checkpoint import load_tensors, save_tensors
from flip.cli import main
from flip.data import MAGIC, Dataset, generate_dataset, write_dataset
from flip.report import CURVE_HEADER, read_curve, to_csv, tradeoff_report, write_rows
from flip.errors import ConfigError, DataFormatError
from flip.trainer import TrainConfig, init_train_state, save_config, save_state


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    generate_dataset(192, 0, root / "train.flipds")
    generate_dataset(64, 1, root / "eval.flipds")
    cfg = TrainConfig(
        base_lr=2e-3, batch_size=64, warmup_samples=128, total_samples=64 * 4,
        mask_ratio=0.5, seed=0,
        train_data=str(root / "train.flipds"), eval_data=str(root / "eval.flipds"),
    )
    save_config(cfg, root / "config.txt")
    return root


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["flops", "--preset", "L-like", "--mask-ratio", "0.5", "--frob"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_gen_data_zero_n(self, tmp_path, capsys):
        assert main(["gen-data", "--n", "0", "--out", str(tmp_path / "x.flipds")]) == 1

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        assert main([
            "eval", "--ckpt", str(tmp_path / "none.ckpt"),
            "--data", str(tmp_path / "none.flipds"), "--task", "zero-shot",
        ]) == 2

    def test_eval_on_non_utf8_captions_is_data_error(self, tmp_path, capsys):
        cfg = TrainConfig(batch_size=2, warmup_samples=0, total_samples=2)
        save_state(tmp_path / "init.ckpt", init_train_state(cfg))
        data = tmp_path / "bad.flipds"
        generate_dataset(1, 0, data)
        raw = data.read_bytes()
        data.write_bytes(raw[:-1] + b"\xff")
        assert main(["eval", "--ckpt", str(tmp_path / "init.ckpt"), "--data", str(data),
                     "--task", "zero-shot"]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw + b"\x00", "1 trailing bytes"),
        (lambda raw: raw[:-1], "truncated caption in record 0"),
        (lambda raw: raw[:-100], "header claims 1 records"),
        # the one record's caption cut to length 0, after the 17-byte header and 32x32x3 pixels
        (lambda raw: raw[:17 + 3072] + b"\x00\x00", "empty caption in record 0"),
    ], ids=["trailing", "truncated", "over-claiming", "empty-caption"])
    def test_eval_on_damaged_dataset_is_data_error(self, tmp_path, capsys, damage, message):
        cfg = TrainConfig(batch_size=2, warmup_samples=0, total_samples=2)
        save_state(tmp_path / "init.ckpt", init_train_state(cfg))
        data = tmp_path / "bad.flipds"
        generate_dataset(1, 0, data)
        data.write_bytes(damage(data.read_bytes()))
        assert main(["eval", "--ckpt", str(tmp_path / "init.ckpt"), "--data", str(data),
                     "--task", "zero-shot"]) == 2
        assert message in capsys.readouterr().err

    def test_eval_on_wrapping_checkpoint_dims_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "wrap.ckpt"
        save_tensors(ckpt, {"param/w": np.zeros((2, 2))})
        dims = b"param/w\x02" + struct.pack("<2I", 2, 2)
        ckpt.write_bytes(ckpt.read_bytes().replace(dims, b"param/w\x02" + b"\xff" * 8))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "eval.flipds"),
                     "--task", "zero-shot"]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_eval_on_short_geometry_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "geom.ckpt"
        save_tensors(ckpt, {"meta/geometry": np.array([4, 64, 4], dtype=np.float32),
                            "param/w": np.zeros((2, 2))})
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "eval.flipds"),
                     "--task", "zero-shot"]) == 2
        assert "meta/geometry" in capsys.readouterr().err

    def test_eval_on_foreign_text_slots_is_data_error(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "clip.ckpt"
        save_state(ckpt, init_train_state(TrainConfig(batch_size=2, warmup_samples=0,
                                                      total_samples=2)))
        tensors = load_tensors(ckpt)
        tensors["meta/geometry"][9] = 49408  # CLIP's vocabulary, which the tokenizer lacks
        save_tensors(ckpt, tensors)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "eval.flipds"),
                     "--task", "zero-shot"]) == 2
        assert "not the tokenizer's" in capsys.readouterr().err

    def test_eval_modes_refuses_a_ratio_without_view_count(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "init.ckpt"
        save_state(ckpt, init_train_state(TrainConfig(batch_size=2, warmup_samples=0,
                                                      total_samples=2)))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "eval.flipds"),
                     "--task", "modes", "--mask-ratio", "0.6"]) == 1
        assert "integer view count" in capsys.readouterr().err

    def test_train_with_malformed_value_is_usage_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text((workspace / "config.txt").read_text().replace(
            "batch_size = 64", "batch_size = abc"))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert "'batch_size'" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("mask_ratio", "0.97"), ("text_mask_ratio", "0.99"), ("preset", "giant")])
    def test_train_refuses_a_config_before_writing(self, workspace, tmp_path, capsys, key,
                                                   value):
        config = tmp_path / "config.txt"
        lines = (workspace / "config.txt").read_text().splitlines()
        config.write_text("\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                                    for line in lines) + "\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_eval_on_empty_dataset_is_data_error(self, tmp_path, capsys):
        cfg = TrainConfig(batch_size=2, warmup_samples=0, total_samples=2)
        save_state(tmp_path / "init.ckpt", init_train_state(cfg))
        data = tmp_path / "empty.flipds"
        data.write_bytes(MAGIC + struct.pack("<IHHB", 0, 32, 32, 3))
        for task in ("zero-shot", "retrieval", "linear-probe", "modes"):
            assert main(["eval", "--ckpt", str(tmp_path / "init.ckpt"), "--data", str(data),
                         "--task", task]) == 2
            assert "no records" in capsys.readouterr().err

    def test_retrieval_with_k_below_one_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def embed_images(*args, **kwargs):
            raise AssertionError("embedded before --k was checked")

        monkeypatch.setattr("flip.cli.embed_images", embed_images)
        cfg = TrainConfig(batch_size=2, warmup_samples=0, total_samples=2)
        save_state(tmp_path / "init.ckpt", init_train_state(cfg))
        for k in ("0", "-1"):
            assert main(["eval", "--ckpt", str(tmp_path / "init.ckpt"), "--data",
                         str(workspace / "eval.flipds"), "--task", "retrieval",
                         "--k", k]) == 1
            out, err = capsys.readouterr()
            assert out == "" and f"k must be >= 1, got {k}" in err

    @staticmethod
    def small_image_dataset(path):
        """One batch of 16x16 images, half the tiny preset's size."""
        ds = generate_dataset(64, 0, path)
        write_dataset(path, Dataset(images=ds.images[:, :16, :16].copy(), captions=ds.captions))
        return path

    def test_eval_on_wrong_image_size_is_data_error(self, tmp_path, capsys):
        cfg = TrainConfig(batch_size=2, warmup_samples=0, total_samples=2)
        save_state(tmp_path / "init.ckpt", init_train_state(cfg))
        data = self.small_image_dataset(tmp_path / "small.flipds")
        for task in ("zero-shot", "retrieval", "linear-probe", "modes"):
            assert main(["eval", "--ckpt", str(tmp_path / "init.ckpt"), "--data", str(data),
                         "--task", task]) == 2
            assert "16x16x3" in capsys.readouterr().err

    def test_train_and_tune_on_wrong_image_size_are_data_errors(
        self, workspace, tmp_path, capsys
    ):
        data = self.small_image_dataset(tmp_path / "small.flipds")
        config = tmp_path / "config.txt"
        config.write_text((workspace / "config.txt").read_text().replace(
            str(workspace / "train.flipds"), str(data)))
        ckpt = tmp_path / "init.ckpt"
        save_state(ckpt, init_train_state(TrainConfig(batch_size=64, warmup_samples=0,
                                                      total_samples=64)))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir),
                     "--resume", str(ckpt)]) == 2
        assert main(["tune-unmasked", "--ckpt", str(ckpt), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("images are 16x16x3") == 3
        assert not out_dir.exists() and not (tmp_path / "init.ckpt.tuned").exists()

    def test_train_with_unknown_text_policy_writes_nothing(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text((workspace / "config.txt").read_text().replace(
            "text_mask_policy = prioritized", "text_mask_policy = sometimes"))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert "text_mask_policy" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_train_with_beta_of_one_writes_nothing(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.txt"
        text = (workspace / "config.txt").read_text()
        assert "betas = 0.9,0.95" in text
        config.write_text(text.replace("betas = 0.9,0.95", "betas = 1.0,0.95"))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        assert "betas" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_mismatched_checkpoint_is_usage_error_and_writes_nothing(
        self, workspace, tmp_path, capsys
    ):
        # the other refusals (geometry, missing decoder) take the same path
        ckpt = tmp_path / "seed0.ckpt"
        save_state(ckpt, init_train_state(TrainConfig(batch_size=64, warmup_samples=0,
                                                      total_samples=64)))
        config = tmp_path / "config.txt"
        config.write_text((workspace / "config.txt").read_text().replace("seed = 0", "seed = 5"))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out-dir", str(out_dir),
                     "--resume", str(ckpt)]) == 1
        assert main(["tune-unmasked", "--ckpt", str(ckpt), "--config", str(config)]) == 1
        assert "seed0.ckpt" in capsys.readouterr().err
        assert not out_dir.exists() and not (tmp_path / "seed0.ckpt.tuned").exists()

    def test_gen_data_success(self, tmp_path):
        out = tmp_path / "g.flipds"
        assert main(["gen-data", "--n", "16", "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()


class TestCheckpointRefusals:
    """Checkpoint contents that do not fit the stored geometry are data
    errors (exit 2), and a refused resume writes nothing."""

    @staticmethod
    def edited_checkpoint(path, edit):
        save_state(path, init_train_state(TrainConfig(batch_size=64, warmup_samples=0,
                                                      total_samples=64)))
        tensors = load_tensors(path)
        edit(tensors)
        save_tensors(path, tensors)
        return path

    @staticmethod
    def resume(workspace, ckpt, out_dir):
        return main(["train", "--config", str(workspace / "config.txt"),
                     "--out-dir", str(out_dir), "--resume", str(ckpt)])

    @pytest.mark.parametrize("counters", [
        np.zeros(3), np.full(10, np.nan), np.full(10, -1.0), np.full(10, 0.5),
    ], ids=["three-entries", "nan", "negative", "fraction"])
    def test_malformed_counters(self, workspace, tmp_path, capsys, counters):
        ckpt = self.edited_checkpoint(tmp_path / "c.ckpt",
                                      lambda t: t.update({"meta/counters": counters}))
        assert self.resume(workspace, ckpt, tmp_path / "run") == 2
        assert "'meta/counters'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("prefix", ["m/", "v/"])
    def test_moment_of_wrong_shape(self, workspace, tmp_path, capsys, prefix):
        ckpt = self.edited_checkpoint(
            tmp_path / "c.ckpt", lambda t: t.update({f"{prefix}img/pos": np.zeros((3, 64))}))
        assert self.resume(workspace, ckpt, tmp_path / "run") == 2
        assert f"'{prefix}img/pos' is (3, 64)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("param/img/blk0/q/w"), "'param/img/blk0/q/w' is absent"),
        (lambda t: t.update({"param/img/blk9/q/w": np.zeros((64, 64))}),
         "unexpected checkpoint entry 'param/img/blk9/q/w'"),
        (lambda t: t.update({"param/img/pos": np.zeros((17, 64))}),
         "'param/img/pos' is (17, 64), but the stored geometry needs (16, 64)"),
    ], ids=["missing", "extra", "wrong-shape"])
    def test_parameters_not_the_stored_geometrys(self, workspace, tmp_path, capsys, edit,
                                                  message):
        ckpt = self.edited_checkpoint(tmp_path / "c.ckpt", edit)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "eval.flipds"),
                     "--task", "zero-shot"]) == 2
        assert self.resume(workspace, ckpt, tmp_path / "run") == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not (tmp_path / "run").exists()


class TestFlopsCommand:
    def test_reports_published_ratio(self, capsys):
        assert main(["flops", "--preset", "L-like", "--mask-ratio", "0.5"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert abs(decoded["ratio_vs_unmasked"] - 0.52) < 0.01

    def test_runtime_under_a_second(self, capsys):
        import time

        start = time.monotonic()
        main(["flops", "--preset", "H-like", "--mask-ratio", "0.75"])
        assert time.monotonic() - start < 1.0


class TestTrainEvalRoundTrip:
    def test_train_then_eval_via_checkpoint(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(workspace / "config.txt"),
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        ckpt = out_dir / "final.ckpt"
        assert ckpt.exists()
        assert (out_dir / "curve.csv").read_text().startswith("samples,metric,value")
        assert json.loads((out_dir / "flops.json").read_text())["total_flops"] > 0

        assert main(["eval", "--ckpt", str(ckpt), "--data",
                     str(workspace / "eval.flipds"), "--task", "zero-shot"]) == 0
        decoded = json.loads(capsys.readouterr().out.strip())
        assert decoded["metric"] == "zero_shot_acc"
        assert 0.0 <= decoded["value"] <= 1.0

    def test_eval_modes_emits_three_lines(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "run2"
        main(["train", "--config", str(workspace / "config.txt"), "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out_dir / "final.ckpt"), "--data",
                     str(workspace / "eval.flipds"), "--task", "modes",
                     "--mask-ratio", "0.5"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["mode"] for l in lines] == ["full", "masked", "ensemble"]

    def test_linear_probe_task(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "run_probe"
        main(["train", "--config", str(workspace / "config.txt"), "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out_dir / "final.ckpt"), "--data",
                     str(workspace / "eval.flipds"), "--task", "linear-probe"]) == 0
        decoded = json.loads(capsys.readouterr().out.strip())
        assert decoded["metric"] == "linear_probe_acc"
        assert 0.0 <= decoded["value"] <= 1.0

    def test_retrieval_task(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "run3"
        main(["train", "--config", str(workspace / "config.txt"), "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out_dir / "final.ckpt"), "--data",
                     str(workspace / "eval.flipds"), "--task", "retrieval",
                     "--k", "5"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 2
        assert all(0.0 <= l["value"] <= 1.0 for l in lines)


class TestReport:
    def test_written_curve_reads_back(self, tmp_path):
        rows = [(64, "zero_shot_acc", 0.25), (128, "zero_shot_acc", 0.5)]
        write_rows(tmp_path / "curve.csv", CURVE_HEADER, rows)
        assert read_curve(tmp_path / "curve.csv") == rows

    def test_empty_run_list_rejected(self):
        with pytest.raises(ConfigError):
            tradeoff_report([])

    def test_missing_curve_named(self, tmp_path):
        run = tmp_path / "ghost"
        run.mkdir()
        with pytest.raises(DataFormatError, match="ghost"):
            tradeoff_report([run])

    def test_rows_sorted_by_compute(self, tmp_path):
        for name, flops, rows in (
            ("big", 200, [(100, 0.3), (200, 0.5)]),
            ("small", 50, [(100, 0.2), (300, 0.4)]),
        ):
            d = tmp_path / name
            d.mkdir()
            (d / "flops.json").write_text(json.dumps({"total_flops": flops}))
            curve = "samples,metric,value\n" + "\n".join(
                f"{s},zero_shot_acc,{v}" for s, v in rows
            )
            (d / "curve.csv").write_text(curve + "\n")
        points = tradeoffs = tradeoff_report([tmp_path / "big", tmp_path / "small"])
        computes = [p.compute_flops for p in points]
        assert computes == sorted(computes)
        csv = to_csv(points)
        assert csv.splitlines()[0] == "run,samples,compute_flops,metric,value,wall_seconds"

    def test_masked_run_compute_follows_flop_model(self, tmp_path):
        from flip.encoders import preset
        from flip.flops import count_flops

        cfg = preset("tiny")
        samples = 6400
        for name, ratio in (("mask00", 0.0), ("mask50", 0.5)):
            d = tmp_path / name
            d.mkdir()
            (d / "flops.json").write_text(count_flops(cfg, ratio).to_json())
            (d / "curve.csv").write_text(
                f"samples,metric,value\n{samples},zero_shot_acc,0.5\n"
            )
        points = {p.run: p for p in tradeoff_report([tmp_path / "mask00", tmp_path / "mask50"])}
        observed = points["mask50"].compute_flops / points["mask00"].compute_flops
        expected = count_flops(cfg, 0.5).ratio_vs_unmasked
        assert observed == pytest.approx(expected, rel=1e-9)

    def test_cli_report(self, tmp_path, capsys):
        d = tmp_path / "r0"
        d.mkdir()
        (d / "flops.json").write_text(json.dumps({"total_flops": 10}))
        (d / "curve.csv").write_text("samples,metric,value\n64,zero_shot_acc,0.5\n")
        (d / "timing.csv").write_text("samples,seconds\n64,1.5\n")
        assert main(["report", "--runs", str(d)]) == 0
        out = capsys.readouterr().out
        assert "r0,64,640,zero_shot_acc,0.5,1.5" in out

    @staticmethod
    def _run_dir(tmp_path, curve_rows="64,zero_shot_acc,0.5", timing_rows="64,1.5"):
        d = tmp_path / "r0"
        d.mkdir()
        (d / "flops.json").write_text(json.dumps({"total_flops": 10}))
        (d / "curve.csv").write_text(f"samples,metric,value\n{curve_rows}\n")
        (d / "timing.csv").write_text(f"samples,seconds\n{timing_rows}\n")
        return d

    def test_malformed_curve_row_is_data_error(self, tmp_path, capsys):
        d = self._run_dir(tmp_path, curve_rows="64;zero_shot_acc;0.5")
        assert main(["report", "--runs", str(d)]) == 2
        assert "curve.csv:2" in capsys.readouterr().err

    def test_malformed_timing_row_is_data_error(self, tmp_path, capsys):
        d = self._run_dir(tmp_path, timing_rows="64,abc")
        assert main(["report", "--runs", str(d)]) == 2
        assert "timing.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "curve_rows,timing_rows,where",
        [("-64,zero_shot_acc,0.5", "64,1.5", "curve.csv:2"),
         ("64,zero_shot_acc,nan", "64,1.5", "curve.csv:2"),
         ("64,zero_shot_acc,0.5\n128,zero_shot_acc,inf", "64,1.5", "curve.csv:3"),
         ("64,zero_shot_acc,0.5", "64,-1.5", "timing.csv:2"),
         ("64,zero_shot_acc,0.5", "64,1.5\n64,2.5", "timing.csv:3"),
         ("64,zero_shot_acc,0.5", "-64,1.5", "timing.csv:2")],
        ids=["negative-samples", "nan", "inf", "negative-seconds", "repeated-timing-sample",
             "negative-timing-samples"],
    )
    def test_impossible_row_is_data_error(self, tmp_path, capsys, curve_rows, timing_rows,
                                          where):
        d = self._run_dir(tmp_path, curve_rows=curve_rows, timing_rows=timing_rows)
        assert main(["report", "--runs", str(d)]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err

    def test_wrong_timing_header_is_data_error(self, tmp_path, capsys):
        d = self._run_dir(tmp_path)
        (d / "timing.csv").write_text("seconds,samples\n1.5,64\n")
        assert main(["report", "--runs", str(d)]) == 2
        assert "timing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b'{"total_flops": 1', b'{"flops": 10}', b'{"total_flops": "12"}',
         b'{"total_flops": true}', b'{"total_flops": NaN}', b'{"total_flops": -5}',
         b'{"total_flops": 1e999}', b'[10]', b'{"total_flops": 1\xff}'],
        ids=["truncated", "missing-key", "string", "bool", "nan", "negative", "infinite",
             "not-an-object", "not-utf8"],
    )
    def test_corrupt_flops_json_is_data_error(self, tmp_path, capsys, content):
        d = self._run_dir(tmp_path)
        (d / "flops.json").write_bytes(content)
        assert main(["report", "--runs", str(d)]) == 2
        err = capsys.readouterr().err
        assert "flops.json" in err and "Traceback" not in err

    def test_non_utf8_curve_is_data_error(self, tmp_path, capsys):
        d = self._run_dir(tmp_path)
        (d / "curve.csv").write_bytes(b"samples,metric,value\n64,acc\xff,0.5\n")
        assert main(["report", "--runs", str(d)]) == 2
        assert "not UTF-8" in capsys.readouterr().err
