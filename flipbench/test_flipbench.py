"""Tests of the benchmark's own code (run with pytest from the repo root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _span(name, start, end, parent, info=()):
    return tracing.Span(name, start, end, parent, 0, info)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            _span("outer", 0.0, 10.0, -1),
            _span("a", 1.0, 3.0, 0),
            _span("b", 2.0, 5.0, 0),  # overlaps a: the union 1..5 counts once
            _span("a.inner", 1.5, 2.5, 1),  # grandchild: charged to a, not outer
            _span("c", 6.0, 7.0, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 1.0, 1.0])

    def test_recorder_links_parents(self):
        rec = tracing.Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            rec.unit = 3
            with rec.span("second"):
                pass
        assert [(s.name, s.parent, s.unit) for s in rec.spans] == [
            ("outer", -1, 0), ("inner", 0, 0), ("second", 0, 3)]
        own = tracing.self_times(rec.spans)
        assert own[0] == pytest.approx(rec.spans[0].duration - rec.spans[1].duration
                                       - rec.spans[2].duration)
        assert all(t >= 0 for t in own)


class TestWrappers:
    def test_targets_restored_after_traced_block(self):
        originals = wl.target_originals()
        rec = tracing.Recorder()
        with tracing.patched(rec, wl.TARGETS):
            assert not any(owner.__dict__[attr] is originals[(owner, attr)]
                           for owner, attr, _, _ in wl.TARGETS)
        assert tracing.restored(wl.TARGETS, originals)

    def test_restored_when_the_block_raises(self):
        originals = wl.target_originals()
        with pytest.raises(RuntimeError):
            with tracing.patched(tracing.Recorder(), wl.TARGETS):
                raise RuntimeError("boom")
        assert tracing.restored(wl.TARGETS, originals)

    def test_wrapped_call_records_span_and_result(self):
        from flip.tokenizer import tokenize_batch

        owner = types.SimpleNamespace(tokenize_batch=tokenize_batch)
        target = [(owner, "tokenize_batch", "tokenizer.tokenize", wl._caption_count)]
        rec = tracing.Recorder()
        with tracing.patched(rec, target):
            batch = owner.tokenize_batch(["a red circle", "the blue cross"])
        assert owner.tokenize_batch is tokenize_batch
        assert batch.batch_size == 2
        assert [(s.name, s.info) for s in rec.spans] == [("tokenizer.tokenize", (2,))]
        assert rec.spans[0].end >= rec.spans[0].start


class TestWorkloadData:
    def test_pretrain_data_is_deterministic_in_the_seed(self, tmp_path):
        work = wl.make_workload("pretrain-m50")
        work.setup(tmp_path, 7)
        first = work.fingerprint()
        work.setup(tmp_path, 7)
        assert work.fingerprint() == first
        work.setup(tmp_path, 8)
        assert work.fingerprint() != first


class TestMetricNames:
    def test_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == wl.PER_LAYER_UNITS
        assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS

    def test_computed_metrics_are_the_declared_ones(self):
        loop = wl.Loop(step_ms=[1.0, 2.0, 3.0], pass_s=[0.5], items=64, items_s=0.5)
        assert set(wl.end_to_end(loop, [1.0, 2.0], 2_000_000)) == set(wl.END_TO_END_UNITS)
        from flip.encoders import preset

        layers = wl.layer_metrics([], 1, preset("tiny"))
        assert set(layers) == set(wl.PER_LAYER_UNITS)

    def test_flop_rates_and_masked_speedup(self):
        from flip import flops
        from flip.encoders import preset

        cfg = preset("tiny")
        spans = [
            _span("encoders.encode_image", 0.0, 2.0, -1, (64, 0.0)),
            _span("encoders.encode_image", 2.0, 3.0, -1, (64, 0.5)),
        ]
        out = wl.layer_metrics(spans, 2, cfg)
        work = 64 * (flops.count_flops(cfg, 0.0).image_flops + flops.count_flops(cfg, 0.5).image_flops)
        assert out["encoders.image_gflops_per_s"] == pytest.approx(work / 3.0 / 1e9)
        assert out["encoders.encode_image_ms"] == pytest.approx(1500.0)
        assert out["flops.masked_speedup_measured"] == pytest.approx(2.0)
        assert out["flops.masked_speedup_analytic"] == pytest.approx(
            flops.count_flops(cfg, 0.0).image_flops / flops.count_flops(cfg, 0.5).image_flops)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pretrain-m50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
