"""flip benchmark: one workload per run, untraced or traced.

    python3 flipbench/run.py --workload pretrain-m50 --seed 1 --seconds 25 --trace 0

Untraced (``--trace 0``) it sets up a few times, warms up,
then runs the workload's closed loop for ``--seconds`` and prints the
end-to-end metrics. Traced (``--trace 1``) it spends half the time
untraced and half with span wrappers installed, and prints the per-layer
metrics plus the tracing overhead. Every run checks the program's
outputs. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-m50", "pretrain-m75-rec", "eval-suite")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def live_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(nproc: int, threads_seen: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    flip_threads = int(os.environ["FLIP_THREADS"])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "flip_threads": flip_threads,
        "nproc": nproc,
        "threads_seen": threads_seen,
        "threads_over_nproc": max(blas_threads, flip_threads, threads_seen) > nproc,
        "git_commit": git_commit(),
    }


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def report(label: str, metrics: dict, units: dict, aliases: dict) -> None:
    print(f"{label}:")
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:34s} {value:14.6f} {units[name]}{alias}")


def run(args, nproc: int) -> dict:
    import workloads as wl
    import tracing

    work = wl.make_workload(args.workload)
    checks = wl.Checks()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE.joinpath("work").resolve()))
    try:
        setup_s, setup_layers, prints = [], [], []
        for _ in range(work.SETUP_REPEATS):
            t0 = time.perf_counter()
            setup_layers.append(work.setup(workdir, args.seed))
            setup_s.append(time.perf_counter() - t0)
            prints.append(work.fingerprint())
        checks.check(len(set(prints)) == 1, "set-up repeats produced different inputs")
        threads_seen = live_threads()
        work.warm_up()

        untraced_s = args.seconds / 2 if args.trace else args.seconds
        loop = work.measure(untraced_s, checks)
        threads_seen = max(threads_seen, live_threads())

        if args.trace:
            recorder = tracing.Recorder()
            originals = wl.target_originals()
            with tracing.patched(recorder, wl.TARGETS):
                traced = work.measure(args.seconds - untraced_s, checks, recorder)
            checks.check(tracing.restored(wl.TARGETS, originals), "span wrappers left installed")
        finished = work.finish(workdir, checks)

        if args.trace:
            metrics = wl.layer_metrics(recorder.spans, traced.units, work.encoder_config)
            metrics.update(median_of(setup_layers))
            metrics.update(finished)
            metrics["trainer.aborted_steps"] = float(work.aborted_steps)
            metrics["trace.overhead_ms"] = (wl.percentile(traced.step_ms, 50)
                                            - wl.percentile(loop.step_ms, 50))
            units = wl.PER_LAYER_UNITS
            spans_path = out_path(args, "spans.jsonl")
            recorder.write_jsonl(spans_path)
            aliases = {}
        else:
            metrics = wl.end_to_end(loop, setup_s,
                                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
            units = wl.END_TO_END_UNITS
            spans_path = None
            aliases = work.ALIASES
        metrics = {k: metrics[k] for k in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(nproc, threads_seen)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    report("metrics", metrics, units, aliases)
    print(f"  samples: {len(loop.step_ms)} steps in {len(loop.pass_s)} {work.PASSES} (untraced), "
          f"{len(setup_s)} set-ups")
    print(f"  ops_failed/ops_attempted: {checks.failed}/{checks.attempted}")
    for failure in checks.failures[:10]:
        print(f"  failed check: {failure}")
    print("env " + json.dumps(env))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "spans": spans_path and str(spans_path),
              "failures": checks.failures, **result}
    out_path(args, "json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def out_path(args, suffix: str) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}.{suffix}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flip" / "__init__.py").is_file():
        print(f"flip sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One thread each, set before numpy loads. The generator's thread pool is
    # bound by the interpreter lock: two threads made set-up slower and noisier.
    for var in BLAS_THREAD_VARS + ("FLIP_THREADS",):
        os.environ.setdefault(var, "1")
    HERE.joinpath("work").mkdir(exist_ok=True)
    result = run(args, nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
