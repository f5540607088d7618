"""Accuracy-versus-compute trade-off table across run directories.

Each run directory must hold the curve.csv and flops.json written by
training. Estimated compute per point is FLOPs/sample x samples seen;
wall-clock seconds are joined in when a timing.csv is present. Output
rows are sorted by compute ascending so they can be plotted directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError, DataFormatError


@dataclass
class TradeoffPoint:
    run: str
    samples: int
    compute_flops: float
    metric: str
    value: float
    wall_seconds: Optional[float] = None


CSV_HEADER = "run,samples,compute_flops,metric,value,wall_seconds"
CURVE_HEADER = "samples,metric,value"


def read_curve(path: Path) -> list[tuple[int, str, float]]:
    """Rows (samples_seen, metric, value) of a run's curve.csv."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise DataFormatError(f"{path}: unexpected curve header")
    rows = []
    for line in lines[1:]:
        samples, metric, value = line.split(",")
        rows.append((int(samples), metric, float(value)))
    return rows


def _read_timing(path: Path) -> dict[int, float]:
    if not path.exists():
        return {}
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        samples, seconds = line.split(",")
        rows[int(samples)] = float(seconds)
    return rows


def tradeoff_report(run_dirs) -> list[TradeoffPoint]:
    run_dirs = [Path(d) for d in run_dirs]
    if not run_dirs:
        raise ConfigError("no run directories given")
    points: list[TradeoffPoint] = []
    for run in run_dirs:
        curve = run / "curve.csv"
        flops_file = run / "flops.json"
        if not curve.exists() or not flops_file.exists():
            raise DataFormatError(f"run {run}: missing curve.csv or flops.json")
        per_sample = json.loads(flops_file.read_text())["total_flops"]
        timing = _read_timing(run / "timing.csv")
        for samples, metric, value in read_curve(curve):
            points.append(
                TradeoffPoint(
                    run=run.name,
                    samples=samples,
                    compute_flops=per_sample * samples,
                    metric=metric,
                    value=value,
                    wall_seconds=timing.get(samples),
                )
            )
    points.sort(key=lambda p: p.compute_flops)
    return points


def to_csv(points: list[TradeoffPoint]) -> str:
    lines = [CSV_HEADER]
    for p in points:
        wall = "" if p.wall_seconds is None else f"{p.wall_seconds}"
        lines.append(f"{p.run},{p.samples},{p.compute_flops},{p.metric},{p.value},{wall}")
    return "\n".join(lines) + "\n"
