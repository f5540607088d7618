"""Accuracy-versus-compute trade-off table across run directories.

Each run directory must hold the curve.csv and flops.json written by
training. Estimated compute per point is FLOPs/sample x samples seen;
wall-clock seconds are joined in when a timing.csv is present. Output
rows are sorted by compute ascending so they can be plotted directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .checkpoint import atomic_write
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
TIMING_HEADER = "samples,seconds"


def _read_rows(path: Path, header: str, types: tuple, check) -> list[tuple]:
    """Rows after ``header``, field i converted by ``types[i]``. A wrong
    header, a malformed row or a row for which ``check(row, previous_row)``
    names a problem raises ``DataFormatError`` naming the line."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text") from e
    if not lines or lines[0] != header:
        raise DataFormatError(f"{path}: expected header {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            row = tuple(t(f) for t, f in zip(types, line.split(","), strict=True))
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: malformed row {line!r}") from e
        problem = check(row, rows[-1] if rows else None)
        if problem:
            raise DataFormatError(f"{path}:{lineno}: {problem} in row {line!r}")
        rows.append(row)
    return rows


def write_rows(path, header: str, rows) -> None:
    """A CSV file of ``header`` and one comma-joined line per row, the
    format ``_read_rows`` reads back, replaced through ``atomic_write``."""
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    with atomic_write(path) as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


def _curve_problem(row, previous) -> Optional[str]:
    samples, _, value = row
    if samples < 0:
        return "negative samples"
    if not math.isfinite(value):
        return "non-finite value"
    return None


def _timing_problem(row, previous) -> Optional[str]:
    samples, seconds = row
    if samples < 0:
        return "negative samples"
    if not 0 <= seconds < math.inf:
        return "seconds not a finite number >= 0"
    if previous is not None and samples <= previous[0]:
        return "samples not above the previous row's"
    return None


def read_curve(path: Path) -> list[tuple[int, str, float]]:
    """Rows (samples_seen, metric, value) of a run's curve.csv: samples
    >= 0 and finite values."""
    return _read_rows(path, CURVE_HEADER, (int, str, float), _curve_problem)


def read_timing(path: Path) -> list[tuple[int, float]]:
    """Rows (samples_seen, seconds) of a run's timing.csv: samples >= 0
    and strictly increasing, seconds finite and >= 0."""
    return _read_rows(path, TIMING_HEADER, (int, float), _timing_problem)


def _read_total_flops(path: Path) -> float:
    """``total_flops`` of a run's flops.json: a finite number >= 0."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))["total_flops"]
    except (ValueError, KeyError, TypeError) as e:  # not UTF-8, not JSON, no such key
        raise DataFormatError(f"{path}: not a flops.json with 'total_flops'") from e
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise DataFormatError(f"{path}: total_flops {value!r} is not a finite number >= 0")
    return value


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
        per_sample = _read_total_flops(flops_file)
        timing_file = run / "timing.csv"
        timing = dict(read_timing(timing_file)) if timing_file.exists() else {}
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
