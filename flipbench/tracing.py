"""Spans recorded in memory around calls into the flip modules.

A traced run swaps module attributes that the trainer and the evaluation
code call through (``flip.trainer.encode_image``,
``flip.autodiff.Graph.backward``, ...) for wrappers that record one span
per call, then puts the originals back. Nothing under ``src/`` knows about
it: every span is taken at a boundary the program already calls across.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float  # time.perf_counter() seconds
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at top level
    unit: int  # training step or eval pass the span started in
    info: tuple = ()  # per-call facts the metrics need (batch size, mask ratio, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = 0
        self._open: list[int] = []

    def begin(self, name: str, info: tuple = ()) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.unit, info))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, info: tuple = ()):
        index = self.begin(name, info)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, info_fn: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``info_fn(args, kwargs)`` runs
        before the span opens, so its own cost is not charged to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = info_fn(args, kwargs) if info_fn is not None else ()
            index = self.begin(name, info)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


@contextlib.contextmanager
def patched(recorder: Recorder, targets):
    """Install span wrappers on ``(owner, attribute, span name, info_fn)``
    targets for the duration of the block; the originals always come back."""
    saved = []
    try:
        for owner, attr, name, info_fn in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, info_fn))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def restored(targets, originals) -> bool:
    """True when every target attribute is again the object saved before."""
    return all(owner.__dict__[attr] is originals[(owner, attr)]
               for owner, attr, _, _ in targets)
