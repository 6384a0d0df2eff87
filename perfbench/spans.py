"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the package by replacing module
attributes from here; the package itself carries no tracing code. The
traced run is single-threaded, so a span's children never overlap and its
self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording a span per call; `observe(args, result)` runs
        after the span closes, so counting costs no span time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def report(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s, children in zip(self.spans, child_time):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - children
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n",
                        encoding="utf-8")


@contextmanager
def patched(targets):
    """Set (owner, attribute, value) triples for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
