"""In-memory spans, wrappers that record them, and their aggregation.

A span is one timed call: name, start, end, the span that caused it (on the
same thread) and the op it belongs to, plus optional work counts.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
time covered by its child spans; children nest on one thread, so they never
overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **counts):
        """Time the block; the yielded dict takes counts known only at its end."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield counts
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op,
                                   threading.get_ident(), counts))

    def wrap(self, fn, name: str):
        """``fn`` inside a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "thread": s.thread,
                    "counts": s.counts,
                }) + "\n")


def self_seconds(spans) -> dict[int, float]:
    """Self time of every span, by span id."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in spans}


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, and summed counts."""
    own = self_seconds(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "counts": defaultdict(int)})
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += own[s.id]
        for key, value in s.counts.items():
            row["counts"][key] += value
    for row in out.values():
        row["counts"] = dict(row["counts"])
    return out


@contextmanager
def patched(targets):
    """Temporarily replace ``(owner, attribute, replacement)`` triples."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
