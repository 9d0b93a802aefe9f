"""In-memory spans and counts for the traced run.

A span is (name, start_ns, end_ns, parent, run_id), where parent is the index
of the enclosing span or -1.  Spans are recorded by the benchmark around its
own calls into the package, kept in memory, and written out once at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def durations(spans: list[list], name: str) -> list[float]:
    """Durations in seconds of every span with this name."""
    return [(s[2] - s[1]) / 1e9 for s in spans if s[0] == name]


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name not covered by that span's children, for the
    spans of one tracer.  Children of one span never overlap (the tracer is
    single-threaded), so the covered part is the sum of their durations."""
    covered = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for s, c in zip(spans, covered):
        out[s[0]] += (s[2] - s[1] - c) / 1e9
    return dict(out)
