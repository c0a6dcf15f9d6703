"""Spans and counters that the benchmark records around its own calls.

A span has a name, a start, an end and the span that was open when it
began.  Its self time is its duration minus the time covered by its child
spans.  Spans stay in memory; ``summary`` folds them into per-name self
times when the repetition ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_time: float = 0.0


class Tracer:
    """Records spans and counters; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].child_time += span.end - span.start

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict[str, float]:
        """Self seconds per span name (suffixed ``_s``) plus every counter."""
        out: dict[str, float] = dict(self.counts)
        for span in self.spans:
            key = span.name + "_s"
            out[key] = out.get(key, 0.0) + (span.end - span.start - span.child_time)
        return out
