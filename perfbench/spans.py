"""Spans recorded around the benchmark's own calls into parcap modules.

Spans are flat: each wraps one public call made by a workload operation, so
a span's self time is its duration. Spans of one operation share its name.
Nothing inside ``src/`` is traced.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    op: str
    layer: str
    name: str
    start: float
    end: float

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory when enabled; a no-op otherwise."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.op = ""
        self.spans = []

    @contextmanager
    def span(self, layer, name):
        if not self.enabled:
            yield
            return
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(self.op, layer, name, start, perf_counter()))

    def seconds_by(self, key):
        """Summed span time keyed by ``key(span)``."""
        out = {}
        for s in self.spans:
            k = key(s)
            out[k] = out.get(k, 0.0) + s.seconds
        return out
