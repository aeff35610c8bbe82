"""Spans and work counts recorded by the benchmark around calls into the
program's modules.

Spans stay in memory and are summarised when the run ends.  Each pass,
set-up repetition or input generation gets its own tracer, which plays
the part of a request id.  A disabled tracer records nothing, so an
untraced pass pays one attribute test per span.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # (name, parent index or None, start, end)
        self.spans: list[tuple[str, int | None, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds) over this tracer's spans.

        Self time is a span's duration minus the part covered by its
        children.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + (end - start), own + (end - start - child_time[i]))
        return out


def median_layers(tracers: list[Tracer]) -> dict[str, tuple[float, float, float]]:
    """Per span name, the median over the tracers that recorded it of
    (calls, busy seconds, self seconds)."""
    per_name: dict[str, list] = defaultdict(list)
    for t in tracers:
        for name, row in t.layers().items():
            per_name[name].append(row)
    return {
        name: tuple(statistics.median(col) for col in zip(*rows))
        for name, rows in per_name.items()
    }


def span_table(tracers: list[Tracer]) -> list[str]:
    rows = median_layers(tracers)
    lines = [f"{'span':32s} {'calls':>8s} {'busy_ms':>12s} {'self_ms':>12s}"]
    for name in sorted(rows):
        calls, busy, own = rows[name]
        lines.append(f"{name:32s} {calls:8.0f} {busy * 1e3:12.3f} {own * 1e3:12.3f}")
    return lines
