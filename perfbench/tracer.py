"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end (seconds on the
tracer's clock), the id of the span that was open when it started, and
the id of the benchmark operation it belongs to, plus an optional count of
the work the call did. Spans stay in memory and are written out as JSON once
the run ends.

Layers are traced from outside the program: ``Tracer.wrap`` replaces a
function at the name its callers look up (``pipeline.estimate_normals``,
``training.adamw_step``, ...) with a wrapper that records a span, and
``Tracer.close`` puts every original back.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    count: float | None = None


class Tracer:
    def __init__(self, clock):
        self.clock = clock                  # e.g. time.perf_counter
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(span_id, name, self.clock(), float("nan"), parent, self.run_id)
        self.spans.append(span)
        self._open.append(span_id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(args, kwargs, result)``, when given, returns the span's count.
        It runs after the span has closed, so counting is not charged to the
        layer.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Undo every ``wrap``, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        return [s.end - s.start - covered(children[s.id]) for s in self.spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def covered(spans: list[Span]) -> float:
    """Length of the union of the spans' [start, end] intervals."""
    total = 0.0
    reach = float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        lo = max(s.start, reach)
        if s.end > lo:
            total += s.end - lo
            reach = s.end
    return total
