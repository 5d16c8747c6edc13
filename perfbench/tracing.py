"""In-memory spans around the benchmark's calls into pentgeo.

A span is (name, start, end, parent); parent is the index of the enclosing
span or -1.  Spans stay in memory while a run measures and are written out
once at the end.  NULL_TRACER has the same interface and records nothing, so
an untraced pass runs the same op code with only a no-op context manager
around each call.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of each span: its duration minus the
        part covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out.setdefault(name, []).append(end - start - child)
        return out

    def dump(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]


class _NullTracer:
    _context = nullcontext()

    def span(self, name: str):
        return self._context


NULL_TRACER = _NullTracer()
