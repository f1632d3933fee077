"""In-memory spans recorded by the benchmark around calls into the package.

A span has a name, start, end, parent span and pass id.  Spans are kept
in memory and written out once, when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def children(self, index: int) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.parent == index]

    def self_time(self, index: int) -> float:
        """Duration minus the union of the child spans' intervals."""
        intervals = sorted((self.spans[i].start, self.spans[i].end) for i in self.children(index))
        covered, reach = 0.0, float("-inf")
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return self.spans[index].duration - covered

    def subtree(self, index: int) -> list[int]:
        out = [index]
        for child in self.children(index):
            out.extend(self.subtree(child))
        return out

    def durations(self, pass_id: int) -> dict[str, float]:
        """Summed duration per span name within one pass."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.pass_id == pass_id:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def write(self, path: Path) -> None:
        records = [dict(asdict(span), self_time=self.self_time(i)) for i, span in enumerate(self.spans)]
        path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


class NoTracer:
    """Same interface, records nothing: the untraced run of a sequence."""

    def span(self, name: str):
        return nullcontext()
