"""In-memory spans around the benchmark's calls into the package.

Spans are recorded from outside: the benchmark wraps each public call it
makes (``tracer.call("qubo.build_qubo", build_qubo, inst)``) and each op and
check it runs.  With tracing off, ``call`` is a plain call and ``span`` does
nothing, so the end-to-end run and the traced run execute the same code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed interval; ``trace`` is the id of the root span it belongs to."""

    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters while ``enabled`` is true."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        ident = len(self.spans)
        span = Span(
            id=ident,
            parent=parent.id if parent else None,
            trace=parent.trace if parent else ident,
            name=name,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


@dataclass
class SpanTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, SpanTotals]:
    """Call count, summed duration and summed self time per span name.

    Self time is a span's duration minus the part its child spans cover;
    children of one span never overlap, because calls are sequential.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    out: dict[str, SpanTotals] = {}
    for span in spans:
        tot = out.setdefault(span.name, SpanTotals())
        tot.calls += 1
        tot.busy_s += span.duration
        tot.self_s += span.duration - covered[span.id]
    return out
