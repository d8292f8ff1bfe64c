"""Outside-in tracing: spans and counters around library calls.

The benchmark never edits the library. For one traced pass it replaces a
function at the module attribute its caller looks up, records a span or a
count around each call, and puts the original back when the pass ends, also
when the pass raises.

Spans are aggregated as they close, per (stage, name): the stage is the
outermost open span. A span's self time is its duration minus the durations
of the child spans it covers, so the self times of one stage add up to the
stage's own duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: dict[tuple[str, str], SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._open: list[list] = []  # [name, seconds covered by closed children]

    def _enter(self, name: str) -> float:
        self._open.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, start: float):
        duration = time.perf_counter() - start
        name, covered = self._open.pop()
        stage = self._open[0][0] if self._open else name
        stats = self.spans.get((stage, name))
        if stats is None:
            stats = self.spans[(stage, name)] = SpanStats()
        stats.count += 1
        stats.total_s += duration
        stats.self_s += duration - covered
        stats.durations.append(duration)
        if self._open:
            self._open[-1][1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    def add(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, fn: Callable, name: str,
              on_result: Callable[["Tracer", object], None] | None = None) -> Callable:
        """`fn` with a span around every call; `on_result` may count from the result."""
        def wrapper(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(start)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """`fn` counting its calls; cheaper than a span for very hot functions."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def rescale(self, factor: float):
        """Multiply every span time by `factor`, as into reference seconds."""
        for stats in self.spans.values():
            stats.total_s *= factor
            stats.self_s *= factor
            stats.durations = [d * factor for d in stats.durations]

    def total_s(self, name: str) -> float:
        return sum(s.total_s for (_, n), s in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for (_, n), s in self.spans.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(s.count for (_, n), s in self.spans.items() if n == name)

    def durations(self, name: str) -> list[float]:
        return [d for (_, n), s in self.spans.items() if n == name for d in s.durations]


@contextmanager
def patched(points: Iterable[tuple[object, str, Callable[[Callable], Callable]]],
            ) -> Iterator[None]:
    """Replace each `module.attr` by `wrap(original)`; restore all on exit."""
    saved = []
    try:
        for module, attr, wrap in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
