"""Wall times scaled to a fixed machine speed.

On a small share of a busy host the CPU's speed drifts. On a 2-vCPU VM each
vCPU switched, every fraction of a second and independently of the other,
between two speeds about 1.6 times apart, and the share of time spent slow
drifted over minutes; CPU time moved with wall time. So the same benchmark
run a few minutes later read up to a quarter slower.

The benchmark therefore times a fixed probe kernel between the intervals it
times, about a hundred times per pass, and reports times in reference
seconds: wall seconds times `REFERENCE_S` over the mean probe time. A task
of tens of milliseconds mostly runs at one speed, the speed of the probes
just before and after it; over a stage of seconds the speed changes, and
only the run's mean probe time follows it. On that VM the median task time
scaled per task varied 3-7% between runs where the wall time varied 10-24%.

The probe is pure Python with a little numpy, like the planner and fitting
code it stands beside, and does not call the library, so a change to the
library leaves it as it was. The collector is off while it runs, so that
garbage left by the work before it is not billed to the probe.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from typing import Callable, ContextManager

import numpy as np

REFERENCE_S = 1e-3  # probe time at the reference speed; reference seconds are seconds there

_VECTOR = np.arange(2000.0)


def _kernel() -> int:
    counts: dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(ranked) + int((_VECTOR * _VECTOR).sum())


def probe() -> float:
    """Seconds the probe kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(probe_s: list[float]) -> float:
    """Reference seconds per wall second, from the probe times around an interval."""
    return REFERENCE_S / statistics.fmean(probe_s)


class Probes:
    """Probe times taken between the timed intervals of one pass.

    A tracer's `span` passed in records each probe as a span of its own, so
    no traced layer counts probe time as its own.
    """

    def __init__(self, span: Callable[[str], ContextManager] = lambda name: nullcontext()):
        self._span = span
        self.times: list[float] = []

    def take(self):
        with self._span("perfbench.probe"):
            self.times.append(probe())
