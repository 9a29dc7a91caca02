"""Machine-speed calibration.

On a shared machine the same Python code can run 40% faster or slower from
one second to the next, and that drift is far larger than the changes the
benchmark must resolve. So a fixed pure-Python reference loop is timed
between sentences, and each measured time t is reported as
t * REFERENCE_S / r, where r is the reference time measured next to it: the
time the work would take on a machine where one reference loop takes exactly
REFERENCE_S. The loop does what gluesem does most (build and rewrite frozen
dataclass trees by pattern matching, format them, hash sets of strings) and
calls no gluesem code, so a change to gluesem cannot move it. It runs with
the garbage collector off, so the heap the program keeps cannot slow it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.0015  # nominal seconds of one reference loop
SAMPLE_EVERY_S = 0.02  # least time between two samples while work runs


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _build(depth, i=0):
    if depth == 0:
        return _Node("leaf", ())
    return _Node(("app", "lam")[i % 2], tuple(_build(depth - 1, i + j) for j in range(2)))


def _rewrite(node):
    match node:
        case _Node("app", (fun, arg)):
            return _Node("lam", (_rewrite(arg), _rewrite(fun)))
        case _Node("lam", kids):
            return _Node("app", tuple(_rewrite(k) for k in kids))
        case _:
            return node


def _show(node):
    if not node.kids:
        return node.op
    return f"{node.op}({', '.join(_show(k) for k in node.kids)})"


def _reference_work():
    tree = _build(7)
    seen = {}
    for _ in range(3):
        tree = _rewrite(tree)
        text = _show(tree)
        seen[text[:40]] = frozenset(text[i : i + 3] for i in range(0, 240, 3))
    return len(seen)


def reference_seconds() -> float:
    """Seconds one reference loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_median() -> float:
    """Median of three reference loops run now."""
    return statistics.median(reference_seconds() for _ in range(3))


class Speed:
    """Reference timings taken at least SAMPLE_EVERY_S apart while work runs."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self):
        value = reference_seconds()
        self.stamps.append(perf_counter())
        self.samples.append(value)

    def maybe_sample(self):
        if not self.stamps or perf_counter() - self.stamps[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, seconds: float, ended_at: float) -> float:
        """`seconds` of work that ended at `ended_at`, in reference-speed
        seconds: scaled by the samples taken just before and just after."""
        j = bisect.bisect_left(self.stamps, ended_at)
        around = self.samples[max(j - 1, 0) : j + 1]
        return seconds * REFERENCE_S / statistics.fmean(around)
