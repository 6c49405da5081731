"""In-memory spans for the benchmark's traced run.

A span records its name, start, end and parent, plus counts read from the
wrapped call's result.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the part of it that its child spans cover,
so the self times of all spans of one pass add up to the root span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index of the parent span in Tracer.spans
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = self._clock()
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        """fn inside a span; counter(result, args, kwargs) gives its counts.

        A call that raises is counted under ``errors`` and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    sp.counts["errors"] = 1
                    raise
            if counter is not None:
                sp.counts.update(counter(result, args, kwargs))
            return result

        return traced


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cursor = sp.start
        for child in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(sp.duration - covered)
    return out


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed counts, self time and total time.

    Total time ``s`` adds only the outermost span of a name, so a layer
    that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, sp in enumerate(spans):
        agg = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        if not _inside(spans, sp.parent, sp.name):
            agg["s"] += sp.duration
        for key, value in sp.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def _inside(spans: List[Span], index: Optional[int], name: str) -> bool:
    while index is not None:
        if spans[index].name == name:
            return True
        index = spans[index].parent
    return False
