"""Spans recorded around calls into the engine, from benchmark code only.

A `Tracer` wraps functions that the engine looks up as module attributes at
call time (for example `nextpage.simulate.predict`, which `replay` calls), so
every call through the wrapped name becomes a span: name, start, end and the
span that was open when it began.  Spans stay in memory until the run ends.
`patched` installs the wrappers and always restores the originals.

A span's self time is its duration minus the time its direct children cover;
children never overlap because each thread keeps its own span stack.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder; spans are (id, name, parent id, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.values: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span named `name`."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1]
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end))

    def wrap(self, name, fn, measure=None):
        """A stand-in for `fn` that records a span per call.

        `measure(result)` is added to `values[name]`, for counts such as the
        pages a sweep moved.
        """

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if measure is not None:
                self.values[name] += measure(result)
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace module attributes by traced wrappers for the `with` body.

    `targets` holds (module, attribute, span name, measure or None).
    """
    saved = []
    try:
        for module, attr, name, measure in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans):
        self.spans = sorted((tuple(s) for s in spans), key=lambda s: s[3])
        self._by_id = {s[0]: s for s in self.spans}
        self._by_name: dict[str, list[tuple]] = defaultdict(list)
        self._children_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            self._by_name[span[1]].append(span)
            if span[2] in self._by_id:
                self._children_time[span[2]] += span[4] - span[3]

    def named(self, name: str, under: str | None = None) -> list[tuple]:
        """Spans called `name` in start order, optionally only those with an
        ancestor called `under`."""
        found = self._by_name.get(name, [])
        if under is not None:
            found = [s for s in found if self.ancestor(s, under) is not None]
        return found

    def ancestor(self, span, name: str):
        parent = self._by_id.get(span[2])
        while parent is not None:
            if parent[1] == name:
                return parent
            parent = self._by_id.get(parent[2])
        return None

    def self_time(self, span) -> float:
        return (span[4] - span[3]) - self._children_time[span[0]]


def duration(span) -> float:
    return span[4] - span[3]


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, q in [0, 1]; NaN for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def tail_label(count: int) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if count * (1.0 - q) >= 10 - 1e-9:
            best = (label, q)
    return best


def describe(values, scale: float = 1.0, digits: int = 4) -> str:
    """`median=… pXX=… n=…` for a sample, values multiplied by `scale`."""
    text = f"median={median(values) * scale:.{digits}f}"
    tail = tail_label(len(values))
    if tail is not None:
        text += f" {tail[0]}={quantile(values, tail[1]) * scale:.{digits}f}"
    return text + f" n={len(values)}"
