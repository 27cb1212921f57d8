"""In-memory spans and counters, recorded from outside the program.

A traced run replaces public functions at the module attributes where
their callers look them up (for example densepde.construct's
solve_jets_triangular) with wrappers that open a span around the call.
Counters are read from the arguments and return values of those calls,
never from inside the program.  Bookkeeping done in a counter callback is
taken off the span clock, so it lands in no span's time; it still shows
in the traced wall time, and so in the reported tracing overhead.

Spans and pauses are kept in time.perf_counter() seconds.  totals() and
self_times() take an optional `at`, a non-decreasing map from that clock
to another (HostClock.at, for reference-host seconds).
"""

from __future__ import annotations

import bisect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._pauses: list[tuple[float, float]] = []  # off-clock intervals, in order
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def count(self, name: str, amount=1):
        self.counts[name] += amount

    def maximum(self, name: str, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, module, attr: str, name: str, on_return=None):
        """Replace module.attr by a wrapper that counts calls as
        name + "_calls" and spans each one.  `on_return(tracer, args,
        result)` runs off the span clock."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            with self.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                self._off_clock(on_return, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def _off_clock(self, fn, *args):
        t0 = time.perf_counter()
        try:
            fn(self, *args)
        finally:
            self._pauses.append((t0, time.perf_counter()))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _duration(self, at):
        """duration(start, end) on the clock `at`, less the pauses inside;
        a pause never straddles a span boundary."""
        at = at or (lambda t: t)
        ends = [b for a, b in self._pauses]
        paused = [0.0]
        for a, b in self._pauses:
            paused.append(paused[-1] + at(b) - at(a))

        def duration(start, end):
            inside = paused[bisect.bisect_right(ends, end)] - paused[bisect.bisect_right(ends, start)]
            return at(end) - at(start) - inside

        return duration

    def totals(self, at=None) -> dict[str, float]:
        """Per span name, the summed duration of its spans (no wrapped
        function calls another one of the same name)."""
        duration = self._duration(at)
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += duration(start, end)
        return out

    def self_times(self, at=None) -> dict[str, float]:
        """Per span name, duration minus the time its child spans cover."""
        duration = self._duration(at)
        own = [duration(start, end) for name, start, end, parent in self.spans]
        covered: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += own[i]
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += own[i] - covered[i]
        return out
