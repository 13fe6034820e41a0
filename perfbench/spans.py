"""In-memory spans around calls into mdenc's modules.

A ``Tracer`` replaces a function with a timing wrapper at the place where
its caller looks it up (``mdenc.encoders.fill_polygon`` is the name
``encode_retire`` calls, ``mdenc.raster.draw_polyline`` the one
``fill_polygon`` calls), so the program itself stays untouched. Each span
is ``[name, start, end, parent]``; a layer's self time is its span's
duration minus the time its child spans cover. Spans stay in memory until
``write`` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``note(tracer, arguments, result)`` runs after each call with the
        call's bound arguments, to count work from argument shapes.
        """
        original = owner.__dict__.get(attr)
        if not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock = self.spans, self._open, time.perf_counter
        signature = inspect.signature(original) if note else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for (name, start, end, _), child in zip(self.spans, covered):
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child
        return out

    def total_under(self, name: str, parent_name: str) -> float:
        """Inclusive seconds of ``name`` spans whose parent is a
        ``parent_name`` span."""
        spans = self.spans
        return sum(end - start for n, start, end, parent in spans
                   if n == name and parent >= 0 and spans[parent][0] == parent_name)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call: a wrapped no-op timed against
        the bare one. Times the span count, this estimates the tracing
        overhead without the run-to-run noise of two whole passes."""
        target = types.SimpleNamespace(noop=lambda: None)
        bare = target.noop
        probe = Tracer()
        probe.wrap(target, "noop", "noop")
        wrapped = target.noop
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, name, start, end
        (seconds on the run's monotonic clock)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
