"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent, command): ``name`` is
``<layer>.<operation>``, ``parent`` is the id of the enclosing span and
``command`` names the CLI command the span belongs to.  Spans stay in memory
and are written out once, when the run ends.  ``NullTracer`` offers the same
calls and records nothing, so a replay under it runs the same library calls
without tracing; ``span_cost`` times what one span adds.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._command = None

    @contextmanager
    def span(self, name, command=None):
        if command is not None:
            self._command = command
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "command": self._command, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        self.counts[name] += n


class NullTracer:
    def span(self, name, command=None):
        return nullcontext()

    def count(self, name, n):
        pass


def span_cost(n=20_000, repeats=5):
    """Seconds one span adds to the code it wraps: ``n`` empty spans under a
    ``Tracer`` minus the same under a ``NullTracer``, per span, the median
    over ``repeats``.  Timing many spans in a tight loop resolves a cost that
    a comparison of whole traced and untraced replays, each seconds long and
    subject to the host's drift, cannot."""
    costs = []
    for _ in range(repeats):
        elapsed = []
        for tracer in (Tracer(), NullTracer()):
            start = time.perf_counter()
            for _ in range(n):
                with tracer.span("probe"):
                    pass
            elapsed.append(time.perf_counter() - start)
        costs.append((elapsed[0] - elapsed[1]) / n)
    return statistics.median(costs)


def self_times(spans):
    """Self time per span name: each span's duration minus the time its
    direct children cover (children of one span never overlap here)."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
    return dict(totals)


def layer_self_times(spans):
    """Self time summed per layer, the part of each span name before the dot."""
    totals = defaultdict(float)
    for name, seconds in self_times(spans).items():
        totals[name.split(".", 1)[0]] += seconds
    return dict(totals)


def write_spans(path, passes, meta):
    """One JSON line of run metadata, then one line per span, tagged with
    the index of the traced pass it came from."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for index, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps({"pass": index, **span}, sort_keys=True) + "\n")
