"""Span tracer for the traced benchmark run.

The tracer wraps public callables of the decaprop package from outside: each
wrapped call records a span (name, start, end, parent span, tape records
added, and an optional size) in an in-memory list.  Nothing inside the
package is edited; ``restore`` puts every original callable back.  The
untraced run never constructs a tracer, so it pays no wrapping cost.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, RECORDS, SIZE = range(6)

# The four blocks a DecaProp forward is made of; together they must cover the
# traced forward span (the remainder is the loss and argument plumbing).
FORWARD_BLOCKS = ("encoder.input", "decaenc", "decacore", "answer.pointer")


class Tracer:
    """Collects spans from the callables it has wrapped, until ``restore``."""

    def __init__(self, records):
        """``records()`` gives the tape length at the moment it is called."""
        self.spans: list[list] = []
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._records = records
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a traced version recording spans named
        ``name``; ``size(*args)`` gives a number stored with each span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._records(),
                    size(*args) if size is not None else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[RECORDS] = tracer._records() - span[RECORDS]
                stack.pop()

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def watch_gc(self) -> None:
        """Time garbage collections until ``restore``."""
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Stop watching the collector and put every wrapped callable back."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def take(self) -> tuple[list[list], float, int]:
        """Hand over the spans, collector seconds and generation-2 collections
        recorded so far, and start afresh; parent indices stay valid within
        each span list handed out."""
        taken = self.spans, self.gc_pause_s, self.gc_gen2
        self.spans, self.gc_pause_s, self.gc_gen2 = [], 0.0, 0
        return taken


def dump(path: str, phases: dict[str, list[list]]) -> None:
    """Write span lists, keyed by phase, as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "records", "size"],
                   "phases": phases}, fh)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, tape records, size.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                "records": 0, "size": 0})
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        row = out[span[NAME]]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
        row["records"] += span[RECORDS]
        row["size"] += span[SIZE]
    return dict(out)


def forward_coverage(spans: list[list]) -> float:
    """Share of traced forward time spent inside the four block spans."""
    forward_s = 0.0
    block_s = 0.0
    forwards = {i for i, s in enumerate(spans) if s[NAME] == "numerics.forward"}
    for i, span in enumerate(spans):
        if span[NAME] == "numerics.forward":
            forward_s += span[END] - span[START]
        elif span[NAME] in FORWARD_BLOCKS and span[PARENT] in forwards:
            block_s += span[END] - span[START]
    return block_s / forward_s if forward_s > 0 else 0.0


def count_children(spans: list[list], parent: str, child: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    parents = {i for i, s in enumerate(spans) if s[NAME] == parent}
    return sum(1 for s in spans if s[NAME] == child and s[PARENT] in parents)
