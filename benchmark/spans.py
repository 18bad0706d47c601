"""In-memory span recorder for the benchmark's traced run.

A span is one call into a layer: its name, start and end on a monotonic
clock, the index of the span that was open when it started (its parent) and
a group id. Spans of one train step, or of one test record, share a group id:
the caller marks the span that starts a new group and every span opened after
it inherits the id until the next group starts. Spans stay in memory until
``write_jsonl`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "attrs")

    def __init__(self, name, start, parent, group):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.group = group
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.group = 0
        self._open: list[int] = []

    @property
    def depth(self) -> int:
        """Number of spans open right now."""
        return len(self._open)

    def open(self, name: str, new_group: bool = False) -> Span:
        if new_group:
            self.group += 1
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), parent, self.group)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        index = self._open.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = self.clock()

    @contextmanager
    def span(self, name: str, new_group: bool = False):
        s = self.open(name, new_group)
        try:
            yield s
        finally:
            self.close(s)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "group": s.group}
                if s.attrs:
                    row["attrs"] = s.attrs
                f.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    out = []
    for s, ks in zip(spans, kids):
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(ks, key=lambda k: spans[k].start):
            lo = max(spans[k].start, s.start)
            hi = min(spans[k].end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def roots(spans) -> list[int]:
    """Index of the outermost span enclosing each span (itself for a root);
    parents always precede their children."""
    out: list[int] = []
    for s in spans:
        out.append(len(out) if s.parent is None else out[s.parent])
    return out


def ancestor(spans, index: int, name: str):
    """Index of the nearest enclosing span called ``name``, or None."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None
