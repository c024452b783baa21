"""Harness-side spans: recorded around calls into the program's public
surfaces, kept in memory, written out when the run ends.

A span is ``{id, name, start, end, parent, workload, rep}``; times are
wall-clock seconds, so spans recorded in a child process line up with
the parent's.  A layer's *self time* is its spans' duration minus the
part of that interval their child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs a test."""

    def __init__(self, workload: str, rep: str, enabled: bool = True):
        self.enabled = enabled
        self.workload = workload
        self.rep = rep
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; nests under the thread's open span by default."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        span_id = f"{self.rep}:{next(self._ids)}"
        record = {
            "id": span_id, "name": name, "start": time.time(), "end": None,
            "parent": parent, "workload": self.workload, "rep": self.rep,
        }
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            record["end"] = time.time()
            self.spans.append(record)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        own = (span["end"] - span["start"]) - covered
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def self_shares(spans: list[dict], root_name: str) -> dict[str, float]:
    """Each span name's self time as a share of the *root_name* spans'
    total duration, over the spans at or below them."""
    by_id = {span["id"]: span for span in spans}

    def under_root(span) -> bool:
        while span is not None:
            if span["name"] == root_name:
                return True
            span = by_id.get(span["parent"])
        return False

    inside = [span for span in spans if under_root(span)]
    total = sum(s["end"] - s["start"] for s in inside if s["name"] == root_name)
    if not total:
        return {}
    return {name: own / total for name, own in sorted(self_times(inside).items())}
