"""In-memory spans for the traced benchmark run.

A span records a name, a start, an end and the span that was open when it
began. Counters ride on the span that did the work. Nothing is written until
the run ends; :func:`self_times` turns the spans of one pass into per-layer
self time (a span's duration minus the part covered by its direct children).
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Collects spans for one pass; ``span`` nests by call order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **counts):
        return _Span(self, name, counts)

    def count(self, **counts):
        """Add counters to the innermost open span."""
        span = self.spans[self._stack[-1]]
        for key, value in counts.items():
            span["counts"][key] = span["counts"].get(key, 0) + value


class _Span:
    __slots__ = ("tracer", "name", "counts", "index")

    def __init__(self, tracer: Tracer, name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append({
            "name": self.name,
            "parent": tracer._stack[-1] if tracer._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(self.counts),
        })
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def layer_of(name: str) -> str:
    """Layer of a span name: the text before the first dot; the root
    ``pass`` span belongs to the CLI glue."""
    return "cli" if name == "pass" else name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name, summed over the spans of one pass."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s["name"]] += (s["end"] - s["start"]) - child_time[i]
    return dict(out)


def durations(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return dict(out)


def counts(spans: list[dict]) -> dict[str, float]:
    """Counters summed per ``<span name>.<counter>``."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        for key, value in s["counts"].items():
            out[f"{s['name']}.{key}"] += value
    return dict(out)
