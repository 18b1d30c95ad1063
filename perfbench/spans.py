"""In-memory spans around the benchmark's calls into pfms.

A span records name, start, end, parent span and request id.  Spans stay
in memory until the run ends and are then written out as one JSON file.
Spans are opened only from the benchmark's own files, around each call
into a pfms module, so a layer's self time here is the time of the calls
the benchmark makes into it; work that one pfms module does inside
another (say ``lab`` calling ``convexity``) stays with the outer call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans and per-function counters for one pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.work: dict[str, float] = defaultdict(float)
        self.failed: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str, request: str, scale: float, work: float = 0.0):
        """``scale`` is the host-speed factor for this span (speed.py)."""
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "scale": scale,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.work[name] += work

    def fail(self, name: str) -> None:
        self.failed[name] += 1

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    @staticmethod
    def duration(span: dict) -> float:
        """Rescaled duration of a span (see speed.py)."""
        return (span["end"] - span["start"]) * span["scale"]

    def busy(self, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time minus the time its child spans
        cover, summed over the spans whose name starts with the layer."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += self.duration(s)
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            layer = s["name"].split(".", 1)[0]
            out[layer] += self.duration(s) - child_time[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "work": dict(self.work),
                    "failed": dict(self.failed),
                },
                handle,
            )


class NoTracer:
    """Stand-in used by the untraced pass; records nothing."""

    @contextmanager
    def span(self, name: str, request: str, scale: float, work: float = 0.0):
        yield None

    def fail(self, name: str) -> None:
        pass
