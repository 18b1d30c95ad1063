"""Host speed on a fixed reference routine, used to rescale timings.

The shared hosts this benchmark runs on change speed in phases that last
seconds to tens of seconds: the same pure-Python request took up to 1.5x
longer in a slow phase, which left run-to-run spreads of 30-60% on every
timing.  A fixed routine that allocates small slotted objects, reads their
attributes and round-trips JSON (the kind of work pfms does) slows down in
the same phases.  Timing it every PERIOD seconds and rescaling each
measured wall time by

    REFERENCE_S / (median of the last three reference timings)

turns a wall time into seconds on a host where the routine takes
REFERENCE_S.  Measured over 100 s on a 2-core host, per-10-s medians of a
request mix varied by 51% raw and by 9% rescaled.

That routine does not track how fast the host starts processes: rescaled
by it, per-10-s medians of a cold ``pfms`` command varied by 17% against
11% raw.  Cold processes are rescaled by the start-up time of a bare
interpreter instead, which brought the same figure to 6%.

The references are part of the benchmark and never call pfms, so a change
to pfms moves the rescaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from dataclasses import dataclass

REFERENCE_S = 0.0045  # the routine's median time on the baseline host
PERIOD = 0.25


@dataclass(frozen=True, slots=True)
class _Point:
    x: float
    y: float


def reference() -> float:
    """A fixed amount of allocation, attribute access and JSON work."""
    points = [_Point(i * 0.5, i * 0.25) for i in range(4000)]
    best = 0.0
    for p in points:
        if p.x - p.y > best:
            best = p.x - p.y
    json.loads(json.dumps([p.x for p in points[:1000]]))
    return best


class SpeedClock:
    """Keeps a current rescaling factor, refreshed at most every PERIOD.

    ``reference`` is timed to measure the host's speed and ``nominal`` is
    its time on the baseline host; they default to the routine above."""

    def __init__(self, reference=reference, nominal: float = REFERENCE_S) -> None:
        self.reference = reference
        self.nominal = nominal
        self.samples: deque[float] = deque(maxlen=3)
        self.history: list[float] = []  # every reference timing, in seconds
        self.last = float("-inf")

    def factor(self) -> float:
        """The current factor, timing the reference first when the last
        timing is older than PERIOD."""
        if time.perf_counter() - self.last >= PERIOD:
            start = time.perf_counter()
            self.reference()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
            self.history.append(self.last - start)
        return self.current()

    def current(self) -> float:
        return self.nominal / statistics.median(self.samples) if self.samples else 1.0

    def median_factor(self) -> float:
        return self.nominal / statistics.median(self.history) if self.history else 1.0

    def time(self, fn):
        """Run ``fn``; return (result, rescaled seconds, wall seconds)."""
        before = self.factor()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall * (before + self.factor()) / 2, wall
