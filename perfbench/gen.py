"""Seeded instance generator for the benchmark.

The benchmark builds its own inputs with numpy instead of calling
``pfms.lab.gen_pfms``: that generator caps ``grid_size`` at 64, and its
code is part of what the benchmark measures.  Instances are plain arrays:
a strictly increasing grid of shape (m,) and values of shape
(m, depth, 3) holding (positive, neutral, negative) per node and level.

Convex instances are convex by construction: each positive and neutral
channel is a sorted-up then sorted-down (unimodal) sequence, each negative
channel the mirror image (anti-unimodal).  The positive channel is one
unimodal profile scaled by nonincreasing per-level factors, so it is
nonincreasing across levels exactly, and the channel caps sum to one, so
every triple sums to at most one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

POSITIVE_CAP = 0.45
NEUTRAL_CAP = 0.3
NEGATIVE_CAP = 0.25
DIP_FACTOR = 0.5  # a planted dip halves the channel over its window
DIP_FLOOR = 0.1   # dips are planted only where the channel is at least this


@dataclass(frozen=True)
class Instance:
    """Generator output and the verdict it was built with."""

    grid: np.ndarray    # (m,) float64, strictly increasing
    values: np.ndarray  # (m, depth, 3) float64
    convex: bool

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def depth(self) -> int:
        return self.values.shape[1]

    @property
    def triples(self) -> int:
        return self.size * self.depth


def make_grid(rng: np.random.Generator, m: int) -> np.ndarray:
    """Strictly increasing coordinates with gaps in [0.5, 1.5)."""
    return np.cumsum(rng.uniform(0.5, 1.5, size=m)) - 1.0


def _unimodal(rng: np.random.Generator, m: int) -> np.ndarray:
    """Values in [0, 1) that rise to a peak and then fall."""
    peak = int(rng.integers(m // 4, 3 * m // 4 + 1))
    up = np.sort(rng.random(peak))
    down = np.sort(rng.random(m - peak))[::-1]
    return np.concatenate([up, down])


def convex_values(rng: np.random.Generator, m: int, depth: int) -> np.ndarray:
    scales = np.sort(rng.uniform(0.5, 1.0, size=depth))[::-1]
    positive = _unimodal(rng, m)
    values = np.empty((m, depth, 3))
    for k in range(depth):
        values[:, k, 0] = (POSITIVE_CAP * scales[k]) * positive
        values[:, k, 1] = NEUTRAL_CAP * _unimodal(rng, m)
        values[:, k, 2] = NEGATIVE_CAP * (1.0 - _unimodal(rng, m))
    return values


def worst_dip(column: np.ndarray) -> float:
    """Largest amount by which an interior node sits below both the
    maximum to its left and the maximum to its right (0 when unimodal)."""
    if column.size < 3:
        return 0.0
    left = np.maximum.accumulate(column)[:-2]
    right = np.maximum.accumulate(column[::-1])[::-1][2:]
    return float(max(0.0, np.max(np.minimum(left, right) - column[1:-1])))


def plant_dip(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Halve one channel over a short window of interior nodes.

    The dip goes into the neutral channel at a seeded level, or into the
    positive channel at the last level, so the positive channel stays
    nonincreasing across levels and every sum only shrinks.  The window
    and both of its flanking nodes lie where the channel is at least
    DIP_FLOOR, and the dip is kept only when it is measured to be far
    deeper than any comparison tolerance."""
    m, depth, _ = values.shape
    while True:
        if rng.random() < 0.5:
            level, channel = int(rng.integers(depth)), 1
        else:
            level, channel = depth - 1, 0
        column = values[:, level, channel]
        high = np.flatnonzero(column >= DIP_FLOOR)
        if high.size < 3:
            continue
        first, last = int(high[0]), int(high[-1])  # unimodal: one interval
        start = int(rng.integers(first + 1, last))
        stop = min(start + int(rng.integers(1, max(2, m // 200))), last)
        out = values.copy()
        out[start:stop, level, channel] *= DIP_FACTOR
        if worst_dip(out[:, level, channel]) > DIP_FLOOR * DIP_FACTOR / 2:
            return out


def instance(
    rng: np.random.Generator,
    grid: np.ndarray,
    depth: int,
    convex: bool = True,
) -> Instance:
    values = convex_values(rng, grid.size, depth)
    if not convex:
        values = plant_dip(rng, values)
    return Instance(grid=grid, values=values, convex=convex)


def document_text(inst: Instance) -> str:
    """Instance file text written with the stdlib, not with pfms."""
    return json.dumps(
        {
            "format_version": "1",
            "domain": inst.grid.tolist(),
            "depth": inst.depth,
            "elements": inst.values.tolist(),
        },
        separators=(",", ":"),
    )
