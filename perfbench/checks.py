"""Reference results computed with numpy and the stdlib only.

Nothing here calls pfms code.  Results of pfms calls are read through
their public attributes (``grid.points``, ``channel_nodes``,
``intervals``, report fields) and compared with references built from
the generator's arrays.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9        # the comparison tolerance pfms documents (TOL_CMP, TOL_SUM)
INTERP_TOL = 1e-12  # np.interp and pfms interpolate with different formulas
CHANNELS = ("positive", "neutral", "negative")


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


def arrays_of(ms) -> tuple[np.ndarray, np.ndarray]:
    """Grid (m,) and values (m, depth, 3) of a pfms multiset."""
    grid = np.array(ms.grid.points, dtype=np.float64)
    values = np.empty((grid.size, ms.depth, 3))
    for k in range(ms.depth):
        for c, channel in enumerate(CHANNELS):
            values[:, k, c] = ms.channel_nodes(channel, k + 1)
    return grid, values


def matches(ms, grid: np.ndarray, values: np.ndarray) -> bool:
    got_grid, got_values = arrays_of(ms)
    return same_bits(got_grid, grid) and same_bits(got_values, values)


def document_matches(doc, grid: np.ndarray, values: np.ndarray) -> bool:
    return (
        isinstance(doc, dict)
        and doc.get("format_version") == "1"
        and doc.get("depth") == values.shape[1]
        and same_bits(doc["domain"], grid)
        and same_bits(doc["elements"], values)
    )


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [np.maximum(a[..., 0], b[..., 0]), np.minimum(a[..., 1], b[..., 1]),
         np.minimum(a[..., 2], b[..., 2])],
        axis=-1,
    )


def intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [np.minimum(a[..., 0], b[..., 0]), np.minimum(a[..., 1], b[..., 1]),
         np.maximum(a[..., 2], b[..., 2])],
        axis=-1,
    )


def complement(a: np.ndarray) -> np.ndarray:
    """Swap positive and negative, then order each node's levels by
    positive descending, neutral descending, negative ascending (stable)."""
    swapped = a[..., ::-1]
    order = np.lexsort((swapped[..., 2], -swapped[..., 1], -swapped[..., 0]), axis=-1)
    return np.take_along_axis(swapped, order[..., None], axis=1)


def blend(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    return lam * a + (1.0 - lam) * b


def _majorant(v: np.ndarray) -> np.ndarray:
    """Least unimodal majorant along axis 0."""
    return np.minimum(
        np.maximum.accumulate(v, axis=0),
        np.maximum.accumulate(v[::-1], axis=0)[::-1],
    )


def hull(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel-wise hull envelopes and the per-node, per-level sum flags."""
    env = np.stack(
        [_majorant(values[..., 0]), _majorant(values[..., 1]),
         -_majorant(-values[..., 2])],
        axis=-1,
    )
    valid = (env[..., 0] + env[..., 1]) + env[..., 2] <= 1.0 + TOL
    return env, valid


def hull_matches(field, values: np.ndarray) -> bool:
    env, valid = hull(values)
    got_values = np.asarray(field.values, dtype=np.float64)
    got_valid = np.asarray(field.valid, dtype=bool)
    return same_bits(got_values, env) and bool(np.array_equal(got_valid, valid))


def cut_matches(intervals, grid: np.ndarray, values: np.ndarray,
                level: int, r: float, s: float, t: float) -> bool:
    """The region holds exactly the grid nodes that pass the thresholds."""
    v = values[:, level - 1]
    passing = (v[:, 0] >= r) & (v[:, 1] >= s) & (v[:, 2] <= t)
    if not intervals:
        return not passing.any()
    bounds = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    i = np.searchsorted(bounds[:, 0], grid, side="right") - 1
    inside = (i >= 0) & (grid <= bounds[np.clip(i, 0, None), 1])
    return bool(np.array_equal(inside, passing))


def interp(grid: np.ndarray, values: np.ndarray, x, level: int) -> np.ndarray:
    """Channel values at coordinates ``x`` on a 1-based level, shape (n, 3)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    v = values[:, level - 1]
    return np.stack([np.interp(x, grid, v[:, c]) for c in range(3)], axis=-1)


def witness_holds(witness, grid: np.ndarray, values: np.ndarray) -> bool:
    """Re-check a sampled convexity witness with np.interp."""
    z = (1.0 - witness.lam) * witness.x + witness.lam * witness.y
    fx, fy, fz = interp(grid, values, [witness.x, witness.y, z], witness.level)
    c = CHANNELS.index(witness.channel)
    if c == 2:
        return fz[c] > max(fx[c], fy[c]) + TOL
    return fz[c] < min(fx[c], fy[c]) - TOL


def jensen_matches(report, grid: np.ndarray, values: np.ndarray, convex: bool,
                   points: list[float], weights: list[float], level: int) -> bool:
    z = math.fsum(w * x for w, x in zip(weights, points))
    at_points = interp(grid, values, points, level)
    fz = interp(grid, values, z, level)[0]
    slacks = (
        fz[0] - at_points[:, 0].min(),
        fz[1] - at_points[:, 1].min(),
        at_points[:, 2].max() - fz[2],
    )
    if report.point != z:
        return False
    if any(abs(a - b) > INTERP_TOL for a, b in zip(report.slacks, slacks)):
        return False
    if convex and not report.ok:
        return False
    if all(abs(s + TOL) > INTERP_TOL for s in slacks):
        return report.ok == all(s >= -TOL for s in slacks)
    return True  # a slack sits on the tolerance edge; either verdict is right


def evaluate_matches(triples, grid: np.ndarray, values: np.ndarray,
                     xs: list[float], level: int) -> bool:
    got = np.array([(t.positive, t.neutral, t.negative) for t in triples])
    return bool(np.all(np.abs(got - interp(grid, values, xs, level)) <= INTERP_TOL))
