"""Convexity machinery for picture fuzzy multisets.

A multiset is convex when, per level, the positive and neutral channels
are quasi-concave along the domain and the negative channel is
quasi-convex.  For piecewise-linear channels this reduces to a finite
statement about node sequences: a channel is quasi-concave exactly when
its node values rise to a peak and then fall (plateaus allowed), and
quasi-convex in the mirrored sense.  Only strict interior dips or bumps
deeper than TOL_CMP count as violations, so rounding noise cannot flip a
verdict.

The exact check and the hull share one scan (_deep_rows).  It reads one
least unimodal majorant per (level, channel) row, the smaller of the two
running maxima of the row signed by CHANNEL_SIGNS, so that every channel
is quasi-concave when convex: a node dips where the majorant exceeds it
by more than TOL_CMP, and the hull is the majorants of the rows that dip,
signed back, every other row being its own hull.  Only the rows scanned,
and the window of nodes they are scanned over, depend on size: below
_ROW_TEST_TRIPLES triples every row over every node, above it the rows
with a strict rise after a strict fall, over the one window outside which
none of them dips (_dipping_rows); a unimodal row is its own majorant,
bit for bit.  The scanned rows are gathered over the window into one
contiguous signed copy; the exact check shifts its witness by the
window's start, and the hull copies the grade array once, if some row
dips, and writes those rows' envelopes over the window.  Each row sees
the operations of a scan down the points axis in the same order, so
results are bit-identical to one, ties between 0.0 and -0.0 included.

A cut reads a level once: three node masks, one per channel, give the
runs of nodes inside all three channels and the few segments where some
channel's boundary crosses.  Each such segment is solved as [latest
channel start, earliest channel end], and kept when every channel holds
one of its ends; one CutRegion of these pieces and the runs merges the
pieces that touch.  Ties go to the earlier channel, and a node onto which
rounding clamps two channels' crossings from its two sides is a piece of
its own, so the endpoints are those of intersecting the three channels'
own regions, 0.0 against -0.0 included.

The sampled check draws its coordinate pairs from a seeded generator in
blocks of at most _BLOCK_POINTS coordinates (pair ends and blend
points).  It takes a block's draws from random.Random.random and scales
them in one array expression, lo + (hi - lo) * u, which is the float
expression of random.Random.uniform, so the ends are those of one
uniform call each.  It evaluates a block on every level in one array
pass with the float expressions of PictureFuzzyMultiset.evaluate,
negates the negative channel in place and compares all channels at
once, reducing per level only in a block with a violation, so memory
does not grow with the number of pairs.  Its report is the one a scalar
loop over pairs, levels, lambdas and channels gives, witness and errors
included.  Sample counts above _MAX_PAIR_SAMPLES or _MAX_LAMBDA_SAMPLES
raise TooLarge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHANNEL_SIGNS,
    TOL_CMP,
    TOL_SUM,
    CHANNELS,
    CutRegion,
    CutThresholds,
    DomainGrid,
    GradeTriple,
    LengthMismatch,
    PfmsError,
    PictureFuzzyMultiset,
    TooLarge,
    _items,
    _shown,
    _within_sum,
    channel_index,
    check_unit,
    level_index,
)

_MAX_PAIR_SAMPLES = 1_000_000  # largest pair_samples is_convex_sampled accepts
_MAX_LAMBDA_SAMPLES = 10_000  # largest lambda_samples it accepts
_BLOCK_POINTS = 8_192  # coordinates per pair block of the sampled check


class WeightSumInvalid(PfmsError):
    """Weights do not sum to one within tolerance."""


@dataclass(frozen=True, slots=True)
class Witness:
    """A concrete violation of the segment inequalities.

    ``lhs`` is the channel value at the blended coordinate
    (1 - lam) * x + lam * y; ``rhs`` is the smaller endpoint value for the
    positive and neutral channels and the larger one for the negative
    channel.  A genuine witness has lhs < rhs - TOL_CMP (positive or
    neutral channel) or lhs > rhs + TOL_CMP (negative channel)."""

    x: float
    y: float
    lam: float
    level: int
    channel: str
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        """JSON form as reports print it, keys in field order."""
        return {
            "x": self.x,
            "y": self.y,
            "lambda": self.lam,
            "level": self.level,
            "channel": self.channel,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True, slots=True)
class ConvexityReport:
    """Outcome of a convexity check.

    ``levels`` holds the per-level verdicts in level order.  ``witness``
    is present exactly when ``convex`` is false.  ``vacuous`` marks a
    sampled check that ran with no samples."""

    convex: bool
    levels: tuple[bool, ...]
    witness: Witness | None = None
    vacuous: bool = False


@dataclass(frozen=True, slots=True)
class JensenReport:
    """Multi-point inequality outcome at one level.

    ``point`` is the weighted coordinate, ``grades`` the value there.
    Slacks are oriented so that every nonnegative slack means the
    inequality holds: value minus smallest endpoint value for positive and
    neutral channels, largest endpoint value minus value for the negative
    channel."""

    ok: bool
    level: int
    point: float
    grades: GradeTriple
    slacks: tuple[float, float, float]


@dataclass(frozen=True, slots=True, eq=False)
class GradeField:
    """Per-node, per-level channel values without the sum constraint.

    Convex hulls raise the positive and neutral channels and lower the
    negative one independently, which can push a node's sum past one.
    ``values`` is a read-only (points, levels, 3) array like a
    multiset's; ``mask``, a (points, levels) bool array (as tuples:
    ``valid``), flags the triples that keep the sum bound, worked out from
    ``values`` when read.  Channel ranges are always respected."""

    grid: DomainGrid
    values: np.ndarray

    @classmethod
    def from_envelopes(cls, grid: DomainGrid, values: np.ndarray) -> "GradeField":
        """Field of a read-only copy of an envelope array."""
        values = np.array(values, dtype=np.float64, order="C")
        values.setflags(write=False)
        return cls(grid, values)

    def __reduce__(self):
        # pickle and deepcopy rebuild from the envelopes: values stays read-only
        return GradeField.from_envelopes, (self.grid, self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradeField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    @property
    def mask(self) -> np.ndarray:
        mask = _within_sum(self.values)
        mask.setflags(write=False)
        return mask

    @property
    def valid(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(map(tuple, self.mask.tolist()))

    @property
    def depth(self) -> int:
        return self.values.shape[1]

    @property
    def fully_valid(self) -> bool:
        return bool(self.mask.all())

    def channel_nodes(self, channel: str, level: int) -> tuple[float, ...]:
        k = level_index(level, self.depth)
        return tuple(self.values[:, k, channel_index(channel)].tolist())

    def channel_at(self, channel: str, level: int, x: float) -> float:
        """Linear interpolation of one hull channel, exact at nodes."""
        nodes = self.values[:, level_index(level, self.depth), channel_index(channel)]
        i, t = self.grid.locate(x)
        if t is None:
            return float(nodes[i])
        a, b = nodes[i : i + 2].tolist()
        return (1.0 - t) * a + t * b


# ---------------------------------------------------------------------------
# dips below the majorant


def _worst_dip(
    values: np.ndarray, tol: float, env: np.ndarray
) -> tuple[int, int, int] | None:
    """Deepest dip of a 1-D array deeper than ``tol`` below its least
    unimodal majorant ``env`` (_majorant(values)), as (left, mid, right):
    ``mid`` is the first of the deepest dipping nodes, ``left``/``right``
    its nearest flanks reaching the majorant there; or None.  A dipping
    node has such a flank on each side, as the majorant is the smaller of
    the running maxima from both ends."""
    deficit = env - values
    mid = int(deficit.argmax())
    if not deficit[mid] > tol:
        return None
    top = env[mid]
    left = mid - 1 - int((values[mid - 1 :: -1] >= top).argmax())
    right = mid + 1 + int((values[mid + 1 :] >= top).argmax())
    return left, mid, right


# ---------------------------------------------------------------------------
# exact and sampled convexity checks


# Instances of at least this many triples (points times levels) test
# every (level, channel) row for a dip (_dipping_rows) before any running
# maximum is taken; smaller ones scan every row over every node, as the
# test's fixed cost of about 20 us would outweigh the scans it saves.  Not
# a setting: it rests on the crossover table in CHANGES.md, where from 768
# triples the test is as fast or faster at depths 1-8 except for a depth-2
# hull with a dipping row, and keeps every lab instance (at most 64
# triples) on the full scan.
_ROW_TEST_TRIPLES = 768


def _dipping_rows(values: np.ndarray) -> tuple[np.ndarray, slice]:
    """Rows, as flat indices 3 * level + channel, of an (points, levels, 3)
    grade array whose signed node sequence has a strict rise after a
    strict fall: the rows that are not unimodal; and the window of nodes
    that holds every dip of those rows.

    A unimodal row, plateaus included, has no dip, as every node is at
    least all nodes on one of its sides.  For the same reason it is its
    own least unimodal majorant bit for bit, 0.0 against -0.0 included:
    the running maximum from the side of the peak keeps the current value
    on ties, so it is the row itself, and the one from the other side is
    no smaller, so the pick of the smaller keeps the row.  The comparisons
    run in the stored layout, where they are contiguous, and find each
    row's first fall and last rise with argmax.

    The window runs from the earliest first fall to the latest last rise
    among the returned rows, plus one node.  Before it every returned row
    is nondecreasing and after it nonincreasing, so by the argument above
    a running maximum seeded at a window edge holds the bits a scan of
    the whole row has there, and no node outside the window dips: scans
    of the window alone give the whole rows' envelopes inside it, and
    outside it each row is its own envelope."""
    if len(values) < 3:  # a dip needs a node between two others
        return np.empty(0, dtype=np.intp), slice(0, 0)
    lo, hi = values[:-1], values[1:]
    fall, rise = hi < lo, hi > lo
    # the negative channel is signed by negation: its rises are falls
    np.greater(hi[..., 2], lo[..., 2], out=fall[..., 2])
    np.less(hi[..., 2], lo[..., 2], out=rise[..., 2])
    fall, rise = fall.reshape(len(lo), -1), rise.reshape(len(lo), -1)
    first_fall = fall.argmax(axis=0)
    last_rise = len(lo) - 1 - rise[::-1].argmax(axis=0)
    j = np.arange(fall.shape[1])
    dips = fall[first_fall, j] & rise[last_rise, j] & (first_fall < last_rise)
    rows = np.flatnonzero(dips)
    if not rows.size:
        return rows, slice(0, 0)
    # segment i joins nodes i and i + 1
    return rows, slice(int(first_fall[rows].min()), int(last_rise[rows].max()) + 2)


def _deep_rows(values: np.ndarray):
    """The scan the exact check and the hull share, of an (points, levels,
    3) grade array: None when no row dips, else (rows, win, signs, signed,
    env, deep).  ``rows`` are flat indices 3 * level + channel and ``win``
    the window of nodes scanned: every row over every node below
    _ROW_TEST_TRIPLES triples, else the rows and window of _dipping_rows.
    ``signed`` is one contiguous copy of those rows over the window, each
    times its CHANNEL_SIGNS sign in the column ``signs`` so that it reads
    "larger is better"; ``env`` holds their least unimodal majorants, and
    ``deep`` flags the rows with a node more than TOL_CMP below theirs."""
    points, depth = values.shape[:2]
    if points * depth < _ROW_TEST_TRIPLES:
        rows, win = np.arange(3 * depth), slice(0, points)
    else:
        rows, win = _dipping_rows(values)
        if not rows.size:  # rows without a rise after a fall have no dip
            return None
    signs = CHANNEL_SIGNS[:, None].take(rows, axis=0, mode="wrap")
    signed = np.multiply(values.reshape(points, -1)[win].take(rows, axis=1).T, signs, order="C")
    env = _majorant(signed)
    deficit = env - signed
    if not deficit.max() > TOL_CMP:
        return None
    return rows, win, signs, signed, env, (deficit > TOL_CMP).any(axis=-1)


def _node_witness(
    ms: PictureFuzzyMultiset, k: int, c: int, left: int, mid: int, right: int
) -> Witness:
    xs, nodes = ms.grid.points, ms.values[:, k, c]
    x, y = xs[left], xs[right]
    ends = (nodes.item(left), nodes.item(right))
    rhs = max(ends) if CHANNELS[c] == "negative" else min(ends)
    return Witness(x=x, y=y, lam=(xs[mid] - x) / (y - x), level=k + 1,
                   channel=CHANNELS[c], lhs=nodes.item(mid), rhs=rhs)


def is_convex_exact(ms: PictureFuzzyMultiset) -> ConvexityReport:
    """Decide convexity from the node sequences alone.

    Piecewise-linear channels are quasi-concave exactly when their node
    values are unimodal, and quasi-convex exactly when anti-unimodal, so
    this finite test decides the full segment definition.  The witness, if
    any, is the deepest offending node of the first failing level and
    channel, with its nearest adequate flanks.

    Only the rows and the window of _deep_rows are scanned, and the
    witness's node indices are shifted by the window's start: the flanks
    are found inside the window, as a running maximum reaches its value at
    a node it has scanned.  With no row to scan the instance is convex at
    once."""
    scan = _deep_rows(ms.values)
    if scan is None:
        return ConvexityReport(convex=True, levels=(True,) * ms.depth)
    rows, win, _, signed, env, deep = scan
    bad = deep.nonzero()[0]
    failed = rows[bad].tolist()  # in level, then channel order
    failed_levels = {r // 3 for r in failed}
    levels = tuple([k not in failed_levels for k in range(ms.depth)])
    k, c = divmod(failed[0], 3)
    dip = _worst_dip(signed[bad[0]], TOL_CMP, env[bad[0]])
    witness = _node_witness(ms, k, c, *(j + win.start for j in dip))
    return ConvexityReport(convex=False, levels=levels, witness=witness)


def is_convex_sampled(
    ms: PictureFuzzyMultiset,
    pair_samples: int = 200,
    lambda_samples: int = 21,
    seed: int = 0,
) -> ConvexityReport:
    """Randomised check of the segment inequalities.

    Draws coordinate pairs uniformly from the domain and sweeps a uniform
    lambda grid (which contains 0.5 whenever lambda_samples is odd and at
    least 3).  Any witness found violates the exact definition beyond
    TOL_CMP on re-evaluation: it is the first violation by pair, then
    level, lambda and channel.  With pair_samples = 0 the result is
    vacuously convex and flagged as such."""
    for name, count, least, most in (
        ("pair_samples", pair_samples, 0, _MAX_PAIR_SAMPLES),
        ("lambda_samples", lambda_samples, 1, _MAX_LAMBDA_SAMPLES),
    ):
        if not isinstance(count, int) or isinstance(count, bool) or count < least:
            raise PfmsError(
                f"{name} must be an integer >= {least}, got {_shown(count)}"
            )
        if count > most:
            raise TooLarge(f"{name} must be at most {most}, got {_shown(count, str)}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise PfmsError(f"seed must be an integer, got {_shown(seed)}")
    if pair_samples == 0:
        return ConvexityReport(
            convex=True, levels=(True,) * ms.depth, vacuous=True
        )
    rng = random.Random(seed)
    if lambda_samples == 1:
        lams = [0.5]
    else:
        lams = [i / (lambda_samples - 1) for i in range(lambda_samples)]
    lam = np.array(lams)
    lo, hi = ms.grid.lo, ms.grid.hi
    level_ok = np.ones(ms.depth, dtype=bool)
    witness: Witness | None = None
    block = max(1, _BLOCK_POINTS // (lambda_samples + 2))
    draw = rng.random
    for start in range(0, pair_samples, block):
        n = min(block, pair_samples - start)
        # rng.uniform(lo, hi) for each end, in its own float expression
        ends = lo + (hi - lo) * np.array([draw() for _ in range(2 * n)])
        ends = ends.reshape(n, 2)
        swap = ends[:, 1] < ends[:, 0]
        ends[swap] = ends[swap, ::-1]
        x, y = ends[:, :1], ends[:, 1:]
        # per pair the coordinates x, y, then one blend point per lambda in
        # the scalar loop's float expression; a span that overflows gives
        # non-finite ones, which evaluate rejects
        with np.errstate(invalid="ignore", over="ignore"):
            coords = np.concatenate((ends, (1.0 - lam) * x + lam * y), axis=1)
        grades, ok = ms._evaluate_many(coords)
        if not ok.all():
            # the scalar order is pair, level, then x, y and the blend points
            order = ok.transpose(0, 2, 1)
            p, k, j = np.unravel_index(order.argmin(), order.shape)
            ms.evaluate(float(coords[p, j]), int(k) + 1)  # raises its error
        signed = grades  # the negative channel negated in place
        np.negative(signed[..., 2], out=signed[..., 2])
        # min(gx, gy) on the signed channels: max for the negative one
        rhs = np.where(signed[:, 1] < signed[:, 0], signed[:, 1], signed[:, 0])
        bad = signed[:, 2:] < rhs[:, None] - TOL_CMP
        if not bad.any():
            continue
        level_ok &= ~bad.any(axis=(0, 1, 3))
        if witness is None:
            order = bad.transpose(0, 2, 1, 3)  # pair, level, lambda, channel
            p, k, j, c = np.unravel_index(order.argmax(), order.shape)
            witness = Witness(
                x=float(ends[p, 0]),
                y=float(ends[p, 1]),
                lam=lams[j],
                level=int(k) + 1,
                channel=CHANNELS[c],
                lhs=float(signed[p, j + 2, k, c] * CHANNEL_SIGNS[c]),
                rhs=float(rhs[p, k, c] * CHANNEL_SIGNS[c]),
            )
    return ConvexityReport(
        convex=witness is None, levels=tuple(level_ok.tolist()), witness=witness
    )


# ---------------------------------------------------------------------------
# cuts


def cut(
    ms: PictureFuzzyMultiset,
    thresholds: CutThresholds | Sequence[float],
    level: int,
) -> CutRegion:
    """Exact threshold cut at one level.

    The region collects the points whose positive degree reaches ``r``,
    whose neutral degree reaches ``s`` and whose negative degree stays at
    or below ``t``; it is a finite union of closed intervals with
    endpoints solved on the segments the cut's boundary crosses.
    Thresholds other than a CutThresholds must be three values (r, s, t)."""
    if not isinstance(thresholds, CutThresholds):
        values = _items(thresholds)  # a number or None counts as one value
        if len(values) != 3:
            raise LengthMismatch(f"thresholds must be three values (r, s, t), got {len(values)}")
        thresholds = CutThresholds(*values)
    k = ms.level_index(level)
    xs, grades = ms.grid.coords, ms.values[:, k]
    r, s, t = thresholds.r, thresholds.s, thresholds.t
    masks = (grades[:, 0] >= r, grades[:, 1] >= s, grades[:, 2] <= t)
    seg = np.flatnonzero((masks[0][:-1] != masks[0][1:]) | (masks[1][:-1] != masks[1][1:])
                         | (masks[2][:-1] != masks[2][1:]))
    # the crossed segments' ends, the negative channel negated (its bound is -t)
    bounds, pair = np.array((r, s, -t)), seg[:, None] + (0, 1)
    x0, x1 = xs[pair, None].transpose(1, 0, 2)
    v0, v1 = (grades[pair] * CHANNEL_SIGNS).transpose(1, 0, 2)
    in0, in1 = v0 >= bounds, v1 >= bounds
    # crossings clamped into their segments (np.maximum and np.minimum keep
    # their second operand on ties); a non-crossing's quotient is never kept
    with np.errstate(all="ignore"):
        xc = np.minimum(x1, np.maximum(x0, x0 + (bounds - v0) / (v1 - v0) * (x1 - x0)))
    # an exit at x0 of segment b > 0 is x0 (0.0 against -0.0), as b - 1 ends there
    onto_x0 = xc == x0
    onto_x0[:1] &= seg[:1, None] > 0
    start, end = np.where(in0, x0, xc), np.where(in1, x1, np.where(onto_x0, x0, xc))
    pieces, landed = [], (in0 > in1) & (xc == x1)
    if landed.any():  # exits rounded onto x1
        # Such an exit ties with the channels that hold x1, of which only
        # those ending there count: at the last node, or leaving the next
        # segment at its start; a channel that also enters the next segment
        # at x1 goes on.  A node that two channels' exit and entry are
        # rounded onto from its two sides is a piece of its own.
        entered, adjacent = (in0 < in1) & (xc == x0), (seg[1:] - seg[:-1] == 1)[:, None]
        stops = np.zeros_like(in1)
        stops[:-1] = (in0 > in1)[1:] & onto_x0[1:] & adjacent
        stops[-1] = seg[-1] + 2 == len(xs)
        through = landed[:-1] & entered[1:] & adjacent
        end[in1 & ~stops] = np.inf
        end[:-1][through] = np.inf
        start[1:][through] = -np.inf
        onto = [{*(seg[landed[:, c]] + 1).tolist(), *seg[entered[:, c]].tolist()} for c in range(3)]
        for j in sorted(set().union(*onto)):
            held_j = [bool(mask[j]) for mask in masks]
            if not all(held_j) and all(h or j in o for h, o in zip(held_j, onto)):
                pieces.append((xs.item(j), xs.item(j)))
    # the earlier channel wins ties; x0 and x1 bound a piece only where all
    # channels go past them
    lo = np.maximum(x0[:, 0], np.maximum(start[:, 2], np.maximum(start[:, 1], start[:, 0])))
    hi = np.minimum(x1[:, 0], np.minimum(end[:, 2], np.minimum(end[:, 1], end[:, 0])))
    held = (in0 | in1).all(axis=1) & (lo <= hi)
    # runs of nodes inside all three channels start and end on crossed
    # segments or at the grid's ends
    firsts, lasts = x1[in1.all(axis=1), 0].tolist(), x0[in0.all(axis=1), 0].tolist()
    firsts[:0] = xs[:1].tolist() if masks[0][0] and masks[1][0] and masks[2][0] else []
    lasts += xs[-1:].tolist() if masks[0][-1] and masks[1][-1] and masks[2][-1] else []
    # solved pieces first: the stable sort lets a solved end win a run's tie
    pieces[:0] = [*zip(lo[held].tolist(), hi[held].tolist()), *zip(firsts, lasts)]
    return CutRegion(tuple(pieces))


# ---------------------------------------------------------------------------
# multi-point inequality


def _grades_at(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: Sequence[float],
    level: int,
) -> tuple[tuple[float, ...], tuple, list[GradeTriple]]:
    """Validated weights, one scalar per point for every channel, the
    points as a tuple and the grades at them.  The weights are checked
    before the points are read, as core reads items: a number or None
    counts as one point."""
    w = tuple(check_unit(wi, "weight") for wi in weights)
    if not w:
        raise WeightSumInvalid("at least one weight is required")
    total = math.fsum(w)
    if abs(total - 1.0) > TOL_SUM:
        raise WeightSumInvalid(f"weights sum to {total!r}, expected 1")
    points = _items(points)
    if len(points) != len(w):
        raise LengthMismatch(f"{len(points)} points but {len(w)} weights")
    return w, points, [ms.evaluate(x, level) for x in points]


def jensen_check(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: Sequence[float],
    level: int,
) -> JensenReport:
    """Evaluate the weighted-point inequalities at one level.

    The grade at the weighted coordinate must reach the smallest positive
    and neutral endpoint grades and stay within the largest negative one.
    Slacks are returned per channel; all slacks >= -TOL_CMP counts as a
    pass."""
    w, points, grades = _grades_at(ms, points, weights, level)
    try:
        z = math.fsum(wi * xi for wi, xi in zip(w, points))
    except OverflowError:  # a partial sum left the float range: sum halves
        z = 2.0 * math.fsum((wi * xi) * 0.5 for wi, xi in zip(w, points))
    # a convex combination lies between its points, but weights summing
    # to 1 within TOL_SUM can carry z past them, and past the domain's end
    z = min(max(z, float(min(points))), float(max(points)))
    gz = ms.evaluate(z, level)
    pos_floor = min(g.positive for g in grades)
    neu_floor = min(g.neutral for g in grades)
    neg_ceiling = max(g.negative for g in grades)
    slacks = (
        gz.positive - pos_floor,
        gz.neutral - neu_floor,
        neg_ceiling - gz.negative,
    )
    ok = all(s >= -TOL_CMP for s in slacks)
    return JensenReport(ok=ok, level=level, point=z, grades=gz, slacks=slacks)


# ---------------------------------------------------------------------------
# hulls


def _majorant(values: np.ndarray) -> np.ndarray:
    """Least unimodal majorant along the last axis.

    At each index, any unimodal majorant must reach the running maximum
    from whichever side its peak lies on, so the pointwise least one is
    the smaller of the two running maxima.  On ties (0.0 against -0.0) the
    running maxima keep the current value, and np.minimum keeps its second
    operand, here the left maximum, in its scalar and vector loops alike."""
    left = np.maximum.accumulate(values, axis=-1)
    right = np.maximum.accumulate(values[..., ::-1], axis=-1)[..., ::-1]
    return np.minimum(right, left)


def convex_hull(ms: PictureFuzzyMultiset) -> GradeField:
    """Channel-wise convex hull as a grade field.

    Per level, the positive and neutral channels are replaced by their
    least unimodal majorants and the negative channel by its greatest
    anti-unimodal minorant.  The three envelopes are computed
    independently, so a node's sum bound can break; such nodes are
    flagged invalid rather than repaired.  As the exact check counts only
    dips deeper than TOL_CMP, a row with no node more than TOL_CMP below
    its envelope is its own hull, bit for bit.

    Of the rows of _deep_rows only those that dip are rewritten, over its
    window only, as every row is its own hull elsewhere; the grade array
    is copied once, and not at all when no row dips."""
    scan = _deep_rows(ms.values)
    if scan is None:
        return GradeField(ms.grid, ms.values)
    rows, win, signs, _, envelopes, deep = scan
    hull = np.array(ms.values)
    envelopes *= signs
    hull.reshape(ms.size, -1)[win, rows[deep]] = envelopes[deep].T
    hull.setflags(write=False)
    return GradeField(ms.grid, hull)


def hull_membership_test(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: Sequence[float],
    level: int,
) -> GradeTriple:
    """Grade-side convex combination of the values at several points.

    Returns the weighted channel-wise blend of the evaluated grades; the
    caller compares it against the hull field at the weighted coordinate.
    """
    w, _, grades = _grades_at(ms, points, weights, level)
    return GradeTriple(
        math.fsum(wi * g.positive for wi, g in zip(w, grades)),
        math.fsum(wi * g.neutral for wi, g in zip(w, grades)),
        math.fsum(wi * g.negative for wi, g in zip(w, grades)),
    )
