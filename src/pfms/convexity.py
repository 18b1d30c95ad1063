"""Convexity machinery for picture fuzzy multisets.

A multiset is convex when, per level, the positive and neutral channels
are quasi-concave along the domain and the negative channel is
quasi-convex.  For piecewise-linear channels this reduces to a finite
statement about node sequences: a channel is quasi-concave exactly when
its node values rise to a peak and then fall (plateaus allowed), and
quasi-convex in the mirrored sense.  Only strict interior dips or bumps
deeper than TOL_CMP count as violations, so rounding noise cannot flip a
verdict.

The exact check and the hull envelopes take running maxima of the value
array from both ends; cuts solve all segment crossings at once and
intersect the three channel regions as interval unions.  Multiplying by
CHANNEL_SIGNS makes the negative channel quasi-concave like the others.
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
    SumExceedsOne,
    channel_index,
)
from .algebra import WeightVector


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
    ``values`` is a (points, levels, 3) array like a multiset's; the
    (points, levels) bool array ``mask`` (as tuples: ``valid``) records
    whether each triple still satisfies the sum bound.  Channel ranges are
    always respected."""

    grid: DomainGrid
    values: np.ndarray
    mask: np.ndarray

    @classmethod
    def from_envelopes(cls, grid: DomainGrid, values: np.ndarray) -> "GradeField":
        """Field of an envelope array, each triple flagged against the sum bound."""
        values = np.array(values, dtype=np.float64)
        mask = (values[..., 0] + values[..., 1]) + values[..., 2] <= 1.0 + TOL_SUM
        values.flags.writeable = False
        mask.flags.writeable = False
        return cls(grid=grid, values=values, mask=mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradeField):
            return NotImplemented
        same = self.grid == other.grid and np.array_equal(self.values, other.values)
        return same and np.array_equal(self.mask, other.mask)

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
        return tuple(self.values[:, level - 1, channel_index(channel)].tolist())

    def channel_at(self, channel: str, level: int, x: float) -> float:
        """Linear interpolation of one hull channel, exact at nodes."""
        nodes = self.values[:, level - 1, channel_index(channel)]
        i, t = self.grid.locate(x)
        if t is None:
            return float(nodes[i])
        a, b = nodes[i : i + 2].tolist()
        return (1.0 - t) * a + t * b

    def to_multiset(self) -> PictureFuzzyMultiset:
        """Reinterpret as a multiset; raises SumExceedsOne when any node
        and level is flagged invalid."""
        if not self.mask.all():
            i, k = divmod(int(self.mask.argmin()), self.depth)
            raise SumExceedsOne(
                f"hull triple at node {i}, level {k + 1} exceeds the sum bound"
            )
        return PictureFuzzyMultiset(self.grid, self.values)


# ---------------------------------------------------------------------------
# node-sequence shape tests


def is_unimodal(values: Sequence[float], tol: float = TOL_CMP) -> bool:
    """True when the sequence rises to a peak and then falls, up to ``tol``.

    Equivalent to: no interior value sits more than ``tol`` below both
    some value to its left and some value to its right."""
    return _worst_dip(np.asarray(values, dtype=np.float64), tol) is None


def is_antiunimodal(values: Sequence[float], tol: float = TOL_CMP) -> bool:
    """True when the sequence falls to a valley and then rises, up to ``tol``."""
    return _worst_dip(-np.asarray(values, dtype=np.float64), tol) is None


def _dips(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per interior index i along axis 0, the deficit ref - values[i] and
    the reference ref = min(max values[:i], max values[i + 1:])."""
    left = np.maximum.accumulate(values[:-2], axis=0)
    right = np.maximum.accumulate(values[:1:-1], axis=0)[::-1]
    ref = np.minimum(left, right)
    return ref - values[1:-1], ref


def _worst_dip(values: np.ndarray, tol: float) -> tuple[int, int, int] | None:
    """Deepest interior dip of a 1-D array deeper than ``tol``, as
    (left, mid, right): ``mid`` is the first of the deepest dipping nodes,
    ``left``/``right`` its nearest flanks reaching the reference; or None."""
    if len(values) < 3:
        return None
    deficit, ref = _dips(values)
    j = int(deficit.argmax())
    if not deficit[j] > tol:
        return None
    mid = j + 1
    left = int(np.flatnonzero(values[:mid] >= ref[j])[-1])
    right = mid + 1 + int(np.flatnonzero(values[mid + 1 :] >= ref[j])[0])
    return left, mid, right


# ---------------------------------------------------------------------------
# exact and sampled convexity checks


def _node_witness(
    ms: PictureFuzzyMultiset, k: int, c: int, left: int, mid: int, right: int
) -> Witness:
    xs, nodes = ms.grid.points, ms.values[:, k, c].tolist()
    x, y = xs[left], xs[right]
    ends = (nodes[left], nodes[right])
    rhs = max(ends) if CHANNELS[c] == "negative" else min(ends)
    return Witness(x=x, y=y, lam=(xs[mid] - x) / (y - x), level=k + 1,
                   channel=CHANNELS[c], lhs=nodes[mid], rhs=rhs)


def is_convex_exact(ms: PictureFuzzyMultiset) -> ConvexityReport:
    """Decide convexity from the node sequences alone.

    Piecewise-linear channels are quasi-concave exactly when their node
    values are unimodal, and quasi-convex exactly when anti-unimodal, so
    this finite test decides the full segment definition.  The witness, if
    any, is the deepest offending node of the first failing level and
    channel, with its nearest adequate flanks."""
    signed = ms.values * CHANNEL_SIGNS
    deficit, _ = _dips(signed)
    bad = deficit > TOL_CMP
    level_bad = bad.any(axis=(0, 2))
    witness: Witness | None = None
    if level_bad.any():
        k = int(level_bad.argmax())
        c = int(bad[:, k].any(axis=0).argmax())
        witness = _node_witness(ms, k, c, *_worst_dip(signed[:, k, c], TOL_CMP))
    levels = tuple((~level_bad).tolist())
    return ConvexityReport(convex=witness is None, levels=levels, witness=witness)


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
    TOL_CMP on re-evaluation.  With pair_samples = 0 the result is
    vacuously convex and flagged as such."""
    for name, count, least in (
        ("pair_samples", pair_samples, 0),
        ("lambda_samples", lambda_samples, 1),
    ):
        if not isinstance(count, int) or isinstance(count, bool) or count < least:
            raise PfmsError(f"{name} must be an integer >= {least}, got {count!r}")
    if pair_samples == 0:
        return ConvexityReport(
            convex=True, levels=(True,) * ms.depth, vacuous=True
        )
    rng = random.Random(seed)
    if lambda_samples == 1:
        lams = [0.5]
    else:
        lams = [i / (lambda_samples - 1) for i in range(lambda_samples)]
    lo, hi = ms.grid.lo, ms.grid.hi
    level_flags = [True] * ms.depth
    witness: Witness | None = None
    for _ in range(pair_samples):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        if y < x:
            x, y = y, x
        for level in range(1, ms.depth + 1):
            gx = ms.evaluate(x, level)
            gy = ms.evaluate(y, level)
            for lam in lams:
                z = (1.0 - lam) * x + lam * y
                gz = ms.evaluate(z, level)
                checks = (
                    ("positive", gz.positive, min(gx.positive, gy.positive), False),
                    ("neutral", gz.neutral, min(gx.neutral, gy.neutral), False),
                    ("negative", gz.negative, max(gx.negative, gy.negative), True),
                )
                for channel, lhs, rhs, upper in checks:
                    bad = lhs > rhs + TOL_CMP if upper else lhs < rhs - TOL_CMP
                    if bad:
                        level_flags[level - 1] = False
                        if witness is None:
                            witness = Witness(
                                x=x,
                                y=y,
                                lam=lam,
                                level=level,
                                channel=channel,
                                lhs=lhs,
                                rhs=rhs,
                            )
    convex = all(level_flags)
    return ConvexityReport(
        convex=convex, levels=tuple(level_flags), witness=witness
    )


# ---------------------------------------------------------------------------
# cuts


def _upper_region(xs: np.ndarray, vs: np.ndarray, threshold: float) -> CutRegion:
    """Exact {x : channel(x) >= threshold} for one piecewise-linear channel
    with node coordinates ``xs`` and node values ``vs``."""
    inside = vs >= threshold
    if len(xs) == 1:
        return CutRegion(((xs[0], xs[0]),) if inside[0] else ())
    seg = np.flatnonzero(inside[:-1] | inside[1:])  # segments that meet the region
    if not seg.size:
        return CutRegion(())
    in0, in1 = inside[seg], inside[seg + 1]
    x0, x1, v0, v1 = xs[seg], xs[seg + 1], vs[seg], vs[seg + 1]
    # Crossings are clamped into their segment (ties keep the crossing, as
    # max and min do); segments without one divide by 1, unused.
    xc = x0 + (threshold - v0) / np.where(in0 != in1, v1 - v0, 1.0) * (x1 - x0)
    xc = np.where(x0 > xc, x0, xc)
    xc = np.where(x1 < xc, x1, xc)
    starts, ends = np.where(in0, x0, xc), np.where(in1, x1, xc)
    # Pieces are sorted with nondecreasing ends; touching ones merge, and a
    # merged end is the first end equal to the last, as max would keep it.
    first = np.concatenate(([True], starts[1:] > ends[:-1]))
    last = np.concatenate((first[1:], [True]))
    merged_ends = ends[np.searchsorted(ends, ends[last])]
    return CutRegion(tuple(zip(starts[first].tolist(), merged_ends.tolist())))


def cut(
    ms: PictureFuzzyMultiset,
    thresholds: CutThresholds | Sequence[float],
    level: int,
) -> CutRegion:
    """Exact threshold cut at one level.

    The region collects the points whose positive degree reaches ``r``,
    whose neutral degree reaches ``s`` and whose negative degree stays at
    or below ``t``; it is a finite union of closed intervals with
    endpoints solved per segment."""
    if not isinstance(thresholds, CutThresholds):
        thresholds = CutThresholds(*thresholds)
    k = ms.level_index(level)
    xs = np.array(ms.grid.points)
    signed = ms.values[:, k] * CHANNEL_SIGNS
    region = _upper_region(xs, signed[:, 0], thresholds.r)
    region = region.intersect(_upper_region(xs, signed[:, 1], thresholds.s))
    return region.intersect(_upper_region(xs, signed[:, 2], -thresholds.t))


# ---------------------------------------------------------------------------
# multi-point inequality


def _grades_at(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: WeightVector | Sequence[float],
    level: int,
) -> tuple[WeightVector, list[GradeTriple]]:
    """Validated weights and the grades at ``points``, one per weight."""
    w = WeightVector.of(weights)
    if len(points) != len(w):
        raise LengthMismatch(f"{len(points)} points but {len(w)} weights")
    return w, [ms.evaluate(x, level) for x in points]


def jensen_check(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: WeightVector | Sequence[float],
    level: int,
) -> JensenReport:
    """Evaluate the weighted-point inequalities at one level.

    The grade at the weighted coordinate must reach the smallest positive
    and neutral endpoint grades and stay within the largest negative one.
    Slacks are returned per channel; all slacks >= -TOL_CMP counts as a
    pass."""
    w, grades = _grades_at(ms, points, weights, level)
    z = math.fsum(wi * xi for wi, xi in zip(w, points))
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
    """Least unimodal majorant along axis 0.

    At each index, any unimodal majorant must reach the running maximum
    from whichever side its peak lies on, so the pointwise least one is
    the smaller of the two running maxima.  On ties (0.0 against -0.0) the
    running maxima keep the current value and the minimum the left one."""
    left = np.maximum.accumulate(values, axis=0)
    right = np.maximum.accumulate(values[::-1], axis=0)[::-1]
    return np.where(right < left, right, left)


def unimodal_majorant(values: Sequence[float]) -> tuple[float, ...]:
    """Least unimodal sequence dominating ``values`` pointwise."""
    return tuple(_majorant(np.asarray(values, dtype=np.float64)).tolist())


def antiunimodal_minorant(values: Sequence[float]) -> tuple[float, ...]:
    """Greatest anti-unimodal sequence dominated by ``values`` pointwise."""
    return tuple((-_majorant(-np.asarray(values, dtype=np.float64))).tolist())


def convex_hull(ms: PictureFuzzyMultiset) -> GradeField:
    """Channel-wise convex hull as a grade field.

    Per level, the positive and neutral channels are replaced by their
    least unimodal majorants and the negative channel by its greatest
    anti-unimodal minorant.  The three envelopes are computed
    independently, so a node's sum bound can break; such nodes are
    flagged invalid rather than repaired."""
    signed = ms.values * CHANNEL_SIGNS
    return GradeField.from_envelopes(ms.grid, _majorant(signed) * CHANNEL_SIGNS)


def hull_membership_test(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: WeightVector | Sequence[float],
    level: int,
) -> GradeTriple:
    """Grade-side convex combination of the values at several points.

    Returns the weighted channel-wise blend of the evaluated grades; the
    caller compares it against the hull field at the weighted coordinate.
    """
    w, grades = _grades_at(ms, points, weights, level)
    return GradeTriple(
        math.fsum(wi * g.positive for wi, g in zip(w, grades)),
        math.fsum(wi * g.neutral for wi, g in zip(w, grades)),
        math.fsum(wi * g.negative for wi, g in zip(w, grades)),
    )
