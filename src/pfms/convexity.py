"""Convexity machinery for picture fuzzy multisets.

A multiset is convex when, per level, the positive and neutral channels
are quasi-concave along the domain and the negative channel is
quasi-convex.  For piecewise-linear channels this reduces to a finite
statement about node sequences: a channel is quasi-concave exactly when
its node values rise to a peak and then fall (plateaus allowed), and
quasi-convex in the mirrored sense.  Only strict interior dips or bumps
deeper than TOL_CMP count as violations, so rounding noise cannot flip a
verdict.

Cuts are computed exactly by solving each linear segment against the
thresholds and intersecting the three channel regions as interval unions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .core import (
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
    multiset_from_values,
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


@dataclass(frozen=True, slots=True)
class GradeField:
    """Per-node, per-level channel values without the sum constraint.

    Convex hulls raise the positive and neutral channels and lower the
    negative one independently, which can push a node's sum past one; the
    ``valid`` flags record, per node and level, whether the triple still
    satisfies the sum bound.  Channel ranges are always respected."""

    grid: DomainGrid
    values: tuple[tuple[tuple[float, float, float], ...], ...]
    valid: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_envelopes(
        cls,
        grid: DomainGrid,
        per_level: Sequence[Sequence[Sequence[float]]],
    ) -> "GradeField":
        """Assemble a field from per-level (positive, neutral, negative)
        node sequences, flagging every triple against the sum bound."""
        levels = [list(zip(pos, neu, neg)) for pos, neu, neg in per_level]
        flags = [[sum(t) <= 1.0 + TOL_SUM for t in triples] for triples in levels]
        # zip(*...) turns level-major lists into node-major tuples
        return cls(grid=grid, values=tuple(zip(*levels)), valid=tuple(zip(*flags)))

    @property
    def depth(self) -> int:
        return len(self.values[0])

    @property
    def fully_valid(self) -> bool:
        return all(all(flags) for flags in self.valid)

    def channel_nodes(self, channel: str, level: int) -> tuple[float, ...]:
        idx = CHANNELS.index(channel)
        return tuple(per_point[level - 1][idx] for per_point in self.values)

    def channel_at(self, channel: str, level: int, x: float) -> float:
        """Linear interpolation of one hull channel, exact at nodes."""
        nodes = self.channel_nodes(channel, level)
        i, t = self.grid.locate(x)
        if t is None:
            return nodes[i]
        return (1.0 - t) * nodes[i] + t * nodes[i + 1]

    def to_multiset(self) -> PictureFuzzyMultiset:
        """Reinterpret as a multiset; raises SumExceedsOne when any node
        and level is flagged invalid."""
        for i, flags in enumerate(self.valid):
            for k, ok in enumerate(flags):
                if not ok:
                    raise SumExceedsOne(
                        f"hull triple at node {i}, level {k + 1} exceeds the sum bound"
                    )
        return multiset_from_values(self.grid.points, self.values)


# ---------------------------------------------------------------------------
# node-sequence shape tests


def is_unimodal(values: Sequence[float], tol: float = TOL_CMP) -> bool:
    """True when the sequence rises to a peak and then falls, up to ``tol``.

    Equivalent to: no interior value sits more than ``tol`` below both
    some value to its left and some value to its right."""
    return _worst_dip(values, tol) is None


def is_antiunimodal(values: Sequence[float], tol: float = TOL_CMP) -> bool:
    """True when the sequence falls to a valley and then rises, up to ``tol``."""
    return _worst_dip([-v for v in values], tol) is None


def _worst_dip(
    values: Sequence[float], tol: float
) -> tuple[float, int, int, int, float] | None:
    """Deepest interior dip below the surrounding prefix maxima.

    Returns (deficit, left, mid, right, reference) where ``mid`` is the
    dipping node, ``left``/``right`` are the nearest flanking nodes whose
    values reach ``reference``, and deficit = reference - values[mid] is
    maximal and exceeds ``tol``.  Returns None when no such dip exists."""
    n = len(values)
    if n < 3:
        return None
    left_max = [values[0]] * n
    for i in range(1, n):
        left_max[i] = max(left_max[i - 1], values[i])
    right_max = [values[-1]] * n
    for i in range(n - 2, -1, -1):
        right_max[i] = max(right_max[i + 1], values[i])
    best: tuple[float, int] | None = None
    for i in range(1, n - 1):
        ref = min(left_max[i - 1], right_max[i + 1])
        deficit = ref - values[i]
        if deficit > tol and (best is None or deficit > best[0]):
            best = (deficit, i)
    if best is None:
        return None
    deficit, mid = best
    ref = min(left_max[mid - 1], right_max[mid + 1])
    left = mid - 1
    while values[left] < ref:
        left -= 1
    right = mid + 1
    while values[right] < ref:
        right += 1
    return deficit, left, mid, right, ref


# ---------------------------------------------------------------------------
# exact and sampled convexity checks


def _node_witness(
    ms: PictureFuzzyMultiset,
    channel: str,
    level: int,
    left: int,
    mid: int,
    right: int,
    upper: bool,
) -> Witness:
    xs = ms.grid.points
    nodes = ms.channel_nodes(channel, level)
    x, y = xs[left], xs[right]
    lam = (xs[mid] - x) / (y - x)
    rhs = max(nodes[left], nodes[right]) if upper else min(nodes[left], nodes[right])
    return Witness(
        x=x, y=y, lam=lam, level=level, channel=channel, lhs=nodes[mid], rhs=rhs
    )


def is_convex_exact(ms: PictureFuzzyMultiset) -> ConvexityReport:
    """Decide convexity from the node sequences alone.

    Piecewise-linear channels are quasi-concave exactly when their node
    values are unimodal, and quasi-convex exactly when anti-unimodal, so
    this finite test decides the full segment definition.  The witness, if
    any, is the deepest offending node with its nearest adequate flanks."""
    level_flags: list[bool] = []
    witness: Witness | None = None
    for level in range(1, ms.depth + 1):
        level_ok = True
        for channel in ("positive", "neutral"):
            dip = _worst_dip(ms.channel_nodes(channel, level), TOL_CMP)
            if dip is not None:
                level_ok = False
                if witness is None:
                    _, left, mid, right, _ = dip
                    witness = _node_witness(
                        ms, channel, level, left, mid, right, upper=False
                    )
        neg = [-v for v in ms.channel_nodes("negative", level)]
        bump = _worst_dip(neg, TOL_CMP)
        if bump is not None:
            level_ok = False
            if witness is None:
                _, left, mid, right, _ = bump
                witness = _node_witness(
                    ms, "negative", level, left, mid, right, upper=True
                )
        level_flags.append(level_ok)
    convex = all(level_flags)
    return ConvexityReport(convex=convex, levels=tuple(level_flags), witness=witness)


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
    if pair_samples < 0 or lambda_samples < 1:
        raise PfmsError("sample counts must be nonnegative")
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


def _upper_region(
    xs: Sequence[float], vs: Sequence[float], threshold: float
) -> list[tuple[float, float]]:
    """Exact {x : channel(x) >= threshold} for one piecewise-linear channel."""
    if len(xs) == 1:
        return [(xs[0], xs[0])] if vs[0] >= threshold else []
    pieces: list[tuple[float, float]] = []
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        v0, v1 = vs[i], vs[i + 1]
        in0, in1 = v0 >= threshold, v1 >= threshold
        if in0 and in1:
            pieces.append((x0, x1))
            continue
        if in0 or in1:
            # The true crossing lies inside the segment; clamp away any
            # floating-point overshoot past the endpoints.
            xc = x0 + (threshold - v0) / (v1 - v0) * (x1 - x0)
            xc = min(max(xc, x0), x1)
            pieces.append((x0, xc) if in0 else (xc, x1))
        # a linear segment below the threshold at both ends stays below
    return pieces


def _lower_region(
    xs: Sequence[float], vs: Sequence[float], threshold: float
) -> list[tuple[float, float]]:
    return _upper_region(xs, [-v for v in vs], -threshold)


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
    xs = ms.grid.points
    region = CutRegion(
        tuple(_upper_region(xs, ms.channel_nodes("positive", level), thresholds.r))
    )
    region = region.intersect(
        CutRegion(
            tuple(_upper_region(xs, ms.channel_nodes("neutral", level), thresholds.s))
        )
    )
    region = region.intersect(
        CutRegion(
            tuple(_lower_region(xs, ms.channel_nodes("negative", level), thresholds.t))
        )
    )
    return region


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


def unimodal_majorant(values: Sequence[float]) -> tuple[float, ...]:
    """Least unimodal sequence dominating ``values`` pointwise.

    At each index, any unimodal majorant must reach the running maximum
    from whichever side its peak lies on, so the pointwise least one is
    the smaller of the two running maxima."""
    n = len(values)
    left = list(values)
    for i in range(1, n):
        if left[i - 1] > left[i]:
            left[i] = left[i - 1]
    right = list(values)
    for i in range(n - 2, -1, -1):
        if right[i + 1] > right[i]:
            right[i] = right[i + 1]
    return tuple(min(a, b) for a, b in zip(left, right))


def antiunimodal_minorant(values: Sequence[float]) -> tuple[float, ...]:
    """Greatest anti-unimodal sequence dominated by ``values`` pointwise."""
    return tuple(-v for v in unimodal_majorant([-v for v in values]))


def convex_hull(ms: PictureFuzzyMultiset) -> GradeField:
    """Channel-wise convex hull as a grade field.

    Per level, the positive and neutral channels are replaced by their
    least unimodal majorants and the negative channel by its greatest
    anti-unimodal minorant.  The three envelopes are computed
    independently, so a node's sum bound can break; such nodes are
    flagged invalid rather than repaired."""
    return GradeField.from_envelopes(
        ms.grid,
        [
            (
                unimodal_majorant(ms.channel_nodes("positive", level)),
                unimodal_majorant(ms.channel_nodes("neutral", level)),
                antiunimodal_minorant(ms.channel_nodes("negative", level)),
            )
            for level in range(1, ms.depth + 1)
        ],
    )


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
