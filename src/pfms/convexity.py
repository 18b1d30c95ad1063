"""Convexity machinery for picture fuzzy multisets.

A multiset is convex when, per level, the positive and neutral channels
are quasi-concave along the domain and the negative channel is
quasi-convex.  For piecewise-linear channels this reduces to a finite
statement about node sequences: a channel is quasi-concave exactly when
its node values rise to a peak and then fall (plateaus allowed), and
quasi-convex in the mirrored sense.  Only strict interior dips or bumps
deeper than TOL_CMP count as violations, so rounding noise cannot flip a
verdict.

The exact check and the hull envelopes scan a channel-major copy of the
grade array, shape (levels, 3, points), made in one numpy call with the
negative channel multiplied by its CHANNEL_SIGNS entry, so that every
channel is quasi-concave when convex and every (level, channel) column
is one contiguous row.  Both take running maxima along the rows from
either end, and the exact check reduces its dip flags per level over
the trailing axes; numpy runs scans and reductions fastest along the
contiguous axis.  Each column sees the operations of a scan down the
points axis in the same order, so results are bit-identical to one, ties
between 0.0 and -0.0 included.  Stored grades keep their (points,
levels, 3) form: the copy is a temporary, and the hull returns to that
form with one copy.  Cuts solve all segment crossings at once and
intersect the three channel regions as interval unions.

The sampled check draws its coordinate pairs from a seeded generator in
blocks of at most _BLOCK_POINTS coordinates (pair ends and blend
points), evaluates a block on every level in one array pass with the
float expressions of PictureFuzzyMultiset.evaluate, negates the negative
channel in place and compares all channels at once, reducing per level
only in a block with a violation, so memory does not grow with the
number of pairs.  Its
report is the one a scalar loop over pairs, levels, lambdas and channels
gives, witness and errors included.  Sample counts above
_MAX_PAIR_SAMPLES or _MAX_LAMBDA_SAMPLES raise TooLarge.
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
    TooLarge,
    _shown,
    channel_index,
    level_index,
)
from .algebra import WeightVector

_MAX_PAIR_SAMPLES = 1_000_000  # largest pair_samples is_convex_sampled accepts
_MAX_LAMBDA_SAMPLES = 10_000  # largest lambda_samples it accepts
_BLOCK_POINTS = 8_192  # coordinates per pair block of the sampled check


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
        values = np.array(values, dtype=np.float64, order="C")
        mask = (values[..., 0] + values[..., 1]) + values[..., 2] <= 1.0 + TOL_SUM
        values.setflags(write=False)
        mask.setflags(write=False)
        return cls(grid, values, mask)

    def __reduce__(self):
        # pickle and deepcopy rebuild from the envelopes: both arrays stay read-only
        return GradeField.from_envelopes, (self.grid, self.values)

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
    """Per interior index i along the last axis, the deficit ref - values[i]
    and the reference ref = min(max values[:i], max values[i + 1:])."""
    left = np.maximum.accumulate(values[..., :-2], axis=-1)
    right = np.maximum.accumulate(values[..., :1:-1], axis=-1)[..., ::-1]
    ref = np.minimum(left, right)
    return ref - values[..., 1:-1], ref


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


_ROW_SIGNS = CHANNEL_SIGNS[:, None]  # one sign per row of a channel-major array


def _channel_major(values: np.ndarray) -> np.ndarray:
    """Fresh C-ordered (levels, 3, points) copy of an (points, levels, 3)
    grade array with the negative channel negated, so that every channel
    reads "larger is better" and each (level, channel) column is one
    contiguous row."""
    return np.multiply(values.transpose(1, 2, 0), _ROW_SIGNS, order="C")


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
    signed = _channel_major(ms.values)
    deficit, _ = _dips(signed)
    bad = deficit > TOL_CMP
    level_bad = bad.any(axis=(1, 2)).tolist()
    witness: Witness | None = None
    if True in level_bad:
        k = level_bad.index(True)
        c = int(bad[k].any(axis=-1).argmax())
        witness = _node_witness(ms, k, c, *_worst_dip(signed[k, c], TOL_CMP))
    levels = tuple([not b for b in level_bad])
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
    for start in range(0, pair_samples, block):
        n = min(block, pair_samples - start)
        ends = np.array([rng.uniform(lo, hi) for _ in range(2 * n)]).reshape(n, 2)
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
    xs = ms.grid.coords
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
    """Least unimodal majorant along the last axis.

    At each index, any unimodal majorant must reach the running maximum
    from whichever side its peak lies on, so the pointwise least one is
    the smaller of the two running maxima.  On ties (0.0 against -0.0) the
    running maxima keep the current value and the minimum the left one."""
    left = np.maximum.accumulate(values, axis=-1)
    right = np.maximum.accumulate(values[..., ::-1], axis=-1)[..., ::-1]
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
    hull = _majorant(_channel_major(ms.values))
    hull *= _ROW_SIGNS
    return GradeField.from_envelopes(ms.grid, hull.transpose(2, 0, 1))


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
