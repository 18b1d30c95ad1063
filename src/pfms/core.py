"""Value types for picture fuzzy multisets on one-dimensional domains.

A picture fuzzy multiset assigns to every grid point a sequence of
membership triples (positive, neutral, negative), one triple per
multiplicity level.  Triples are constrained componentwise to the unit
interval with componentwise sum at most one; the positive channel must be
nonincreasing across levels at each point.  Between grid points every
channel extends by linear interpolation, so all derived quantities stay
piecewise linear and can be computed exactly.

An instance keeps its grades in one read-only (points, levels, 3) float64
array, checked in one vectorised pass with the float expressions of the
scalar GradeTriple and GradeSequence checks; those re-run on the first
bad point to raise their error.  Point queries return GradeTriple.

Nothing in this module repairs bad input.  Constructors reject violations
outright; the tolerances below exist only to absorb floating-point
rounding, never to mask modelling errors.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Iterator, Sequence

import numpy as np

TOL_SUM = 1e-9   # slack on the positive+neutral+negative <= 1 constraint
TOL_CMP = 1e-9   # slack on order comparisons in checks
TOL_X = 1e-12    # duplicate detection and boundary slack for coordinates

CHANNELS = ("positive", "neutral", "negative")
# Multiplying by these signs makes "better" mean "larger" on every channel.
CHANNEL_SIGNS = np.array([1.0, 1.0, -1.0])


class PfmsError(Exception):
    """Root of every validation and usage error raised by this package."""


class OutOfUnitInterval(PfmsError):
    """A membership degree or weight left the unit interval."""


class SumExceedsOne(PfmsError):
    """positive + neutral + negative exceeded one beyond tolerance."""


class PositiveOrderViolation(PfmsError):
    """Positive-channel values are not nonincreasing across levels."""


class LengthMismatch(PfmsError):
    """Two aligned sequences have different lengths."""


class RaggedDepth(PfmsError):
    """Grid points carry level sequences of different lengths."""


class InvalidGrid(PfmsError):
    """Grid coordinates are empty, non-finite, or not strictly increasing."""


class OutOfDomain(PfmsError):
    """A query coordinate lies outside the grid span."""


class BadLevel(PfmsError):
    """A level index is outside 1..depth."""


class MalformedRegion(PfmsError):
    """An interval was given with its endpoints reversed or not finite."""


def check_unit(value: float, label: str = "value") -> float:
    """Validate that ``value`` lies in [0, 1] up to rounding slack.

    The value is returned unchanged; out-of-range input raises
    OutOfUnitInterval.  Nothing is clamped.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise OutOfUnitInterval(f"{label} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v) or v < -TOL_CMP or v > 1.0 + TOL_CMP:
        raise OutOfUnitInterval(f"{label} must lie in [0, 1], got {value!r}")
    return v


@dataclass(frozen=True, slots=True)
class GradeTriple:
    """One membership triple: positive, neutral and negative degrees.

    Each component lies in [0, 1] and the componentwise sum is at most one
    (up to TOL_SUM).  The remainder 1 - (positive + neutral + negative) is
    the refusal degree.
    """

    positive: float
    neutral: float
    negative: float

    def __post_init__(self) -> None:
        p = check_unit(self.positive, "positive")
        n = check_unit(self.neutral, "neutral")
        g = check_unit(self.negative, "negative")
        object.__setattr__(self, "positive", p)
        object.__setattr__(self, "neutral", n)
        object.__setattr__(self, "negative", g)
        total = p + n + g
        if total > 1.0 + TOL_SUM:
            raise SumExceedsOne(
                f"positive+neutral+negative = {total!r} exceeds 1"
            )

    @property
    def refusal(self) -> float:
        """Degree left over after the three explicit channels."""
        rest = 1.0 - (self.positive + self.neutral + self.negative)
        if -TOL_SUM <= rest < 0.0:
            return 0.0
        return rest

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.positive, self.neutral, self.negative)

    def channel(self, name: str) -> float:
        return self.as_tuple()[channel_index(name)]


def channel_index(name: str) -> int:
    """Position of a channel in a triple: 0 positive, 1 neutral, 2 negative."""
    if name not in CHANNELS:
        raise PfmsError(f"unknown channel {name!r}")
    return CHANNELS.index(name)


@dataclass(frozen=True, slots=True)
class GradeSequence:
    """The level sequence carried by one grid point.

    The positive channel must be nonincreasing from level 1 downwards;
    neutral and negative levels are free.
    """

    levels: tuple[GradeTriple, ...]

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise LengthMismatch("a grade sequence needs at least one level")
        for t in levels:
            if not isinstance(t, GradeTriple):
                raise PfmsError(f"expected GradeTriple, got {t!r}")
        for k in range(len(levels) - 1):
            if levels[k + 1].positive > levels[k].positive + TOL_CMP:
                raise PositiveOrderViolation(
                    "positive channel must be nonincreasing across levels: "
                    f"level {k + 1} has {levels[k].positive!r}, "
                    f"level {k + 2} has {levels[k + 1].positive!r}"
                )

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[GradeTriple]:
        return iter(self.levels)

    def __getitem__(self, k: int) -> GradeTriple:
        return self.levels[k]


@dataclass(frozen=True, slots=True)
class DomainGrid:
    """Strictly increasing finite coordinates of a closed 1-D domain."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(map(float, self.points))
        object.__setattr__(self, "points", pts)
        if not pts:
            raise InvalidGrid("a grid needs at least one coordinate")
        for x in filterfalse(math.isfinite, pts):
            raise InvalidGrid(f"grid coordinate {x!r} is not finite")
        for a, b in zip(pts, pts[1:]):
            if b - a <= TOL_X:
                raise InvalidGrid(
                    f"grid coordinates must increase strictly: {a!r} then {b!r}"
                )

    @property
    def lo(self) -> float:
        return self.points[0]

    @property
    def hi(self) -> float:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> float:
        return self.points[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.points)

    def locate(self, x: float) -> tuple[int, float | None]:
        """Map ``x`` to (node index, None) at a grid point, or to
        (segment index, fraction) strictly inside a segment.

        Coordinates within TOL_X-scaled slack of the span are snapped to
        the nearest endpoint; anything further out raises OutOfDomain.
        """
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise OutOfDomain(f"coordinate must be a real number, got {x!r}")
        x = float(x)
        if not math.isfinite(x):
            raise OutOfDomain(f"coordinate {x!r} is not finite")
        slack = TOL_X * max(1.0, abs(self.lo), abs(self.hi))
        if x < self.lo - slack or x > self.hi + slack:
            raise OutOfDomain(
                f"{x!r} lies outside the domain [{self.lo!r}, {self.hi!r}]"
            )
        x = min(max(x, self.lo), self.hi)
        i = bisect.bisect_left(self.points, x)
        if i < len(self.points) and self.points[i] == x:
            return i, None
        return i - 1, (x - self.points[i - 1]) / (self.points[i] - self.points[i - 1])


def _point_grades(per_point) -> GradeSequence:
    """Scalar check of one point's levels: raises the scalar error."""
    if isinstance(per_point, GradeSequence):
        return per_point
    if isinstance(per_point, np.ndarray):
        per_point = per_point.tolist()
    return GradeSequence(tuple(GradeTriple(*level) for level in per_point))


def real_array(values) -> np.ndarray | None:
    """Fresh C-ordered (m, depth, 3) float64 copy of ``values`` if it holds
    only numbers check_unit accepts, else None.  Types are scanned first,
    as numpy would turn True into 1.0 and "0.5" into 0.5."""
    if isinstance(values, np.ndarray):
        ok = values.dtype == np.float64 and values.ndim == 3 and values.shape[2] == 3
        return np.array(values, order="C") if ok and values.size else None
    try:
        levels = list(chain.from_iterable(values))
        depths, kinds = set(map(len, values)), set(map(type, chain.from_iterable(levels)))
        if len(depths) == 1 and 0 not in depths and set(map(len, levels)) == {3} and all(
            issubclass(t, (int, float)) and t is not bool for t in kinds
        ):
            flat = np.fromiter(chain.from_iterable(levels), np.float64, 3 * len(levels))
            return flat.reshape(len(values), -1, 3)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def first_invalid_point(arr: np.ndarray) -> int:
    """Index of the first point of an (m, depth, 3) array that fails the
    range, sum or level-order check, or m when none does.  The float
    expressions are those of check_unit, GradeTriple and GradeSequence."""
    in_range = (arr >= -TOL_CMP) & (arr <= 1.0 + TOL_CMP)  # NaN is out
    end = len(arr) if in_range.all() else int(in_range.all(axis=(1, 2)).argmin())
    head = arr[:end]  # finite, so the sums below cannot overflow
    pos = head[..., 0]
    bad = (pos + head[..., 1]) + head[..., 2] > 1.0 + TOL_SUM
    bad[:, 1:] |= pos[:, 1:] > pos[:, :-1] + TOL_CMP
    bad = bad.any(axis=1)
    return int(bad.argmax()) if bad.any() else end


def _grade_array(values, size: int) -> np.ndarray:
    """Validated read-only array of ``values`` (an array, nested numbers or
    GradeSequence objects), raising what per-point construction would."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        values = tuple(values)
    arr = real_array(values)
    bad = 0 if arr is None else first_invalid_point(arr)
    # raises at the first bad point; runs over all points only if arr is None
    grades = [_point_grades(per_point) for per_point in values[bad:]]
    if len(values) != size:
        raise LengthMismatch(f"{size} grid points but {len(values)} grade sequences")
    if arr is None:
        depths = {seq.depth for seq in grades}
        if len(depths) > 1:
            raise RaggedDepth(f"level counts differ across points: {sorted(depths)}")
        arr = np.array([[t.as_tuple() for t in seq] for seq in grades], dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, slots=True, eq=False)
class PictureFuzzyMultiset:
    """A picture fuzzy multiset: one grade sequence per grid point.

    ``values[i, k]`` is the triple at point i and level k + 1; the
    constructor also takes nested numbers or GradeSequence objects.
    Evaluation between grid points interpolates each channel linearly and
    reproduces stored triples exactly at the nodes."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _grade_array(self.values, len(self.grid)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PictureFuzzyMultiset):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        # float hashing, unlike the raw bytes, equates 0.0 with -0.0 as == does
        return hash((self.grid, self.values.shape, tuple(self.values.ravel().tolist())))

    @property
    def grades(self) -> tuple[GradeSequence, ...]:
        """Scalar view built on demand: one GradeSequence per point."""
        return tuple(map(_point_grades, self.values.tolist()))

    @property
    def depth(self) -> int:
        return self.values.shape[1]

    @property
    def size(self) -> int:
        return len(self.grid)

    def level_index(self, level: int) -> int:
        if not isinstance(level, int) or isinstance(level, bool):
            raise BadLevel(f"level must be an integer, got {level!r}")
        if level < 1 or level > self.depth:
            raise BadLevel(f"level {level} outside 1..{self.depth}")
        return level - 1

    def channel_nodes(self, channel: str, level: int) -> tuple[float, ...]:
        """Node values of one channel at one level, in grid order."""
        k = self.level_index(level)
        return tuple(self.values[:, k, channel_index(channel)].tolist())

    def evaluate(self, x: float, level: int) -> GradeTriple:
        """Interpolated triple at coordinate ``x`` on a 1-based level."""
        k = self.level_index(level)
        i, t = self.grid.locate(x)
        if t is None:
            return GradeTriple(*self.values[i, k].tolist())
        (p0, n0, g0), (p1, n1, g1) = self.values[i : i + 2, k].tolist()
        s = 1.0 - t
        return GradeTriple(s * p0 + t * p1, s * n0 + t * n1, s * g0 + t * g1)


def multiset_from_values(
    points: Sequence[float],
    values: Sequence[Sequence[Sequence[float]]] | np.ndarray,
) -> PictureFuzzyMultiset:
    """Build a multiset from raw floats: values[point][level] is a
    (positive, neutral, negative) triple, as nested sequences or as an
    (m, depth, 3) float64 array."""
    try:
        grid = DomainGrid(tuple(points))
    except PfmsError:
        for per_point in values:  # a bad grade is reported before a bad grid
            _point_grades(per_point)
        raise
    return PictureFuzzyMultiset(grid, values)


@dataclass(frozen=True, slots=True)
class CutThresholds:
    """Threshold triple for a cut: positive >= r, neutral >= s, negative <= t.

    The side condition r + s + t <= 1 from the usual presentation is
    recorded as a predicate, not enforced: cuts are well defined for any
    unit-interval thresholds.
    """

    r: float
    s: float
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", check_unit(self.r, "r"))
        object.__setattr__(self, "s", check_unit(self.s, "s"))
        object.__setattr__(self, "t", check_unit(self.t, "t"))

    @property
    def within_sum_convention(self) -> bool:
        return self.r + self.s + self.t <= 1.0 + TOL_SUM

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.r, self.s, self.t)


@dataclass(frozen=True, slots=True)
class CutRegion:
    """A finite union of closed intervals with finite endpoints, kept
    sorted, disjoint and non-adjacent (touching intervals are merged on
    construction).  Degenerate single-point intervals are allowed."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        raw = []
        lo, hi = -math.inf, math.inf
        for pair in self.intervals:
            a, b = pair
            a, b = float(a), float(b)
            if not lo < a <= b < hi:
                raise MalformedRegion(
                    f"interval [{a!r}, {b!r}] is reversed or not finite"
                )
            raw.append((a, b))
        raw.sort()
        merged: list[tuple[float, float]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                prev_a, prev_b = merged[-1]
                merged[-1] = (prev_a, max(prev_b, b))
            else:
                merged.append((a, b))
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_convex(self) -> bool:
        """Empty or a single closed interval."""
        return len(self.intervals) <= 1

    @property
    def count(self) -> int:
        return len(self.intervals)

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.intervals)

    def intersect(self, other: "CutRegion") -> "CutRegion":
        out: list[tuple[float, float]] = []
        i = j = 0
        mine, theirs = self.intervals, other.intervals
        while i < len(mine) and j < len(theirs):
            lo = max(mine[i][0], theirs[j][0])
            hi = min(mine[i][1], theirs[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if mine[i][1] < theirs[j][1]:
                i += 1
            else:
                j += 1
        return CutRegion(tuple(out))
