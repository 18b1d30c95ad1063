"""Value types for picture fuzzy multisets on one-dimensional domains.

A picture fuzzy multiset assigns to every grid point a sequence of
membership triples (positive, neutral, negative), one triple per
multiplicity level.  Triples are constrained componentwise to the unit
interval with componentwise sum at most one; the positive channel must be
nonincreasing across levels at each point.  Between grid points every
channel extends by linear interpolation, so all derived quantities stay
piecewise linear and can be computed exactly.

Caller data has one intake: _items reads a sequence (a number or None
is one item), _real_kinds is the one rule for a number (an int or a
float, not a bool), real_array turns grades into an array for instances
and convexity.GradeField alike, and builders check grids before grades.
An instance keeps its grades in one read-only (points, levels, 3) float64
array, checked with the float expressions of the scalar checks, a
GradeTriple per level and then _check_levels on the point's levels;
every array sum test in the package is _within_sum.  The scalar checks
re-run on the first bad point to raise its error, and check point by
point any input real_array refuses (bool or object arrays, strings,
ragged levels).  An array of at most _SCALAR_TRIPLES (32) triples is
checked in one Python pass over its nested lists, a larger one in
whole-array numpy passes, whose fixed cost would outweigh the work in
the small instances the lab builds by the thousand (see
first_invalid_point).  Pickle and deepcopy rebuild an instance or grid
through its constructor, so its arrays stay read-only.  A grid scans its
coordinates' types once, converts them in one map(float) pass, checks
them in a scalar loop and keeps them as a tuple and as one read-only
float64 array, plus its ends and the widened ends, so array code and
point queries read them instead of rebuilding them.
Grades are checked once, when an instance is built: point queries check
only their arguments and return blends of checked nodes unchecked
(_blended), in the range and sum bounds up to one blend's rounding;
union, intersection, complement (after one sum test) and the lab's level
slices keep every bound by construction and are not re-checked (_derived).
GradeTriple is a frozen slots dataclass whose hand-written __init__, the
one checked path for triples from outside, stores the fields through the
slots' member descriptors, not through the frozen __setattr__.  So does
CutRegion's: its constructor checks lists from outside, and convexity.cut
stores its final pieces unchecked (_final_region).
DomainGrid.locate passes a Python float inside the widened ends with one
chained comparison and any other input through the full checks; evaluate
checks a plain int level inline and leaves the rest to level_index.  It
reads its six floats by index from _flat, a flat memoryview of the grade
array that copies nothing, made at construction and kept in a slot of
the multiset's own, outside the fields of its base _GradeArray (grid and
values, shared with convexity.GradeField), so ==, repr, asdict and
astuple see only those two.  The batch evaluator behind the sampled
convexity check gives evaluate's bits on whole arrays of coordinates
(see PictureFuzzyMultiset._evaluate_many).

Nothing in this module repairs bad input.  Constructors reject violations
outright; the tolerances below exist only to absorb floating-point
rounding, never to mask modelling errors.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from typing import Sequence

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
    """Grid coordinates are empty, not numbers, non-finite or not strictly increasing."""


class OutOfDomain(PfmsError):
    """A query coordinate lies outside the grid span."""


class BadLevel(PfmsError):
    """A level index is outside 1..depth."""


class MalformedRegion(PfmsError):
    """An interval's endpoints are reversed, not numbers or not finite."""


class TooLarge(PfmsError):
    """A size or count exceeds what the library will attempt."""


_UNIT_LO = -TOL_CMP  # the range check_unit accepts, in its float expressions
_UNIT_HI = 1.0 + TOL_CMP
_SUM_CAP = 1.0 + TOL_SUM


def _float_or_inf(value: float) -> float:
    """float(value), or a same-signed infinity for an int beyond the float
    range, which float() refuses with OverflowError.  The scalar checks
    call it for every conversion; DomainGrid converts its coordinates with
    one map(float) and falls back to it only on OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _shown(value, form=repr) -> str:
    """``form(value)`` for an error message, or the digit count of an int
    too long for CPython to convert to a string, which ``str`` and ``repr``
    refuse with ValueError (``sys.get_int_max_str_digits``)."""
    try:
        return form(value)
    except ValueError:
        n = abs(value)
        digits = int(n.bit_length() * 0.30102999566398120) + 1  # exact or 1 over
        digits -= n < 10 ** (digits - 1)
        return f"{'-' if value < 0 else ''}<int of {digits} digits>"


def _is_real(value) -> bool:
    """check_unit's rule for a number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """The rule for a count, level or seed: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _real_kinds(items) -> set[type] | None:
    """The types of ``items``, scanned once, if each is an int or a float but
    not a bool (check_unit's rule), else None; numpy would take "0.5"."""
    kinds = set(map(type, items))
    return kinds if all(issubclass(t, (int, float)) and t is not bool for t in kinds) else None


def _items(value) -> tuple:
    """The items of ``value`` as a tuple; a number or None, which is not
    iterable, counts as one item."""
    return tuple(value) if np.iterable(value) else (value,)


def check_unit(value: float, label: str = "value") -> float:
    """Validate that ``value`` lies in [0, 1] up to rounding slack.

    The value is returned unchanged; out-of-range input raises
    OutOfUnitInterval.  Nothing is clamped.
    """
    if not _is_real(value):
        raise OutOfUnitInterval(f"{label} must be a real number, got {value!r}")
    v = _float_or_inf(value)
    if not math.isfinite(v) or v < _UNIT_LO or v > _UNIT_HI:
        # an int beyond the float range shows as the infinity it overflows to
        shown = v if math.isinf(v) else value
        raise OutOfUnitInterval(f"{label} must lie in [0, 1], got {shown!r}")
    return v


@dataclass(frozen=True, slots=True, init=False)
class GradeTriple:
    """One membership triple: positive, neutral and negative degrees.

    Each component lies in [0, 1] and the componentwise sum is at most one
    (up to TOL_SUM).  The remainder 1 - (positive + neutral + negative) is
    the refusal degree.  Only the constructor checks: point queries
    return unchecked blends (see _blended).
    """

    positive: float
    neutral: float
    negative: float

    def __init__(self, positive: float, neutral: float, negative: float) -> None:
        p = check_unit(positive, "positive")
        n = check_unit(neutral, "neutral")
        g = check_unit(negative, "negative")
        total = p + n + g
        if total > _SUM_CAP:
            raise SumExceedsOne(f"positive+neutral+negative = {total!r} exceeds 1")
        # the slots' own descriptors store past the frozen __setattr__
        _set_positive(self, p)
        _set_neutral(self, n)
        _set_negative(self, g)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.positive, self.neutral, self.negative)

    def channel(self, name: str) -> float:
        return self.as_tuple()[channel_index(name)]


_set_positive = GradeTriple.__dict__["positive"].__set__
_set_neutral = GradeTriple.__dict__["neutral"].__set__
_set_negative = GradeTriple.__dict__["negative"].__set__


def _blended(p: float, n: float, g: float) -> GradeTriple:
    """A GradeTriple of floats blended from checked grades, not re-checked."""
    triple = object.__new__(GradeTriple)
    _set_positive(triple, p)
    _set_neutral(triple, n)
    _set_negative(triple, g)
    return triple


def channel_index(name: str) -> int:
    """Position of a channel in a triple: 0 positive, 1 neutral, 2 negative."""
    if name not in CHANNELS:
        raise PfmsError(f"unknown channel {name!r}")
    return CHANNELS.index(name)


@dataclass(frozen=True, slots=True)
class DomainGrid:
    """Strictly increasing finite coordinates of a closed 1-D domain whose
    span hi - lo is finite.

    ``coords`` holds the coordinates as a read-only float64 array, ``lo``
    and ``hi`` the ends, and ``lo_reach``/``hi_reach`` the ends widened by
    the TOL_X-scaled slack that locate accepts.  They are worked out from
    ``points`` once and take no part in ==, hash or repr."""

    points: tuple[float, ...]
    coords: np.ndarray = field(init=False, repr=False, compare=False)
    lo: float = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)
    lo_reach: float = field(init=False, repr=False, compare=False)
    hi_reach: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = self.points
        raw = _items(raw.tolist() if isinstance(raw, np.ndarray) else raw)
        if (kinds := _real_kinds(raw)) is None:
            for x in filterfalse(_is_real, raw):
                raise InvalidGrid(f"grid coordinate {x!r} is not a real number")
        try:  # a tuple of floats is kept as it is
            pts = raw if kinds == {float} else tuple(map(float, raw))
        except OverflowError:
            pts = tuple(map(_float_or_inf, raw))
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
        lo, hi = pts[0], pts[-1]
        if not math.isfinite(hi - lo):
            raise InvalidGrid(f"grid span from {lo!r} to {hi!r} is not finite")
        coords = np.fromiter(pts, np.float64, len(pts))
        coords.flags.writeable = False
        slack = TOL_X * max(1.0, abs(lo), abs(hi))
        # near the largest float the widened ends overflow; every finite
        # coordinate is then within reach, as it would be of +-inf
        top = sys.float_info.max
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_reach", max(lo - slack, -top))
        object.__setattr__(self, "hi_reach", min(hi + slack, top))

    def __reduce__(self):
        # pickle and deepcopy rebuild through the checks: coords stays read-only
        return DomainGrid, (self.points,)

    def __len__(self) -> int:
        return len(self.points)

    def locate(self, x: float) -> tuple[int, float | None]:
        """Map ``x`` to (node index, None) at a grid point, or to
        (segment index, fraction) strictly inside a segment.

        Coordinates within TOL_X-scaled slack of the span are snapped to
        the nearest endpoint; anything further out raises OutOfDomain."""
        # a float within reach is finite; anything else takes the checks
        if not (type(x) is float and self.lo_reach <= x <= self.hi_reach):
            if not _is_real(x):
                raise OutOfDomain(f"coordinate must be a real number, got {x!r}")
            x = _float_or_inf(x)
            if not math.isfinite(x):
                raise OutOfDomain(f"coordinate {x!r} is not finite")
            if x < self.lo_reach or x > self.hi_reach:
                raise OutOfDomain(
                    f"{x!r} lies outside the domain [{self.lo!r}, {self.hi!r}]"
                )
        # clamp as min(max(x, lo), hi) does, keeping x on ties (-0.0 vs 0.0)
        if x < self.lo:
            x = self.lo
        elif x > self.hi:
            x = self.hi
        pts = self.points
        i = bisect.bisect_left(pts, x)
        if pts[i] == x:  # i < len(pts), as x <= hi
            return i, None
        return i - 1, (x - pts[i - 1]) / (pts[i] - pts[i - 1])


def level_index(level: int, depth: int) -> int:
    """0-based index of a 1-based level, or BadLevel outside 1..depth."""
    if not _is_int(level):
        raise BadLevel(f"level must be an integer, got {level!r}")
    if level < 1 or level > depth:
        raise BadLevel(f"level {_shown(level, str)} outside 1..{depth}")
    return level - 1


def _check_levels(triples: Sequence[GradeTriple]) -> None:
    """Raise the error of a point whose checked level triples break the
    level rules: at least one level, and the positive channel
    nonincreasing from level 1 down, up to TOL_CMP."""
    if not triples:
        raise LengthMismatch("a grade sequence needs at least one level")
    for k in range(len(triples) - 1):
        if triples[k + 1].positive > triples[k].positive + TOL_CMP:
            raise PositiveOrderViolation(
                "positive channel must be nonincreasing across levels: "
                f"level {k + 1} has {triples[k].positive!r}, "
                f"level {k + 2} has {triples[k + 1].positive!r}"
            )


def _point_triples(per_point) -> list[GradeTriple]:
    """The checked triples of one point's levels, or the scalar error of
    the first check they fail, level by level; a level that is not three
    values, or a point or level that is a number, raises LengthMismatch."""
    if isinstance(per_point, np.ndarray):
        per_point = per_point.tolist()
    triples = []
    for k, level in enumerate(_items(per_point), 1):
        level = _items(level)
        if len(level) != 3:
            raise LengthMismatch(
                f"level {k} must be three values (positive, neutral, negative), "
                f"got {len(level)}"
            )
        triples.append(GradeTriple(*level))
    _check_levels(triples)
    return triples


def _within_sum(values: np.ndarray) -> np.ndarray:
    """Per triple of a (..., 3) array, whether it keeps the sum bound, in
    GradeTriple's float expression."""
    return (values[..., 0] + values[..., 1]) + values[..., 2] <= _SUM_CAP


def real_array(values) -> np.ndarray | None:
    """Fresh C-ordered (m, depth, 3) float64 copy of ``values`` if it holds
    only numbers check_unit accepts (_real_kinds), else None.  An ndarray
    of an int, uint or float dtype converts in one step; bool, complex,
    object and string arrays give None.  Points and levels are measured
    with len before any of them is iterated, so an iterator among them is
    refused unread and the caller's point-by-point path still sees it."""
    if isinstance(values, np.ndarray):
        ok = values.dtype.kind in "iuf" and values.ndim == 3 and values.shape[2] == 3
        return values.astype(np.float64, order="C") if ok and values.size else None
    try:
        depths = set(map(len, values))
        levels = list(chain.from_iterable(values))
        if (len(depths) == 1 and 0 not in depths and set(map(len, levels)) == {3}
                and _real_kinds(chain.from_iterable(levels)) is not None):
            flat = np.fromiter(chain.from_iterable(levels), np.float64, 3 * len(levels))
            return flat.reshape(len(values), -1, 3)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


# The most triples (points times levels) first_invalid_point checks in one
# Python pass; see its docstring.  Not a setting: it rests on the crossover
# table in CHANGES.md.
_SCALAR_TRIPLES = 32


def first_invalid_point(arr: np.ndarray) -> int:
    """Index of the first point of an (m, depth, 3) array that fails the
    range, sum or level-order check, or m when none does.  The float
    expressions are those of check_unit, GradeTriple and _check_levels.

    An array of at most _SCALAR_TRIPLES triples is checked in one Python
    pass over its nested lists, a larger one by _first_invalid_vectorised;
    the two give the same index.  The pass costs about 0.25-0.35 us a
    triple, the dozen numpy calls a fixed 12-16 us up to 128 triples, so
    the pass is the cheaper below a crossover measured at 32-40 triples at
    depth 1 and 56-80 at depths 2-8.  The cutoff sits at or below it at
    every depth and covers 98.6% of the lab suites' builds (the largest
    has 64 triples)."""
    m, depth = arr.shape[:2]
    if m * depth > _SCALAR_TRIPLES:
        return _first_invalid_vectorised(arr)
    lo, hi, cap, tol = _UNIT_LO, _UNIT_HI, _SUM_CAP, TOL_CMP
    for i, levels in enumerate(arr.tolist()):
        prev = math.inf  # no bound on the first level
        for p, n, g in levels:  # NaN fails every comparison
            if not (
                lo <= p <= hi and lo <= n <= hi and lo <= g <= hi
                and (p + n) + g <= cap and p <= prev + tol
            ):
                return i
            prev = p
    return m


def _first_invalid_vectorised(arr: np.ndarray) -> int:
    """first_invalid_point in whole-array passes, for any size."""
    in_range = (arr >= _UNIT_LO) & (arr <= _UNIT_HI)  # NaN is out
    end = len(arr) if in_range.all() else int(in_range.all(axis=(1, 2)).argmin())
    head = arr[:end]  # finite, so the sums below cannot overflow
    pos = head[..., 0]
    bad = ~_within_sum(head)
    bad[:, 1:] |= pos[:, 1:] > pos[:, :-1] + TOL_CMP
    bad = bad.any(axis=1)
    return int(bad.argmax()) if bad.any() else end


def _grade_array(values, size: int) -> np.ndarray:
    """Validated read-only float64 array of ``values``, read through _items
    unless an array or nested numbers, raising the scalar error of the
    first bad point (see _point_triples).  Input that real_array refuses,
    such as bool or object arrays, strings or ragged levels, is checked
    point by point and converted from the checked triples."""
    if not (isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim):
        values = _items(values)
    arr = real_array(values)
    bad = 0 if arr is None else first_invalid_point(arr)
    # raises at the first bad point; runs over all points only if arr is None
    grades = [_point_triples(p) for p in values[bad:]] if bad < len(values) else ()
    if len(values) != size:
        raise LengthMismatch(f"{size} grid points but {len(values)} grade sequences")
    if arr is None:
        depths = set(map(len, grades))
        if len(depths) > 1:
            raise RaggedDepth(f"level counts differ across points: {sorted(depths)}")
        arr = np.array([[t.as_tuple() for t in seq] for seq in grades], dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, slots=True, eq=False)
class _GradeArray:
    """A grid and a (points, levels, 3) float64 grade array over it, the
    base of PictureFuzzyMultiset and convexity.GradeField.  Instances of
    two classes never compare equal."""

    grid: DomainGrid
    values: np.ndarray

    def __reduce__(self):
        # pickle and deepcopy rebuild through the checks: values stays read-only
        return type(self), (self.grid, self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    @property
    def depth(self) -> int:
        return self.values.shape[1]

    def channel_nodes(self, channel: str, level: int) -> tuple[float, ...]:
        """Node values of one channel at one level, in grid order."""
        k = level_index(level, self.depth)
        return tuple(self.values[:, k, channel_index(channel)].tolist())


@dataclass(frozen=True, eq=False)
class PictureFuzzyMultiset(_GradeArray):
    """A picture fuzzy multiset: one sequence of level triples per grid
    point.

    ``values[i, k]`` is the triple at point i and level k + 1.  The
    constructor takes an (m, depth, 3) array or nested numbers and raises
    the scalar error of the first bad point (see _grade_array).
    Evaluation between grid points interpolates each channel linearly and
    reproduces stored triples exactly at the nodes."""

    # evaluate's flat memoryview of values: a slot, not a field, as asdict
    # and astuple would try to copy it, which a memoryview refuses
    __slots__ = ("_flat",)

    def __post_init__(self) -> None:
        values = _grade_array(self.values, len(self.grid))
        object.__setattr__(self, "values", values)
        _set_flat(self, memoryview(values.ravel()))  # a view: values is C-ordered

    def __hash__(self) -> int:
        # float hashing, unlike the raw bytes, equates 0.0 with -0.0 as == does
        return hash((self.grid, self.values.shape, tuple(self.values.ravel().tolist())))

    @property
    def size(self) -> int:
        return len(self.grid)

    def evaluate(self, x: float, level: int) -> GradeTriple:
        """Interpolated triple at coordinate ``x`` on a 1-based level, unchecked."""
        depth = self.values.shape[1]
        if type(level) is int and 0 < level <= depth:
            k = level - 1
        else:
            k = level_index(level, depth)  # an int subclass passes, the rest raise
        i, t = self.grid.locate(x)
        f, j = self._flat, 3 * (i * depth + k)  # the triple at point i, level k
        if t is None:
            return _blended(f[j], f[j + 1], f[j + 2])
        p0, n0, g0 = f[j], f[j + 1], f[j + 2]
        j += 3 * depth  # the next point
        s = 1.0 - t
        return _blended(s * p0 + t * f[j], s * n0 + t * f[j + 1], s * g0 + t * f[j + 2])

    def _evaluate_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What evaluate gives at every coordinate of a float64 array, on
        every level.

        Returns the triples, shape xs.shape + (depth, 3), with the bits
        evaluate gives, and the bool array ``placed``, shape xs.shape, of
        the coordinates locate accepts; as in evaluate, the triples are
        not checked.  The caller re-runs evaluate at a coordinate that is
        not placed to raise its error.

        The coordinates are searched in sorted order, which costs numpy's
        binary search fewer steps than unsorted keys, and each index is
        put back at its key's place.  Both segment ends are gathered with
        take, and the blend (1 - t) * v0 + t * v1 is formed in place in
        the gathered copies, in evaluate's operations.  Coordinates that
        hit a node then get its stored triple, found by index."""
        grid, values = self.grid, self.values
        pts, lo, hi = grid.coords, grid.lo, grid.hi
        placed = (xs >= grid.lo_reach) & (xs <= grid.hi_reach)  # False for inf and NaN
        x = np.clip(np.where(placed, xs, lo), lo, hi).ravel()
        # bisect_left, i < m after clipping; a key's index does not depend
        # on the order the keys are searched in
        order = np.argsort(x)
        i = np.empty(x.shape, dtype=np.intp)
        i[order] = np.searchsorted(pts, x[order])
        left = np.maximum(i - 1, 0)  # the segment's left end unless at a node
        x0, x1 = pts.take(left), pts.take(i)
        grades, v1 = values.take(left, axis=0), values.take(i, axis=0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = ((x - x0) / (x1 - x0))[:, None, None]
            grades *= 1.0 - t  # (1 - t) * v0 + t * v1, blended in place
            v1 *= t
            grades += v1
            hit = np.flatnonzero(x1 == x)  # nodes take their triples
            grades[hit] = values.take(i.take(hit), axis=0)
        return grades.reshape(xs.shape + values.shape[1:]), placed


_set_flat = PictureFuzzyMultiset.__dict__["_flat"].__set__
_set_grid = _GradeArray.__dict__["grid"].__set__
_set_values = _GradeArray.__dict__["values"].__set__


def _derived(grid: DomainGrid, values: np.ndarray) -> PictureFuzzyMultiset:
    """A multiset of ``values``, a fresh C-ordered float64 array computed
    from checked grades by steps that keep every bound, not re-checked."""
    values.setflags(write=False)
    ms = object.__new__(PictureFuzzyMultiset)
    _set_grid(ms, grid)
    _set_values(ms, values)
    _set_flat(ms, memoryview(values.ravel()))
    return ms


def multiset_from_values(
    points: Sequence[float],
    values: Sequence[Sequence[Sequence[float]]] | np.ndarray,
) -> PictureFuzzyMultiset:
    """Build a multiset from raw numbers: values[point][level] is a
    (positive, neutral, negative) triple, as nested sequences or as an
    (m, depth, 3) array of a real dtype; the grid is checked first."""
    return PictureFuzzyMultiset(DomainGrid(points), values)


@dataclass(frozen=True, slots=True)
class CutThresholds:
    """Threshold triple for a cut: positive >= r, neutral >= s, negative <= t.

    The side condition r + s + t <= 1 from the usual presentation is not
    enforced: cuts are well defined for any unit-interval thresholds.
    """

    r: float
    s: float
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", check_unit(self.r, "r"))
        object.__setattr__(self, "s", check_unit(self.s, "s"))
        object.__setattr__(self, "t", check_unit(self.t, "t"))


@dataclass(frozen=True, slots=True)
class CutRegion:
    """A finite union of closed intervals with finite endpoints, kept
    sorted, disjoint and non-adjacent (touching intervals are merged on
    construction).  Degenerate single-point intervals are allowed.  Only
    the constructor checks: cut returns its pieces unchecked (_final_region)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        raw = []
        lo, hi = -math.inf, math.inf
        for pair in _items(self.intervals):
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise MalformedRegion(f"interval {pair!r} is not a pair of endpoints") from None
            for x in filterfalse(_is_real, (a, b)):
                raise MalformedRegion(f"interval endpoint {x!r} is not a real number")
            a, b = _float_or_inf(a), _float_or_inf(b)
            if not lo < a <= b < hi:
                raise MalformedRegion(f"interval [{a!r}, {b!r}] is reversed or not finite")
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


_set_intervals = CutRegion.__dict__["intervals"].__set__


def _final_region(starts: np.ndarray, ends: np.ndarray) -> CutRegion:
    """cut's sorted, disjoint, non-touching pieces, not re-checked."""
    region = object.__new__(CutRegion)
    _set_intervals(region, tuple(zip(starts.tolist(), ends.tolist())))
    return region
