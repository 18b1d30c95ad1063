"""Level-wise algebra on picture fuzzy multisets.

Union takes the larger positive and the smaller neutral and negative
degree; intersection mirrors it; complement swaps the positive and
negative channels and restores the level order.  Convex combinations mix
two multisets with one scalar weight applied uniformly to all channels.
All binary operations require identical grids and depths and never mutate
their arguments.  Each operation is a few whole-array numpy expressions
over the operands' (points, levels, 3) value arrays.  Union, intersection
and complement (after one sum test) return their results unchecked.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CHANNEL_SIGNS,
    TOL_CMP,
    OutOfUnitInterval,
    PfmsError,
    PictureFuzzyMultiset,
    PositiveOrderViolation,
    SumExceedsOne,
    _UNIT_HI,
    _UNIT_LO,
    _derived,
    _within_sum,
    check_unit,
)


class GridMismatch(PfmsError):
    """Operands live on different grids."""


class DepthMismatch(PfmsError):
    """Operands carry different numbers of levels."""


def _check_aligned(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> None:
    if a.grid.points != b.grid.points:
        raise GridMismatch("operands are defined on different grids")
    if a.depth != b.depth:
        raise DepthMismatch(
            f"operands have depths {a.depth} and {b.depth}"
        )


# Signs that turn union's and intersection's max and min into one ">" test.
_UNION = np.array([1.0, -1.0, -1.0])
_INTERSECTION = np.array([-1.0, -1.0, 1.0])


def includes(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> bool:
    """True when ``a`` is contained in ``b``: level-wise, the positive and
    neutral degrees of ``a`` do not exceed those of ``b`` and its negative
    degree is not below, all up to comparison tolerance."""
    _check_aligned(a, b)
    return not (a.values * CHANNEL_SIGNS > b.values * CHANNEL_SIGNS + TOL_CMP).any()


def equals(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> bool:
    """Mutual inclusion: equality up to comparison tolerance."""
    return includes(a, b) and includes(b, a)


def _pick(
    a: PictureFuzzyMultiset, b: PictureFuzzyMultiset, sign: np.ndarray
) -> PictureFuzzyMultiset:
    """Per entry, ``b``'s value where it beats ``a``'s strictly along
    ``sign``, else ``a``'s: ties keep the first operand, as max and min do.
    Entries of valid operands keep the range bounds, and as rounding is
    monotone a triple's sum is at most that of the operand whose positive
    (union) or negative (intersection) degree it took, and the level order
    holds as it does in both operands; so the result is not re-checked."""
    _check_aligned(a, b)
    va, vb = a.values, b.values
    return _derived(a.grid, np.where(vb * sign > va * sign, vb, va))


def union(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> PictureFuzzyMultiset:
    """Level-wise join: max positive, min neutral, min negative."""
    return _pick(a, b, _UNION)


def intersection(
    a: PictureFuzzyMultiset, b: PictureFuzzyMultiset
) -> PictureFuzzyMultiset:
    """Level-wise meet: min positive, min neutral, max negative."""
    return _pick(a, b, _INTERSECTION)


def _moved_in_bound(grid, values: np.ndarray) -> PictureFuzzyMultiset:
    """The multiset of ``values``, computed from valid triples; what
    rounding carried past their range bounds, then their sum bound (the
    largest channel losing the fewest ulps that bring it back), then their
    level order's tolerance is moved back onto it, by strict tests."""
    try:
        return PictureFuzzyMultiset(grid, values)
    except (OutOfUnitInterval, SumExceedsOne, PositiveOrderViolation):
        pass
    values = values.copy()
    np.copyto(values, _UNIT_LO, where=values < _UNIT_LO)
    np.copyto(values, _UNIT_HI, where=values > _UNIT_HI)
    for i, k in np.argwhere(~_within_sum(values)):  # finite: > and not <= agree
        trip = values[i, k]
        while not _within_sum(trip):
            top = trip.argmax()
            trip[top] = np.nextafter(trip[top], -np.inf)
    positive = values[..., 0]
    for k in range(1, values.shape[1]):  # level k's cap is level k - 1 as moved back
        cap = positive[:, k - 1] + TOL_CMP
        np.copyto(positive[:, k], cap, where=positive[:, k] > cap)
    return PictureFuzzyMultiset(grid, values)


def complement(a: PictureFuzzyMultiset) -> PictureFuzzyMultiset:
    """Swap positive and negative channels, then restore the level order.

    The swap itself is exact; re-sorting is required because the new
    positive channel (the old negative one) carries no order guarantee.
    Ties sort by neutral descending, then negative ascending, and keep
    their level order when all three agree (the sort is stable).  The swap
    keeps the range bounds and the sort the level order, so only the sum
    bound is tested: a valid triple can round just above it once swapped,
    as it is (positive + neutral) + negative (see _moved_in_bound)."""
    swapped = a.values[..., ::-1]
    if a.depth > 1:
        order = np.lexsort(
            (swapped[..., 2], -swapped[..., 1], -swapped[..., 0]), axis=-1
        )
        swapped = swapped[np.arange(len(order))[:, None], order]
    if _within_sum(swapped).all():  # copies only the depth-1 swap, a view
        return _derived(a.grid, np.ascontiguousarray(swapped))
    return _moved_in_bound(a.grid, swapped)


def convex_combination(
    a: PictureFuzzyMultiset,
    b: PictureFuzzyMultiset,
    lam: float,
) -> PictureFuzzyMultiset:
    """Blend two multisets: lam times ``a`` plus (1 - lam) times ``b``,
    channel by channel and level by level.  lam = 1 returns ``a`` exactly,
    lam = 0 returns ``b`` exactly.

    A blend lies between its operands and keeps their level order, so
    what rounding carries past the range, sum or order bounds is moved
    back onto them (see _moved_in_bound)."""
    _check_aligned(a, b)
    lam = check_unit(lam, "lambda")
    mu = 1.0 - lam
    return _moved_in_bound(a.grid, lam * a.values + mu * b.values)
