"""Level-wise algebra on picture fuzzy multisets.

Union takes the larger positive and the smaller neutral and negative
degree; intersection mirrors it; complement swaps the positive and
negative channels and restores the level order.  Convex combinations mix
two multisets with one scalar weight applied uniformly to all channels.
All binary operations require identical grids and depths and never mutate
their arguments.  Each operation is a few whole-array numpy expressions
over the operands' (points, levels, 3) value arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHANNEL_SIGNS,
    TOL_CMP,
    TOL_SUM,
    GradeTriple,
    LengthMismatch,
    PfmsError,
    PictureFuzzyMultiset,
    check_unit,
)


class GridMismatch(PfmsError):
    """Operands live on different grids."""


class DepthMismatch(PfmsError):
    """Operands carry different numbers of levels."""


class WeightSumInvalid(PfmsError):
    """Weights do not sum to one within tolerance."""


@dataclass(frozen=True, slots=True)
class WeightVector:
    """Scalar convex weights: each in [0, 1], summing to one.

    This is the weight form that interacts with convexity: one scalar per
    point, applied to every channel alike.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = tuple(check_unit(w, "weight") for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise WeightSumInvalid("at least one weight is required")
        total = math.fsum(ws)
        if abs(total - 1.0) > TOL_SUM:
            raise WeightSumInvalid(f"weights sum to {total!r}, expected 1")

    @classmethod
    def of(cls, weights: "WeightVector | Sequence[float]") -> "WeightVector":
        if isinstance(weights, WeightVector):
            return weights
        return cls(tuple(weights))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i: int) -> float:
        return self.weights[i]


@dataclass(frozen=True, slots=True)
class ChannelWeights:
    """Channel-split weights: one triple per point, jointly summing to one.

    Each triple component lies in [0, 1] and each triple sums to at most
    one; the grand total over all points and channels is one.  This is a
    deliberately different type from WeightVector: the two weight schemes
    are not interchangeable.
    """

    triples: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for trip in self.triples:
            p, n, g = trip
            p = check_unit(p, "positive weight")
            n = check_unit(n, "neutral weight")
            g = check_unit(g, "negative weight")
            if p + n + g > 1.0 + TOL_SUM:
                raise WeightSumInvalid(
                    f"per-point weight triple sums to {p + n + g!r}, above 1"
                )
            cleaned.append((p, n, g))
        object.__setattr__(self, "triples", tuple(cleaned))
        if not cleaned:
            raise WeightSumInvalid("at least one weight triple is required")
        total = math.fsum(w for trip in cleaned for w in trip)
        if abs(total - 1.0) > TOL_SUM:
            raise WeightSumInvalid(
                f"weight triples jointly sum to {total!r}, expected 1"
            )

    @classmethod
    def of(
        cls, weights: "ChannelWeights | Sequence[Sequence[float]]"
    ) -> "ChannelWeights":
        if isinstance(weights, ChannelWeights):
            return weights
        return cls(tuple(tuple(trip) for trip in weights))

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


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
    ``sign``, else ``a``'s: ties keep the first operand, as max and min do."""
    _check_aligned(a, b)
    va, vb = a.values, b.values
    return PictureFuzzyMultiset(a.grid, np.where(vb * sign > va * sign, vb, va))


def union(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> PictureFuzzyMultiset:
    """Level-wise join: max positive, min neutral, min negative."""
    return _pick(a, b, _UNION)


def intersection(
    a: PictureFuzzyMultiset, b: PictureFuzzyMultiset
) -> PictureFuzzyMultiset:
    """Level-wise meet: min positive, min neutral, max negative."""
    return _pick(a, b, _INTERSECTION)


def complement(a: PictureFuzzyMultiset) -> PictureFuzzyMultiset:
    """Swap positive and negative channels, then restore the level order.

    The swap itself is exact; re-sorting is required because the new
    positive channel (the old negative one) carries no order guarantee.
    Ties sort by neutral descending, then negative ascending, and keep
    their level order when all three agree (the sort is stable)."""
    swapped = a.values[..., ::-1]
    if a.depth > 1:
        order = np.lexsort(
            (swapped[..., 2], -swapped[..., 1], -swapped[..., 0]), axis=-1
        )
        swapped = np.take_along_axis(swapped, order[..., None], axis=1)
    return PictureFuzzyMultiset(a.grid, swapped)


def convex_combination(
    a: PictureFuzzyMultiset,
    b: PictureFuzzyMultiset,
    lam: float,
) -> PictureFuzzyMultiset:
    """Blend two multisets: lam times ``a`` plus (1 - lam) times ``b``,
    channel by channel and level by level.  lam = 1 returns ``a`` exactly,
    lam = 0 returns ``b`` exactly.

    The result is revalidated; a level-order violation surfaces as
    PositiveOrderViolation instead of being silently re-sorted.
    """
    _check_aligned(a, b)
    lam = check_unit(lam, "lambda")
    mu = 1.0 - lam
    return PictureFuzzyMultiset(a.grid, lam * a.values + mu * b.values)


def segment_grade_blend(
    ms: PictureFuzzyMultiset,
    x: float,
    y: float,
    lam: float,
    level: int,
) -> GradeTriple:
    """Affine blend of the grades at two domain points:
    (1 - lam) * value(x) + lam * value(y), channel by channel.

    This is the grade-side quantity that convexity witnesses compare
    against; it is generally different from evaluating at the blended
    coordinate."""
    lam = check_unit(lam, "lambda")
    gx = ms.evaluate(x, level)
    gy = ms.evaluate(y, level)
    mu = 1.0 - lam
    return GradeTriple(
        mu * gx.positive + lam * gy.positive,
        mu * gx.neutral + lam * gy.neutral,
        mu * gx.negative + lam * gy.negative,
    )


def pcc_points(
    points: Sequence[GradeTriple],
    weights: ChannelWeights | Sequence[Sequence[float]],
) -> GradeTriple:
    """Channel-split convex combination of grade triples.

    Each point contributes through its own weight triple; the positive
    output is the weighted sum of positive inputs with the positive
    weights, and likewise per channel.  The joint weight normalisation
    guarantees the output is a valid triple."""
    w = ChannelWeights.of(weights)
    if len(points) != len(w):
        raise LengthMismatch(
            f"{len(points)} points but {len(w)} weight triples"
        )
    pos = math.fsum(wt[0] * t.positive for wt, t in zip(w, points))
    neu = math.fsum(wt[1] * t.neutral for wt, t in zip(w, points))
    neg = math.fsum(wt[2] * t.negative for wt, t in zip(w, points))
    return GradeTriple(pos, neu, neg)
