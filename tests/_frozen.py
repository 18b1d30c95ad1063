"""A frozen copy of the per-point construction that pfms.core used to
validate one grid point: a GradeTriple per level, then a GradeSequence of
them.  The library now raises these errors from core._check_levels; the
tests compare its classes, messages and first bad indices against this
copy, so they cannot drift.  Do not edit it to follow the library."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from pfms import (
    TOL_CMP,
    GradeTriple,
    LengthMismatch,
    PfmsError,
    PositiveOrderViolation,
)


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


def point_grades(per_point) -> GradeSequence:
    """Scalar check of one point's levels: raises the scalar error."""
    if isinstance(per_point, GradeSequence):
        return per_point
    if isinstance(per_point, np.ndarray):
        per_point = per_point.tolist()
    return GradeSequence(tuple(GradeTriple(*level) for level in per_point))
