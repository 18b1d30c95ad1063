import ast
import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _frozen
import pfms
from pfms import (
    BadLevel,
    CutRegion,
    CutThresholds,
    DomainGrid,
    GradeTriple,
    InvalidGrid,
    LengthMismatch,
    MalformedRegion,
    OutOfDomain,
    OutOfUnitInterval,
    PfmsError,
    PictureFuzzyMultiset,
    RaggedDepth,
    PositiveOrderViolation,
    SchemaError,
    SumExceedsOne,
    TOL_CMP,
    TOL_SUM,
    TOL_X,
    multiset_from_values,
    parse_instance,
)
from pfms import core

APPROX = dict(abs=1e-12)


class TestGradeTriple:
    def test_valid_triple(self):
        t = GradeTriple(0.5, 0.2, 0.2)
        assert t.as_tuple() == (0.5, 0.2, 0.2)

    def test_sum_exceeds_one_rejected(self):
        with pytest.raises(SumExceedsOne):
            GradeTriple(0.6, 0.3, 0.3)

    @pytest.mark.parametrize("bad", [(1.2, 0, 0), (0, -0.1, 0), (0, 0, 2)])
    def test_component_out_of_unit(self, bad):
        with pytest.raises(OutOfUnitInterval):
            GradeTriple(*bad)

    def test_bool_and_nan_rejected(self):
        with pytest.raises(OutOfUnitInterval):
            GradeTriple(True, 0.0, 0.0)
        with pytest.raises(OutOfUnitInterval):
            GradeTriple(float("nan"), 0.0, 0.0)

    def test_rounding_slack_just_over_one_accepted(self):
        # linear interpolation of valid triples can overshoot by rounding
        t = GradeTriple(1.0 + 1e-10, 0.0, 0.0)
        assert t.positive > 1.0
        with pytest.raises(OutOfUnitInterval):
            GradeTriple(1.0 + 1e-8, 0.0, 0.0)

    def test_frozen_dataclass_behaviour(self):
        t = GradeTriple(positive=0.5, neutral=0.25, negative=0.125)
        assert [f.name for f in dataclasses.fields(t)] == ["positive", "neutral", "negative"]
        assert repr(t) == "GradeTriple(positive=0.5, neutral=0.25, negative=0.125)"
        assert t == GradeTriple(0.5, 0.25, 0.125) and hash(t) == hash(GradeTriple(0.5, 0.25, 0.125))
        assert t != (0.5, 0.25, 0.125) and not hasattr(t, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.positive = 0.25
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t.neutral
        assert dataclasses.replace(t, negative=0) == GradeTriple(0.5, 0.25, 0.0)
        with pytest.raises(SumExceedsOne):
            dataclasses.replace(t, negative=0.5)
        with pytest.raises(TypeError):
            GradeTriple(0.5, 0.25)

    def test_channel_accessor(self):
        t = GradeTriple(0.3, 0.2, 0.1)
        assert t.channel("positive") == 0.3
        assert t.channel("neutral") == 0.2
        assert t.channel("negative") == 0.1
        with pytest.raises(PfmsError):
            t.channel("sideways")


def _one_point_document(levels):
    return json.dumps({"format_version": "1", "domain": [0.0], "depth": len(levels),
                       "elements": [levels]})


def _one_point_builds(levels):
    """The one-point instance of ``levels`` from multiset_from_values and
    from parse_instance."""
    return (multiset_from_values((0.0,), [levels]),
            parse_instance(_one_point_document(levels)))


class TestGradeSequence:
    """The level rules of one point's grade sequence, through both builds."""

    def test_positive_order_enforced(self):
        ms, parsed = _one_point_builds([[0.7, 0.1, 0.1], [0.4, 0.2, 0.2]])
        assert ms == parsed and ms.depth == 2
        for levels, k in (([[0.3, 0.1, 0.1], [0.5, 0.1, 0.1]], 1),
                          ([[0.5, 0.1, 0.1], [0.3, 0.1, 0.1], [0.5, 0.1, 0.1]], 2)):
            message = (
                "positive channel must be nonincreasing across levels: "
                f"level {k} has 0.3, level {k + 1} has 0.5"
            )
            with pytest.raises(PositiveOrderViolation) as err:
                multiset_from_values((0.0,), [levels])
            assert str(err.value) == message
            with pytest.raises(PositiveOrderViolation) as err:
                parse_instance(_one_point_document(levels))
            assert str(err.value) == f"elements[0]: {message}"

    def test_equal_positive_values_allowed(self):
        ms, parsed = _one_point_builds([[0.4, 0.0, 0.0], [0.4, 0.3, 0.1]])
        assert ms == parsed and ms.depth == 2

    def test_order_slack_within_tolerance(self):
        ms, parsed = _one_point_builds([[0.4, 0.0, 0.0], [0.4 + TOL_CMP / 2, 0.0, 0.0]])
        assert ms == parsed and ms.values[0, 1, 0] == 0.4 + TOL_CMP / 2

    def test_empty_rejected(self):
        for empty in ([[]], np.zeros((1, 0, 3))):
            with pytest.raises(LengthMismatch) as err:
                multiset_from_values((0.0,), empty)
            assert str(err.value) == "a grade sequence needs at least one level"
        # a document's depth is at least 1, so an empty entry is a schema error
        with pytest.raises(SchemaError) as err:
            parse_instance('{"format_version":"1","domain":[0],"depth":1,"elements":[[]]}')
        assert str(err.value) == "elements[0]: expected an array of 1 triples"


class TestDomainGrid:
    def test_strictly_increasing_required(self):
        DomainGrid((0.0, 1.0, 2.5))
        with pytest.raises(InvalidGrid):
            DomainGrid((0.0, 1.0, 1.0))
        with pytest.raises(InvalidGrid):
            DomainGrid((2.0, 1.0))
        with pytest.raises(InvalidGrid):
            DomainGrid(())
        with pytest.raises(InvalidGrid):
            DomainGrid((0.0, float("inf")))

    def test_single_point_grid(self):
        g = DomainGrid((3.0,))
        assert g.lo == g.hi == 3.0
        assert g.locate(3.0) == (0, None)

    def test_locate_at_nodes_and_inside(self):
        g = DomainGrid((0.0, 1.0, 2.0))
        assert g.locate(1.0) == (1, None)
        i, t = g.locate(0.5)
        assert i == 0 and t == pytest.approx(0.5, **APPROX)
        i, t = g.locate(1.75)
        assert i == 1 and t == pytest.approx(0.75, **APPROX)

    def test_locate_boundary_slack_and_rejection(self):
        g = DomainGrid((0.0, 1.0, 2.0))
        assert g.locate(-1e-13) == (0, None)
        assert g.locate(2.0 + 1e-13) == (2, None)
        with pytest.raises(OutOfDomain):
            g.locate(-0.01)
        with pytest.raises(OutOfDomain):
            g.locate(2.01)
        with pytest.raises(OutOfDomain):
            g.locate(float("nan"))


    def test_span_must_be_finite(self):
        with pytest.raises(InvalidGrid) as refused:
            DomainGrid((-1.5e308, 1.5e308))
        assert str(refused.value) == "grid span from -1.5e+308 to 1.5e+308 is not finite"
        with pytest.raises(InvalidGrid, match="span"):
            multiset_from_values((-1.5e308, 0.0, 1.5e308), [[[0.5, 0.25, 0.25]]] * 3)
        top = DomainGrid((-1.7976931348623157e308, -1e308))
        assert top.locate(-1.7976931348623157e308) == (0, None)

    @pytest.mark.parametrize("odd", ["0", " 1e0 ", b"2", True, False, None, 1j])
    def test_coordinates_must_be_real_numbers(self, odd):
        # check_unit's rule: an int or a float, not a bool, string or bytes
        with pytest.raises(InvalidGrid) as refused:
            DomainGrid((-1.0, odd, 3.0))
        assert str(refused.value) == f"grid coordinate {odd!r} is not a real number"
        with pytest.raises(InvalidGrid):
            multiset_from_values([odd, 5.0], [[[0.5, 0.25, 0.125]]] * 2)
        with pytest.raises(InvalidGrid):
            DomainGrid(np.array([-1.0, odd, 3.0], dtype=object))

    def test_numeric_arrays_and_number_subclasses_build(self):
        expected = (0.0, 1.0, 2.0)
        for points in (np.arange(3), np.arange(3, dtype=np.float32), np.array([0.0, 1.0, 2.0]),
                       (np.float64(0.0), 1, 2.0), range(3)):
            assert DomainGrid(points).points == expected
            assert multiset_from_values(points, [[[0.5, 0.25, 0.125]]] * 3).grid.points == expected
        with pytest.raises(InvalidGrid, match="False is not"):
            DomainGrid(np.array([False, True]))

    def test_reach_stays_finite_at_the_largest_float(self):
        # lo minus the slack overflows here; -inf must still be refused
        g = DomainGrid((-1.7976931348623157e308, -1e308))
        assert g.lo_reach == -1.7976931348623157e308
        with pytest.raises(OutOfDomain, match="not finite"):
            g.locate(-math.inf)


def _reference_grid_error(points):
    """The scalar grid check, written out: the message of the first
    InvalidGrid a grid of these points raises, or None."""
    pts = tuple(map(float, points))
    if not pts:
        return "a grid needs at least one coordinate"
    for x in pts:
        if not math.isfinite(x):
            return f"grid coordinate {x!r} is not finite"
    for a, b in zip(pts, pts[1:]):
        if b - a <= TOL_X:
            return f"grid coordinates must increase strictly: {a!r} then {b!r}"
    if not math.isfinite(pts[-1] - pts[0]):
        return f"grid span from {pts[0]!r} to {pts[-1]!r} is not finite"
    return None


@st.composite
def _grid_points(draw):
    """Mostly increasing points with bad neighbours mixed in: repeats,
    steps at and just over TOL_X, NaN, infinities, steps back and jumps
    that make the span overflow."""
    start = st.sampled_from((0.0, -0.0, 1.0, -1e308, -1e308, -math.inf, math.nan))
    points = [draw(start if draw(st.booleans()) else st.floats(-1e6, 1e6))]
    for _ in range(draw(st.integers(0, 7))):
        a = points[-1]
        step = draw(st.sampled_from(
            ("up",) * 12 + ("repeat", "tol", "over-tol", "nan", "inf", "-inf", "back", "huge", "huge")
        ))
        if step == "up":
            b = a + draw(st.floats(1e-9, 1e3)) * max(1.0, abs(a) * 1e-6)
        elif step == "repeat":
            b = a
        elif step == "tol":
            b = a + TOL_X
        elif step == "over-tol":
            b = math.nextafter(a + TOL_X, math.inf)
        elif step in ("nan", "inf", "-inf"):
            b = float(step)
        elif step == "back":
            b = a - draw(st.floats(0.0, 1.0))
        else:
            b = 1.7e308
        points.append(b)
    return points


class TestGridCoords:
    def test_read_only_and_bit_identical(self):
        g = DomainGrid((-2, -0.0, np.float64(1.5), 7.25))
        assert g.coords.dtype == np.float64 and not g.coords.flags.writeable
        with pytest.raises(ValueError):
            g.coords[0] = 1.0
        expected = struct.pack(f"<{len(g)}d", *g.points)
        assert g.coords.astype("<f8").tobytes() == expected  # -0.0 kept
        assert (g.lo, g.hi) == (-2.0, 7.25)

    def test_no_part_in_eq_hash_or_repr(self):
        shown = [f.name for f in dataclasses.fields(DomainGrid) if f.repr]
        compared = [f.name for f in dataclasses.fields(DomainGrid) if f.compare]
        assert shown == compared == ["points"]
        a, b = DomainGrid((0.0, 1.0)), DomainGrid([0, 1])
        object.__setattr__(b, "coords", np.array([5.0, 6.0]))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "DomainGrid(points=(0.0, 1.0))"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_grid_points())
    @example([-1e308, 1.7e308])
    @example([-1.5e308, 0.0, 1.5e308])
    @example([-1.7976931348623157e308, 1.7976931348623157e308])
    @example([-1.7976931348623157e308, 0.0, math.inf])
    @example([-math.inf, 0.0])
    def test_validation_matches_reference_loop(self, points):
        expected = _reference_grid_error(points)
        try:
            g = DomainGrid(points)
        except InvalidGrid as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert g.coords.tolist() == list(g.points)


class TestPictureFuzzyMultiset:
    def test_construction_example(self, convex_ms):
        assert convex_ms.size == 3
        assert convex_ms.depth == 1

    def test_alignment_errors(self):
        seqs = [[[0.2, 0.1, 0.5]], [[0.6, 0.2, 0.1]]]
        grid = DomainGrid((0.0, 1.0, 2.0))
        with pytest.raises(LengthMismatch):
            PictureFuzzyMultiset(grid, seqs)
        ragged = seqs + [[[0.3, 0.1, 0.4], [0.1, 0.1, 0.4]]]
        with pytest.raises(RaggedDepth):
            PictureFuzzyMultiset(grid, ragged)

    def test_positive_order_violation_propagates(self):
        with pytest.raises(PositiveOrderViolation):
            multiset_from_values((0.0,), [[[0.3, 0.1, 0.1], [0.5, 0.1, 0.1]]])

    def test_level_index_contract(self, deep_ms):
        assert core.level_index(1, deep_ms.depth) == 0
        assert core.level_index(2, deep_ms.depth) == 1
        for bad in (0, 3, -1, 1.5, True):
            with pytest.raises(BadLevel):
                core.level_index(bad, deep_ms.depth)

    def test_evaluate_node_exactness(self, convex_ms):
        # stored triples reproduce bit for bit at grid coordinates
        assert convex_ms.evaluate(0.0, 1).as_tuple() == (0.2, 0.1, 0.5)
        assert convex_ms.evaluate(1.0, 1).as_tuple() == (0.6, 0.2, 0.1)
        assert convex_ms.evaluate(2.0, 1).as_tuple() == (0.3, 0.1, 0.4)

    def test_evaluate_midpoint(self, convex_ms):
        g = convex_ms.evaluate(0.5, 1)
        assert g.positive == pytest.approx(0.4, **APPROX)
        assert g.neutral == pytest.approx(0.15, **APPROX)
        assert g.negative == pytest.approx(0.3, **APPROX)

    def test_evaluate_constant_everywhere(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0), [[[0.3, 0.2, 0.1]]] * 3
        )
        for x in (0.0, 0.25, 1.1, 1.9, 2.0):
            g = ms.evaluate(x, 1)
            assert g.positive == pytest.approx(0.3, **APPROX)
            assert g.neutral == pytest.approx(0.2, **APPROX)
            assert g.negative == pytest.approx(0.1, **APPROX)

    def test_interpolation_closure_dense(self, deep_ms):
        # every interpolated triple revalidates; levels keep their order
        for i in range(101):
            x = i / 50.0 * 0.5
            g1 = deep_ms.evaluate(x, 1)
            g2 = deep_ms.evaluate(x, 2)
            total1 = g1.positive + g1.neutral + g1.negative
            total2 = g2.positive + g2.neutral + g2.negative
            assert total1 <= 1.0 + 1e-9 and total2 <= 1.0 + 1e-9
            assert g1.positive >= g2.positive - 1e-9

    def test_evaluate_domain_and_level_errors(self, convex_ms):
        with pytest.raises(OutOfDomain):
            convex_ms.evaluate(-0.5, 1)
        with pytest.raises(BadLevel):
            convex_ms.evaluate(0.5, 2)


# Input that real_array refuses takes the scalar path point by point.  The
# outcomes below were recorded from the per-point GradeSequence construction
# the library used before, as float64 bytes in hex or as an error, except for
# the malformed shapes (2-D, 1-D, 4 channels, 2-element triples): that
# construction let them escape as a bare TypeError, and they now raise
# LengthMismatch.  The iterator cases build as the tuples do: real_array
# measures every point and level before it reads any, so it leaves them
# unread for the scalar path.
_ROWS = [[[0.5, 0.25, 0.125]], [[0.1, 0.2, 0.3]]]
_ROWS_HEX = (
    "000000000000e03f000000000000d03f000000000000c03f"
    "9a9999999999b93f9a9999999999c93f333333333333d33f"
)
_FALLBACK_PINS = {
    "int64": (
        np.array([[[1, 0, 0]], [[0, 0, 1]]], dtype=np.int64),
        "000000000000f03f" + "0" * 64 + "000000000000f03f",
    ),
    "float32": (
        np.array(_ROWS, dtype=np.float32),
        "000000000000e03f000000000000d03f000000000000c03f"
        "000000a09999b93f000000a09999c93f000000403333d33f",
    ),
    "object": (np.array(_ROWS, dtype=object), _ROWS_HEX),
    "tuples": (tuple(tuple(map(tuple, point)) for point in _ROWS), _ROWS_HEX),
    "generator": (lambda: (point for point in _ROWS), _ROWS_HEX),
    "iterator points": (lambda: [iter(point) for point in _ROWS], _ROWS_HEX),
    "iterator levels": (lambda: [[iter(level) for level in point] for point in _ROWS], _ROWS_HEX),
    "bool": (
        np.array([[[False, False, False]], [[True, False, False]]]),
        (OutOfUnitInterval, "positive must be a real number, got False"),
    ),
    "no levels": (
        np.zeros((2, 0, 3)),
        (LengthMismatch, "a grade sequence needs at least one level"),
    ),
    "ragged": (
        [[[0.5, 0.25, 0.125]], [[0.4, 0.1, 0.1], [0.3, 0.1, 0.1]]],
        (RaggedDepth, "level counts differ across points: [1, 2]"),
    ),
    "ragged and rising": (
        [[[0.5, 0.25, 0.125]], [[0.1, 0.1, 0.1], [0.3, 0.1, 0.1]]],
        (PositiveOrderViolation, "positive channel must be nonincreasing across "
                                 "levels: level 1 has 0.1, level 2 has 0.3"),
    ),
    "float32 rising": (
        np.array([[[0.5, 0.0, 0.0], [0.25, 0.0, 0.0]],
                  [[0.05, 0.0, 0.0], [0.1, 0.0, 0.0]]], dtype=np.float32),
        (PositiveOrderViolation, "positive channel must be nonincreasing across "
                                 "levels: level 1 has 0.05000000074505806, "
                                 "level 2 has 0.10000000149011612"),
    ),
    "2-D": (
        np.array([[0.5, 0.25, 0.125], [0.1, 0.2, 0.3]]),
        (LengthMismatch, "level 1 must be three values (positive, neutral, negative), got 1"),
    ),
    "4 channels": (
        np.zeros((2, 1, 4)),
        (LengthMismatch, "level 1 must be three values (positive, neutral, negative), got 4"),
    ),
    "2-element triples": (
        [[[0.5, 0.25]], [[0.1, 0.2]]],
        (LengthMismatch, "level 1 must be three values (positive, neutral, negative), got 2"),
    ),
    "1-D": (
        np.array([0.5, 0.25]),
        (LengthMismatch, "level 1 must be three values (positive, neutral, negative), got 1"),
    ),
}


@pytest.mark.parametrize("name", list(_FALLBACK_PINS))
def test_input_real_array_refuses_builds_or_raises_as_pinned(name):
    values, expected = _FALLBACK_PINS[name]

    def build():
        return PictureFuzzyMultiset(
            DomainGrid((0.0, 1.0)), values() if callable(values) else values
        )

    if isinstance(expected, str):
        ms = build()
        assert ms.values.dtype == np.float64 and ms.values.shape == (2, 1, 3)
        assert ms.values.tobytes().hex() == expected
        assert not ms.values.flags.writeable
    else:
        with pytest.raises(PfmsError) as err:
            build()
        assert (type(err.value), str(err.value)) == expected


class TestIntsBeyondTheFloatRange:
    """float() refuses such ints with OverflowError; every check reports
    them with its own error, as the infinity they overflow to."""

    @pytest.mark.parametrize(
        "big", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
    )
    def test_unit_checks(self, big):
        with pytest.raises(OutOfUnitInterval) as refused:
            GradeTriple(big, 0, 0)
        sign = "-" if big < 0 else ""
        assert str(refused.value) == f"positive must lie in [0, 1], got {sign}inf"
        with pytest.raises(OutOfUnitInterval, match=f"t must lie in \\[0, 1\\], got {sign}inf"):
            CutThresholds(0, 0, big)
        with pytest.raises(OutOfUnitInterval):
            multiset_from_values((0.0,), [[[0.5, big, 0.0]]])

    def test_locate(self, convex_ms):
        with pytest.raises(OutOfDomain) as refused:
            convex_ms.evaluate(10**400, 1)
        assert str(refused.value) == "coordinate inf is not finite"
        with pytest.raises(OutOfDomain, match="coordinate -inf is not finite"):
            convex_ms.grid.locate(-(10**400))

    def test_grid(self):
        with pytest.raises(InvalidGrid) as refused:
            DomainGrid((0.0, 10**400))
        assert str(refused.value) == "grid coordinate inf is not finite"
        with pytest.raises(InvalidGrid, match="grid coordinate -inf is not finite"):
            multiset_from_values((-(10**400), 0.0), [[[0.5, 0.25, 0.25]]] * 2)
        assert DomainGrid((0, 2**1023)).points == (0.0, 2.0**1023)

    def test_region(self):
        with pytest.raises(MalformedRegion, match="reversed or not finite"):
            CutRegion(((0, 10**400),))


class TestIntsTooLongToPrint:
    """CPython refuses str() and repr() of an int beyond its digit limit
    (4,300 by default), so messages show such an int by its digit count;
    every shorter int prints as before."""

    def test_level(self, convex_ms):
        with pytest.raises(BadLevel) as refused:
            convex_ms.evaluate(0.5, 10**5000)
        assert str(refused.value) == "level <int of 5001 digits> outside 1..1"
        with pytest.raises(BadLevel, match=r"^level -<int of 4302 digits> outside"):
            convex_ms.channel_nodes("positive", -(10**4301))
        with pytest.raises(BadLevel, match=r"^level 10{399} outside 1\.\.1$"):
            convex_ms.evaluate(0.5, 10**399)

    def test_digit_count_at_powers_of_ten(self):
        from pfms.core import _shown

        for digits in (4301, 4302, 5001, 12345):
            assert _shown(10 ** (digits - 1)) == f"<int of {digits} digits>"
            assert _shown(10**digits - 1) == f"<int of {digits} digits>"
            assert _shown(-(10**digits) + 1) == f"-<int of {digits} digits>"
        assert _shown(10**300) == repr(10**300)
        assert _shown(0.5) == "0.5" and _shown(7, str) == "7"


class TestCutThresholds:
    def test_validation(self):
        thr = CutThresholds(0.4, 0.15, 0.2)
        assert (thr.r, thr.s, thr.t) == (0.4, 0.15, 0.2)
        with pytest.raises(OutOfUnitInterval):
            CutThresholds(1.4, 0.0, 0.0)

    def test_sum_convention_not_enforced(self):
        loose = CutThresholds(0.9, 0.5, 0.9)  # r + s + t = 2.3
        assert (loose.r, loose.s, loose.t) == (0.9, 0.5, 0.9)


class TestCutRegion:
    def test_touching_intervals_merge(self):
        region = CutRegion(((0.0, 1.0), (1.0, 2.0)))
        assert region.intervals == ((0.0, 2.0),)

    def test_disjoint_intervals_kept_sorted(self):
        region = CutRegion(((1.5, 2.0), (0.0, 1.0)))
        assert region.intervals == ((0.0, 1.0), (1.5, 2.0))

    def test_degenerate_point_interval(self):
        region = CutRegion(((1.0, 1.0),))
        assert region.intervals == ((1.0, 1.0),)

    @pytest.mark.parametrize("intervals, shown", [
        (((1.0,),), "(1.0,)"), (((1.0, 2.0, 3.0),), "(1.0, 2.0, 3.0)"), ((1.0, 2.0), "1.0"),
        # not a list of intervals at all: read as one interval, not a pair
        (5.0, "5.0"), (None, "None"),
    ])
    def test_intervals_must_be_pairs(self, intervals, shown):
        with pytest.raises(MalformedRegion) as refused:
            CutRegion(intervals)
        assert str(refused.value) == f"interval {shown} is not a pair of endpoints"

    def test_reversed_interval_rejected(self):
        bad_intervals = (
            (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)
        )
        for bad in bad_intervals:
            with pytest.raises(MalformedRegion):
                CutRegion((bad,))

    @pytest.mark.parametrize("pair", [
        (" 1 ", 2.0), (1.0, b"2"), (True, 1.5), (0, True), (None, 1.0), ("0", "1"),
    ])
    def test_endpoints_must_be_real_numbers(self, pair):
        odd = next(x for x in pair if isinstance(x, (str, bytes, bool)) or x is None)
        with pytest.raises(MalformedRegion) as refused:
            CutRegion(((0.0, 0.5), pair))
        assert str(refused.value) == f"interval endpoint {odd!r} is not a real number"

    def test_int_and_float_subclass_endpoints_convert(self):
        region = CutRegion(((np.float64(1.5), 2), (0, 1.0)))
        assert region.intervals == ((0.0, 1.0), (1.5, 2.0))
        assert all(type(x) is float for pair in region.intervals for x in pair)

    def test_empty_region(self):
        region = CutRegion(())
        assert region.intervals == ()


def _round_trip_objects():
    ms = multiset_from_values(
        [-1.0, -0.0, 0.5, 2.0],
        [[[0.5, 0.1, 0.2], [0.25, -0.0, 0.5]], [[0.2, 0.1, 0.6], [0.125, 0.0, 0.75]],
         [[0.6, 0.1, 0.1], [0.5, 0.25, 0.25]], [[0.1, 0.3, 0.4], [0.0, 0.5, 0.5]]],
    )
    return {
        "multiset": ms,
        "grid": ms.grid,
        "grade-triple": ms.evaluate(0.25, 2),
        "grade-field": pfms.convex_hull(ms),
        "convexity-report": pfms.is_convex_exact(ms),
        "sampled-report": pfms.is_convex_sampled(ms, pair_samples=0),
        "jensen-report": pfms.jensen_check(ms, [-1.0, 2.0], [0.5, 0.5], 1),
    }


@pytest.mark.parametrize("name", sorted(_round_trip_objects()))
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(name, how):
    obj = _round_trip_objects()[name]
    back = pickle.loads(pickle.dumps(obj)) if how == "pickle" else copy.deepcopy(obj)
    assert type(back) is type(obj) and back == obj and back is not obj
    assert repr(back) == repr(obj)
    pairs = [(obj, back)] + ([(obj.grid, back.grid)] if hasattr(obj, "grid") else [])
    for one, other in pairs:
        for attr in ("values", "mask", "coords"):
            if hasattr(one, attr):
                array, copied = getattr(one, attr), getattr(other, attr)
                assert copied.dtype == array.dtype and copied.tobytes() == array.tobytes()
                # read-only, as the constructors leave them
                assert copied.flags.writeable is False
                with pytest.raises(ValueError):
                    copied.flat[0] = 0.5
        if type(one).__hash__ is not None:
            assert hash(other) == hash(one)
    if isinstance(obj, GradeTriple):
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.positive = 0.0


def test_multiset_behaves_as_a_dataclass_of_grid_and_values():
    # evaluate reads a flat view of the grade array kept outside the
    # dataclass fields, so the generated methods see the grid and the
    # values only, and a copy rebuilds the view
    ms = _round_trip_objects()["multiset"]
    grid, values = ms.grid, ms.values
    assert [f.name for f in dataclasses.fields(ms)] == ["grid", "values"]
    as_dict, as_tuple = dataclasses.asdict(ms), dataclasses.astuple(ms)
    assert list(as_dict) == ["grid", "values"]
    assert repr(as_dict["grid"]) == repr(dataclasses.asdict(grid))
    assert repr(as_tuple[0]) == repr(dataclasses.astuple(grid))
    for copied in (as_dict["values"], as_tuple[1]):
        assert copied is not values and copied.tobytes() == values.tobytes()
    assert repr(ms) == f"PictureFuzzyMultiset(grid={grid!r}, values={values!r})"
    assert hash(ms) == hash((grid, values.shape, tuple(values.ravel().tolist())))
    assert not hasattr(ms, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ms.values = values
    xs = [*grid.points, -0.75, -0.0, 0.0, 0.25, 1.999999999999]
    for back in (pickle.loads(pickle.dumps(ms)), copy.deepcopy(ms), copy.copy(ms),
                 dataclasses.replace(ms)):
        assert back == ms and hash(back) == hash(ms) and repr(back) == repr(ms)
        for x, level in itertools.product(xs, (1, 2)):
            assert repr(back.evaluate(x, level)) == repr(ms.evaluate(x, level))


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(pfms.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(pfms.__all__) == len(set(pfms.__all__))
    assert sorted(pfms.__all__) == sorted(imported + ["__version__"])


def _annotation_names(tree):
    """Names read in string annotations, which ast keeps as constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for name in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_reads_each_name_it_imports():
    # the package's __init__ imports names only to export them
    modules = sorted(Path(pfms.__file__).parent.glob("*.py"))
    unread = []
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read.update(_annotation_names(tree))
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert len(modules) > 1 and unread == []


def test_every_private_module_name_is_read_in_the_package():
    # a module-level private function, class or constant that no module of
    # the package reads is dead code (tests do not count as readers)
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(pfms.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        read.update(_annotation_names(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}:{node.lineno} {name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    assert len(trees) > 1 and dead == []


def test_every_export_is_read_in_the_package():
    # an export that no module of the package reads outside its own
    # definition has only its tests as callers; __init__ only re-exports,
    # and a read from inside such an export does not count either
    tops = []  # (name defined, names read) per module-level statement
    for path in sorted(Path(pfms.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            names = set(_annotation_names(top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
            own = getattr(top, "name", None)
            tops.append((own, names - {own}))
    unread, before = set(), None
    while unread != before:
        before = unread
        read = set().union(*(names for own, names in tops if own not in unread))
        unread = set(pfms.__all__) - read - {"__version__"}
    assert sorted(unread) == []


def _export_classes() -> set[str]:
    """Names of the exported classes and of the package-private classes
    they inherit from, so that a member moved to a private base stays
    checked by the two tests below."""
    names = set(pfms.__all__)
    for name in pfms.__all__:
        names.update(base.__name__ for base in getattr(getattr(pfms, name), "__mro__", ())
                     if base.__module__.startswith("pfms.") and base.__name__.startswith("_"))
    return names


def test_every_public_member_of_an_export_is_read():
    # a public method or property of an exported class, or of a private
    # base of one, that nothing in the package or in perfbench reads as
    # an attribute, outside its own definition, has only its tests as
    # callers; members are matched by name, so a read of a namesake on
    # another class counts
    package = Path(pfms.__file__).parent
    perfbench = sorted((package.parents[1] / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) + perfbench]
    reads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    classes, unread = _export_classes(), []
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in classes):
                continue
            for member in cls.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    own = set(map(id, ast.walk(member)))
                    if not any(node.attr == member.name and id(node) not in own
                               for node in reads):
                        unread.append(f"{cls.name}.{member.name}")
    assert perfbench
    assert unread == []


def test_every_field_of_an_export_is_read():
    # an annotated field of an exported class, or of a private base of
    # one, that nothing in the package or in perfbench reads as an
    # attribute is carried for its tests alone; fields are matched by
    # name, as members are above
    package = Path(pfms.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted((package.parents[1] / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = _export_classes()
    unread = [f"{cls.name}.{field.target.id}"
              for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name in classes
              for field in cls.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and field.target.id not in read]
    assert any(path.parent.name == "perfbench" for path in paths)
    assert unread == []


def _evaluate_outcome(ms, x, level):
    try:
        return True, repr(ms.evaluate(x, level).as_tuple())
    except PfmsError:
        return False, None


@pytest.mark.parametrize(
    "points, levels",
    [
        # signed zeros at and between nodes, one of them the node -0.0
        ((-2.0, -0.0, 1.5), [[[0.5, -0.0, 0.25], [0.25, 0.0, -0.0]],
                             [[0.25, 0.5, -0.0], [-0.0, -0.0, 0.5]],
                             [[0.125, 0.0, 0.0], [0.0, 0.125, -0.0]]]),
        ((3.0,), [[[0.25, -0.0, 0.5]]]),
        # flat levels at the sum and range bounds: some blends round past them
        ((0.0, 1.0, 3.0), [[[0.45, 0.05, 0.5000000010000002]]] * 3),
        ((0.0, 1.0, 3.0), [[[1.0 + 1e-9, -1e-9, -0.0]]] * 3),
        # the span overflows, so the grid is refused
        ((-1.5e308, 1.5e308), [[[0.5, 0.25, 0.25]], [[0.25, 0.5, 0.25]]]),
        # lo minus the slack overflows: -inf must stay outside the domain
        ((-1.7976931348623157e308, -1e308), [[[0.5, 0.25, 0.25]], [[0.25, 0.5, 0.25]]]),
    ],
)
def test_evaluate_many_matches_evaluate(points, levels):
    # the array evaluation behind the sampled convexity check: the same
    # bits as evaluate at nodes, between them and at the slack edges, and
    # a failure exactly where evaluate raises
    if not math.isfinite(points[-1] - points[0]):
        # interpolation fractions would be NaN, so no query could succeed
        with pytest.raises(InvalidGrid, match="span"):
            multiset_from_values(points, levels)
        return
    ms = multiset_from_values(points, levels)
    lo, hi = ms.grid.lo, ms.grid.hi
    slack = TOL_X * max(1.0, abs(lo), abs(hi))
    xs = [*points, 0.0, -0.0, lo / 2, hi / 2, lo - slack / 2, hi + slack / 2,
          lo - 2 * slack, hi + 2 * slack, math.inf, -math.inf, math.nan]
    xs += [lo + (hi - lo) * i / 999 for i in range(1000)]
    grades, placed = ms._evaluate_many(np.array(xs))
    assert placed.shape == (len(xs),)
    for i, x in enumerate(xs):
        for k in range(ms.depth):
            got = repr(tuple(grades[i, k].tolist())) if placed[i] else None
            assert (bool(placed[i]), got) == _evaluate_outcome(ms, x, k + 1), (x, k)


def test_evaluate_returns_blends_that_round_past_the_sum_bound():
    # checked once at construction: a blend of two valid nodes is returned
    # as computed, though 88 of these sums round 1 ulp past the cap
    a = (0.2981919417804871, 0.673293969443177, 0.02851408977633607)
    b = (0.7854861716415126, 0.14307781977692424, 0.07143600958156326)
    ms = multiset_from_values([0, 1], [[a], [b]])
    past = 0
    for i in range(1, 1000):
        t = i / 1000
        got = ms.evaluate(t, 1).as_tuple()
        assert got == tuple((1.0 - t) * u + t * v for u, v in zip(a, b))
        past += (got[0] + got[1]) + got[2] > 1.0 + TOL_SUM
    assert past == 88


# Four levels: at the range bounds of the positive, neutral and negative
# channel in turn, so flat blends round past one bound of one channel, and
# one level that varies from point to point.
def _block_levels(i):
    return [[1.0 + 1e-9, -1e-9, -0.0], [0.5 - i / 16, i / 8 % 0.5, 0.25],
            [0.0, 1.0 + 1e-9, -1e-9], [-1e-9, -0.0, 1.0 + 1e-9]]


@pytest.mark.parametrize(
    "points",
    [(3.0,), (0.0, 2.5), (-2.0, -0.0, 1.5, 4.0), (-1.0, -0.5, 0.0, 0.25, 3.0)],
)
def test_evaluate_many_matches_evaluate_on_pair_blocks(points):
    # the 2-D blocks of the sampled check, one row per pair: keys repeat
    # (ties in the sorted search), nodes repeat, 0.0 and -0.0 both occur,
    # and rows come unsorted, sorted up and sorted down
    ms = multiset_from_values(points, [_block_levels(i) for i in range(len(points))])
    lo, hi = ms.grid.lo, ms.grid.hi
    inside = [lo + (hi - lo) * i / 249 for i in range(250)]
    keys = [*points, *points, 0.0, -0.0, -0.0, 0.0, *inside[::-1], *inside, *points]
    shuffled = keys[:]
    random.Random(4).shuffle(shuffled)
    xs = np.array([keys, sorted(keys), sorted(keys, reverse=True), shuffled])
    grades, placed = ms._evaluate_many(xs)
    assert grades.shape == xs.shape + (4, 3) and placed.shape == xs.shape
    for p, j in itertools.product(*map(range, xs.shape)):
        x = float(xs[p, j])
        for k in range(ms.depth):
            got = repr(tuple(grades[p, j, k].tolist())) if placed[p, j] else None
            assert (bool(placed[p, j]), got) == _evaluate_outcome(ms, x, k + 1), (x, k)
    if len(points) > 1:  # each bound level has blends that round past it,
        # returned above with evaluate's bits
        past = (grades > 1.0 + TOL_CMP) | (grades < -TOL_CMP)
        assert past[..., [0, 2, 3], :].any(axis=(0, 1, 3)).all()


# ---------------------------------------------------------------------------
# first_invalid_point checks an array of at most core._SCALAR_TRIPLES
# triples in one Python pass and a larger one in numpy passes.  Both must
# name the point at which per-point construction first raises, and builds
# on either side of the cutoff must raise the same error.

_UNIT_EDGES = [
    edge
    for bound in (-TOL_CMP, 1.0 + TOL_CMP)
    for edge in (bound, math.nextafter(bound, -2.0), math.nextafter(bound, 2.0))
]
_ODD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, *_UNIT_EDGES]
# 0.5 + 0.25 + (x - 0.75) sums to x exactly for x near one: these triples
# land on the sum bound and one ulp above it
_SUM_EDGE_NEGATIVES = [
    x - 0.75 for x in (1.0 + TOL_SUM, math.nextafter(1.0 + TOL_SUM, 2.0))
]


@st.composite
def _grade_arrays(draw, depth=None, points=None):
    """A valid (m, depth, 3) array, depth 1-8 and up to twice the scalar
    cutoff in triples, with up to four edits that put a value, a range, a
    sum or a level-order step on a tolerance edge or make it NaN or
    infinite."""
    if depth is None:
        depth = draw(st.integers(min_value=1, max_value=8))
    if points is None:
        points = draw(st.integers(1, 2 * core._SCALAR_TRIPLES // depth + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.uniform(0.0, 0.3, (points, depth, 3))
    arr[..., 0] = -np.sort(-arr[..., 0], axis=1)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(0, points - 1))
        k = draw(st.integers(0, depth - 1))
        kind = draw(st.sampled_from(["value", "alone", "sum", "order"]))
        if kind == "value":
            arr[i, k, draw(st.integers(0, 2))] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "alone":  # the odd value decides on its own
            arr[i, k] = [0.0, 0.0, 0.0]
            arr[i, k, draw(st.integers(0, 2))] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "sum":
            arr[i, k] = [0.5, 0.25, draw(st.sampled_from(_SUM_EDGE_NEGATIVES))]
        elif kind == "order" and k > 0:
            step = float(arr[i, k - 1, 0]) + TOL_CMP
            arr[i, k, 0] = draw(st.sampled_from([step, math.nextafter(step, 2.0)]))
    return arr


def _first_raising_point(arr):
    for i, per_point in enumerate(arr.tolist()):
        try:
            _frozen.point_grades(per_point)
        except PfmsError:
            return i
    return len(arr)


def _construct(arr):
    return PictureFuzzyMultiset(DomainGrid(tuple(map(float, range(len(arr))))), arr)


def _parse(arr):
    return parse_instance(json.dumps({
        "format_version": "1", "domain": list(range(len(arr))),
        "depth": arr.shape[1], "elements": arr.tolist(),
    }))


def _outcome(build, arr):
    try:
        ms = build(arr)
    except PfmsError as exc:
        return type(exc), str(exc)
    return None, ms.values.tobytes()


class TestScalarAndVectorisedValidation:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_grade_arrays())
    @example(np.full((1, 1, 3), -0.0))
    @example(np.array([[[0.5, 0.25, _SUM_EDGE_NEGATIVES[0]]]]))
    @example(np.array([[[0.5, 0.25, _SUM_EDGE_NEGATIVES[1]]]]))
    def test_both_branches_name_the_first_point_construction_rejects(self, arr):
        expected = _first_raising_point(arr)
        assert core.first_invalid_point(arr) == expected
        assert core._first_invalid_vectorised(arr) == expected

    def test_every_edge_value_in_every_slot(self):
        base = np.linspace(0.25, 0.0, 8)[None, :, None] * [1.0, 0.5, 0.25]
        for depth, odd, i, k, j, alone in itertools.product(
            (1, 2, 8), _ODD_VALUES, (0, 2), (0, -1), range(3), (False, True)
        ):
            arr = np.repeat(base[:, :depth], 3, axis=0)
            if alone:
                arr[i, k] = 0.0
            arr[i, k, j] = odd
            expected = _first_raising_point(arr)
            assert core.first_invalid_point(arr) == expected, (depth, odd, i, k, j)
            assert core._first_invalid_vectorised(arr) == expected, (depth, odd, i, k, j)

    def test_sum_and_order_steps_on_the_edge_and_one_ulp_past_it(self):
        for g, ok in zip(_SUM_EDGE_NEGATIVES, (True, False)):
            arr = np.array([[[0.25, 0.125, 0.0]], [[0.5, 0.25, g]]])
            assert core.first_invalid_point(arr) == core._first_invalid_vectorised(arr)
            assert core.first_invalid_point(arr) == (2 if ok else 1)
        step = 0.25 + TOL_CMP
        for p, ok in ((step, True), (math.nextafter(step, 2.0), False)):
            arr = np.array([[[0.5, 0.0, 0.0], [0.5, 0.0, 0.0]], [[0.25, 0.0, 0.0], [p, 0.0, 0.0]]])
            assert core.first_invalid_point(arr) == core._first_invalid_vectorised(arr)
            assert core.first_invalid_point(arr) == (2 if ok else 1)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_builds_just_below_and_above_the_cutoff_raise_alike(self, data):
        depth = data.draw(st.integers(min_value=1, max_value=8), label="depth")
        points = core._SCALAR_TRIPLES // depth
        below = data.draw(_grade_arrays(depth, points), label="below")
        # one valid point more takes the same table above the cutoff
        above = np.concatenate([below, np.full((1, depth, 3), 0.125)])
        assert below.size <= 3 * core._SCALAR_TRIPLES < above.size
        bad = _first_raising_point(below)
        for build in (_construct, _parse):
            (kind, got), (kind_above, got_above) = (_outcome(build, a) for a in (below, above))
            if bad == points:  # valid: the same values, then the added point
                assert kind is None and kind_above is None
                assert got == below.tobytes() and got_above.startswith(got)
                continue
            assert (kind, got) == (kind_above, got_above)
            with pytest.raises(PfmsError) as err:
                _frozen.point_grades(below[bad].tolist())
            assert kind is type(err.value)
            if build is _construct:
                assert got == str(err.value)
            else:  # the same error, with the entry's path in front
                assert got.startswith(f"elements[{bad}]") and got.endswith(f": {err.value}")
