import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfms import (
    TOL_CMP,
    TOL_SUM,
    GeneratorConfig,
    GradeSequence,
    GradeTriple,
    InstanceSyntaxError,
    PfmsError,
    PositiveOrderViolation,
    SchemaError,
    SumExceedsOne,
    emit_instance,
    gen_pfms,
    instance_document,
    instance_from_document,
    multiset_from_values,
    parse_instance,
)

WORKED_DOCUMENT = (
    '{"format_version":"1","domain":[0,1,2],"depth":1,'
    '"elements":[[[0.2,0.1,0.5]],[[0.6,0.2,0.1]],[[0.3,0.1,0.4]]]}'
)


class TestParse:
    def test_worked_document(self, convex_ms):
        assert parse_instance(WORKED_DOCUMENT) == convex_ms

    def test_syntax_error_carries_position(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance('{"format_version": "1",\n  "domain": [0, 1,,]}')
        assert err.value.line == 2
        assert err.value.column > 0

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_instance("[1, 2, 3]")

    def test_unknown_field_rejected(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["comment"] = "hello"
        with pytest.raises(SchemaError, match="comment"):
            instance_from_document(doc)

    def test_missing_field_rejected(self):
        doc = json.loads(WORKED_DOCUMENT)
        del doc["depth"]
        with pytest.raises(SchemaError, match="depth"):
            instance_from_document(doc)

    def test_format_version_checked(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["format_version"] = "2"
        with pytest.raises(SchemaError, match="format_version"):
            instance_from_document(doc)

    def test_depth_mismatch_points_at_element(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["elements"][1] = [[0.6, 0.2, 0.1], [0.5, 0.2, 0.1]]
        with pytest.raises(SchemaError, match=r"elements\[1\]"):
            instance_from_document(doc)

    def test_element_count_must_match_domain(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["elements"].pop()
        with pytest.raises(SchemaError, match="elements"):
            instance_from_document(doc)

    def test_triple_arity_checked(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["elements"][0][0] = [0.2, 0.1]
        with pytest.raises(SchemaError, match=r"elements\[0\]\[0\]"):
            instance_from_document(doc)

    def test_booleans_are_not_numbers(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["elements"][0][0] = [True, 0.1, 0.5]
        with pytest.raises(SchemaError):
            instance_from_document(doc)
        doc = json.loads(WORKED_DOCUMENT)
        doc["domain"] = [0, 1, "two"]
        with pytest.raises(SchemaError, match=r"domain\[2\]"):
            instance_from_document(doc)

    def test_core_error_carries_element_path(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["elements"][0][0] = [0.6, 0.3, 0.3]
        with pytest.raises(SumExceedsOne, match=r"elements\[0\]\[0\]"):
            instance_from_document(doc)

    def test_bad_domain_reported_with_path(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["domain"] = [0, 0, 1]
        doc["elements"] = [[[0.1, 0.1, 0.1]]] * 3
        with pytest.raises(Exception, match="domain"):
            instance_from_document(doc)

    def test_depth_validation(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["depth"] = 0
        with pytest.raises(SchemaError, match="depth"):
            instance_from_document(doc)
        doc["depth"] = True
        with pytest.raises(SchemaError, match="depth"):
            instance_from_document(doc)


class TestEmit:
    def test_document_shape(self, convex_ms):
        doc = instance_document(convex_ms)
        assert doc["format_version"] == "1"
        assert doc["domain"] == [0.0, 1.0, 2.0]
        assert doc["depth"] == 1
        assert doc["elements"][1] == [[0.6, 0.2, 0.1]]

    def test_round_trip_bit_exact(self, convex_ms, deep_ms):
        for ms in (convex_ms, deep_ms):
            assert parse_instance(emit_instance(ms)) == ms

    def test_round_trip_awkward_floats(self):
        ms = multiset_from_values(
            (0.0, 1.0 / 3.0, 0.7000000000000001),
            [
                [[1.0 / 7.0, 0.1 + 0.2, 1e-17]],
                [[0.5500000000000001, 0.0, 0.3]],
                [[2**-30, 1.0 - 2**-30, 0.0]],
            ],
        )
        assert parse_instance(emit_instance(ms)) == ms

    def test_round_trip_generated(self):
        for seed in range(10):
            ms = gen_pfms(GeneratorConfig(seed=seed, grid_size=6, depth=3))
            assert parse_instance(emit_instance(ms)) == ms

    def test_emitted_text_is_compact_json(self, convex_ms):
        text = emit_instance(convex_ms)
        assert "\n" not in text and ": " not in text
        assert json.loads(text) == instance_document(convex_ms)


# ---------------------------------------------------------------------------
# Differential validation: the vectorised check accepts a table exactly when
# per-element GradeTriple/GradeSequence construction does, and otherwise
# raises what that construction raises at the first bad element.

_SUM_BOUND = 1.0 + TOL_SUM
# 0.5 + 0.25 + (x - 0.75) sums to x exactly for x near one, so these triples
# land on the sum bound and one ulp to either side of it.
_SUM_EDGES = [
    x - 0.75
    for x in (_SUM_BOUND, math.nextafter(_SUM_BOUND, 2.0), math.nextafter(_SUM_BOUND, 0.0))
]
_RANGE_EDGES = [
    edge
    for bound in (-TOL_CMP, 1.0 + TOL_CMP)
    for edge in (bound, math.nextafter(bound, -2.0), math.nextafter(bound, 2.0))
]
_HOSTILE = [
    math.nan, math.inf, -math.inf, -0.0, True, "0.5", None, 10**400,
    np.float64(0.25), np.float64(1.5), 1, 0,
]
_small = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)


@st.composite
def _grade_tables(draw):
    """A valid table values[point][level] with up to three edits that put
    a value, a range, a sum or a level-order step on a tolerance edge,
    drop a component or insert a hostile value."""
    m = draw(st.integers(min_value=1, max_value=4))
    depth = draw(st.integers(min_value=1, max_value=3))
    table = []
    for _ in range(m):
        positives = sorted((draw(_small) for _ in range(depth)), reverse=True)
        table.append([[p, draw(_small), draw(_small)] for p in positives])
    odd = st.sampled_from(_RANGE_EDGES + _HOSTILE)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        k = draw(st.integers(min_value=0, max_value=depth - 1))
        kind = draw(st.sampled_from(["value", "alone", "range", "sum", "order", "arity"]))
        if kind == "value":
            j = draw(st.integers(min_value=0, max_value=len(table[i][k]) - 1))
            table[i][k][j] = draw(odd)
        elif kind == "alone":  # the odd value decides on its own
            table[i][k] = [draw(odd), 0.0, 0.0]
        elif kind == "range":  # in range exactly when both edges are
            table[i][k] = [0.0, draw(st.sampled_from(_RANGE_EDGES[:3])),
                           draw(st.sampled_from(_RANGE_EDGES[3:]))]
        elif kind == "sum":
            table[i][k] = [0.5, 0.25, draw(st.sampled_from(_SUM_EDGES))]
        elif kind == "order" and k > 0 and type(table[i][k - 1][0]) is float:
            step = table[i][k - 1][0] + TOL_CMP
            table[i][k][0] = draw(
                st.sampled_from([step, math.nextafter(step, 2.0), math.nextafter(step, -2.0)])
            )
        elif kind == "arity":
            table[i][k] = table[i][k][:2]
    return table


def _first_point_error(table):
    """Class and message of per-point construction's first error."""
    for per_point in table:
        try:
            GradeSequence(tuple(GradeTriple(*level) for level in per_point))
        except Exception as exc:  # TypeError and OverflowError included
            return type(exc), str(exc)
    return None


def _first_entry_error(table):
    """Class and message the per-entry document checks give first."""
    for i, entry in enumerate(table):
        levels = []
        for k, raw in enumerate(entry):
            path = f"elements[{i}][{k}]"
            if len(raw) != 3:
                return SchemaError, f"{path}: expected [positive, neutral, negative]"
            for j, v in enumerate(raw):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    return SchemaError, f"{path}[{j}]: expected a number, got {v!r}"
                try:
                    float(v)
                except OverflowError:
                    return SchemaError, f"{path}[{j}]: integer too large for a float"
            try:
                levels.append(GradeTriple(*(float(v) for v in raw)))
            except PfmsError as exc:
                return type(exc), f"{path}: {exc}"
        try:
            GradeSequence(tuple(levels))
        except PfmsError as exc:
            return type(exc), f"elements[{i}]: {exc}"
    return None


def _bits(table):
    return [[[float(v).hex() for v in level] for level in per_point] for per_point in table]


def _assert_same_outcome(build, table, expected):
    if expected is None:
        assert _bits(build().values.tolist()) == _bits(table)
    else:
        with pytest.raises(Exception) as err:
            build()
        assert (type(err.value), str(err.value)) == expected


def _check_values(table):
    points = [float(i) for i in range(len(table))]
    _assert_same_outcome(
        lambda: multiset_from_values(points, table), table, _first_point_error(table)
    )


def _check_document(table):
    doc = {
        "format_version": "1",
        "domain": list(range(len(table))),
        "depth": len(table[0]),
        "elements": table,
    }
    _assert_same_outcome(
        lambda: instance_from_document(doc), table, _first_entry_error(table)
    )


class TestDifferentialValidation:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_grade_tables())
    def test_values_match_per_point_construction(self, table):
        _check_values(table)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_grade_tables())
    def test_documents_match_per_entry_checks(self, table):
        _check_document(table)

    def test_every_edge_and_hostile_value_in_every_slot(self):
        base = [[[0.3, 0.1, 0.2], [0.2, 0.1, 0.1]], [[0.25, 0.2, 0.1], [0.1, 0.3, 0.3]]]
        for odd in _RANGE_EDGES + _SUM_EDGES + _HOSTILE:
            for i, k, j in itertools.product(range(2), range(2), range(3)):
                for alone in (False, True):
                    table = copy.deepcopy(base)
                    if alone:
                        table[i][k] = [0.0, 0.0, 0.0]
                    table[i][k][j] = odd
                    _check_values(table)
                    _check_document(table)

    def test_order_violation_reported_before_later_type_error(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["depth"] = 2
        doc["elements"] = [
            [[0.5, 0.1, 0.1], [0.4, 0.1, 0.1]],
            [[0.3, 0.1, 0.1], [0.5, 0.1, 0.1]],
            [[0.5, True, 0.1], [0.4, 0.1, 0.1]],
        ]
        with pytest.raises(PositiveOrderViolation, match=r"^elements\[1\]: "):
            instance_from_document(doc)
