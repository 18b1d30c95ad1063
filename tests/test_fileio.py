import copy
import gc
import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _frozen
from pfms import (
    TOL_CMP,
    TOL_SUM,
    GeneratorConfig,
    GradeTriple,
    InstanceSyntaxError,
    LengthMismatch,
    PfmsError,
    PositiveOrderViolation,
    InvalidGrid,
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
        doc["format_version"] = 10**5000  # too long for CPython to print
        with pytest.raises(SchemaError, match=r"got <int of 5001 digits>$"):
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
        doc["depth"] = -(10**5000)  # too long for CPython to print
        with pytest.raises(SchemaError) as err:
            instance_from_document(doc)
        assert str(err.value) == (
            "depth: expected a positive integer, got -<int of 5001 digits>"
        )

    @pytest.mark.parametrize("where", ["depth", "domain", "elements"])
    def test_integer_literal_over_the_digit_limit(self, where):
        # json.loads refuses int literals over 4,300 digits with ValueError
        long = "1" + "0" * 5000
        text = {
            "depth": WORKED_DOCUMENT.replace('"depth":1', f'"depth":{long}'),
            "domain": WORKED_DOCUMENT.replace('"domain":[0,', f'"domain":[{long},'),
            "elements": WORKED_DOCUMENT.replace("[[[0.2,", f"[[[{long},"),
        }[where]
        with pytest.raises(SchemaError) as err:
            parse_instance(text)
        assert err.value.path == "$"
        assert "5001 digits" in str(err.value)


# Domain coordinates are checked with one type scan; any bad coordinate is
# re-checked one by one.  Class and message as recorded before the scan.
_DOMAIN_ERRORS = {
    "true": ([0, True, 2], SchemaError, "domain[1]: expected a number, got True"),
    "string": ([0, 1, "two"], SchemaError, "domain[2]: expected a number, got 'two'"),
    "null": ([None, 1, 2], SchemaError, "domain[0]: expected a number, got None"),
    "400 digits": ([0, 1, int("9" * 400)], SchemaError,
                   "domain[2]: integer too large for a float"),
    "400 digits first": ([-int("9" * 400), "x", 2], SchemaError,
                         "domain[0]: integer too large for a float"),
    "nan": ([0, math.nan, 2], InvalidGrid, "domain: grid coordinate nan is not finite"),
    "repeated": ([0, 1, 1], InvalidGrid,
                 "domain: grid coordinates must increase strictly: 1.0 then 1.0"),
}


class TestDomain:
    @pytest.mark.parametrize("name", list(_DOMAIN_ERRORS))
    def test_errors_keep_class_message_and_path(self, name):
        domain, cls, message = _DOMAIN_ERRORS[name]
        doc = json.loads(WORKED_DOCUMENT)
        doc["domain"] = domain
        with pytest.raises(PfmsError) as err:
            instance_from_document(doc)
        assert (type(err.value), str(err.value)) == (cls, message)

    def test_bad_coordinate_reported_before_bad_element(self):
        doc = json.loads(WORKED_DOCUMENT)
        doc["domain"] = [0, "x", 2]
        doc["elements"][2][0][0] = True
        with pytest.raises(SchemaError) as err:
            instance_from_document(doc)
        assert str(err.value) == "domain[1]: expected a number, got 'x'"

    def test_ints_floats_and_subclasses_give_the_same_grid(self):
        class Coordinate(float):
            pass

        doc = json.loads(WORKED_DOCUMENT)
        for domain in ([0, 1, 2], [0.0, 1.0, 2.0], [Coordinate(0), 1, 2.0]):
            doc["domain"] = domain
            points = instance_from_document(doc).grid.points
            assert [type(x) for x in points] == [float] * 3
            assert points == (0.0, 1.0, 2.0)


_AWKWARD_MS = multiset_from_values(
    (0.0, 1.0 / 3.0, 0.7000000000000001),
    [
        [[1.0 / 7.0, 0.1 + 0.2, 1e-17]],
        [[0.5500000000000001, 0.0, 0.3]],
        [[2**-30, 1.0 - 2**-30, 0.0]],
    ],
)
_SIGNED_ZERO_MS = multiset_from_values(
    (-1.0, -0.0, 1.0), [[[0.3, -0.0, 0.2]], [[-0.0, 0.1, 0.0]], [[0.2, 0.0, -0.0]]]
)
# grades that repr writes in exponent form
_EXPONENT_GRADES_MS = multiset_from_values(
    (0.0, 1.0, 2.0),
    [[[5e-324, 1e-05, 2.5e-07]], [[2.5e-07, 5e-324, 1e-05]], [[1e-05, 2.5e-07, 5e-324]]],
)
# coordinates of 1e16 and above, which repr also writes in exponent form
_LARGE_DOMAIN_MS = multiset_from_values(
    (1e16, 1.0000000000000002e16, 3e17, 1e22, 1.7976931348623157e308),
    [[[0.2, 0.1, 0.5]]] * 5,
)
_INTEGRAL_MS = multiset_from_values(
    (-3.0, 0.0, 2.0, 9007199254740992.0),
    [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]], [[0.0, 0.0, 0.0]]],
)


def _random_ms(m: int, depth: int, seed: int):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 0.3, size=(m, depth, 3))
    values[:, :, 0] = -np.sort(-values[:, :, 0], axis=1)  # positives non-increasing
    return multiset_from_values(np.cumsum(rng.uniform(0.01, 1.0, size=m)).tolist(), values)


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
        assert parse_instance(emit_instance(_AWKWARD_MS)) == _AWKWARD_MS

    def test_round_trip_generated(self):
        for seed in range(10):
            ms = gen_pfms(GeneratorConfig(seed=seed, grid_size=6, depth=3))
            assert parse_instance(emit_instance(ms)) == ms

    def test_emitted_text_is_compact_json(self, convex_ms):
        text = emit_instance(convex_ms)
        assert "\n" not in text and ": " not in text
        assert json.loads(text) == instance_document(convex_ms)


# ---------------------------------------------------------------------------
# Parse and emit pause CPython's cyclic collector and restore its state.

_FAILING_TEXTS = {
    "syntax": (InstanceSyntaxError, '{"format_version": "1",'),
    "too deep": (SchemaError, "[" * 100_000),
    "schema": (SchemaError, WORKED_DOCUMENT.replace('"depth":1', '"depth":0')),
    "grade": (SumExceedsOne,
              WORKED_DOCUMENT.replace("[[0.2,0.1,0.5]]", "[[0.6,0.3,0.3]]")),
    "long integer": (SchemaError,
                     WORKED_DOCUMENT.replace('"depth":1', '"depth":1' + "0" * 5000)),
}


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def large_ms():
    return _random_ms(20_000, 2, seed=5)


def _collections_during(fn):
    """Generations of the collections that start while ``fn`` runs."""
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()  # so that no collection is already due
    gc.callbacks.append(note)
    try:
        fn()
    finally:
        gc.callbacks.remove(note)
    return starts


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored_on_success(self, collector_state, convex_ms, enabled):
        (gc.enable if enabled else gc.disable)()
        text = emit_instance(convex_ms)
        assert gc.isenabled() is enabled
        assert parse_instance(text) == convex_ms
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("name", list(_FAILING_TEXTS))
    def test_state_restored_on_every_error(self, collector_state, name, enabled):
        cls, text = _FAILING_TEXTS[name]
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(cls):
            parse_instance(text)
        assert gc.isenabled() is enabled

    def test_overlapping_calls_in_threads_leave_it_on(self, collector_state, deep_ms):
        # the switch is process-wide: a pause per call, each restoring the
        # state it saw on entry, can leave the collector off after
        # overlapping calls (one thread sees it off while another pauses)
        gc.enable()
        text = emit_instance(deep_ms)
        errors = []

        def work():
            try:
                for _ in range(200):
                    assert parse_instance(emit_instance(deep_ms)) == deep_ms
                    parse_instance(text)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert gc.isenabled()

    def test_no_collection_during_large_parse_or_emit(self, collector_state, large_ms):
        text = emit_instance(large_ms)
        assert _collections_during(lambda: emit_instance(large_ms)) == []
        assert _collections_during(lambda: parse_instance(text)) == []
        # the same work unpaused does start collections, so the check bites
        assert _collections_during(lambda: json.dumps(instance_document(large_ms)))

    @pytest.mark.parametrize(
        "ms",
        [gen_pfms(GeneratorConfig(seed=3, grid_size=9, depth=4)), _AWKWARD_MS,
         _SIGNED_ZERO_MS, _EXPONENT_GRADES_MS, _LARGE_DOMAIN_MS, _INTEGRAL_MS,
         _random_ms(10_000, 3, seed=32)],
        ids=["generated", "awkward", "signed-zero", "exponent-grades", "large-domain",
             "integral", "random-1e4-depth-3"],
    )
    def test_emit_is_compact_json_dumps(self, ms):
        # emit skips the encoder's cycle check; the default, checking
        # json.dumps must write the same bytes
        text = emit_instance(ms)
        assert text == json.dumps(instance_document(ms), separators=(",", ":"))
        assert parse_instance(text) == ms


# ---------------------------------------------------------------------------
# Differential validation: the vectorised check accepts a table exactly when
# per-element GradeTriple/GradeSequence construction (the frozen copy in
# _frozen.py) does, and otherwise raises what that construction raises at
# the first bad element.

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
    """Class and message of per-point construction's first error.  That
    construction let a level of other than three values escape as a
    TypeError from GradeTriple; the library raises LengthMismatch there."""
    for per_point in table:
        try:
            _frozen.GradeSequence(tuple(GradeTriple(*level) for level in per_point))
        except TypeError:
            k, level = next((k, lv) for k, lv in enumerate(per_point, 1) if len(lv) != 3)
            return LengthMismatch, (
                f"level {k} must be three values (positive, neutral, negative), "
                f"got {len(level)}"
            )
        except Exception as exc:  # OverflowError included
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
            _frozen.GradeSequence(tuple(levels))
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
