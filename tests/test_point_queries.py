"""Point queries pinned bit for bit.

Every case below calls one public point query (locate, evaluate,
GradeTriple, jensen_check, hull_membership_test, GradeField.channel_at,
or a grid constructor).  Its outcome is recorded as the (type, repr) of
every result field, or as the error class and message, and compared with
``point_queries_pinned.json``.  That file was recorded from the plain
scalar implementation, before the fast paths in GradeTriple (since
removed) and DomainGrid.locate existed; it is evidence, not a snapshot
to regenerate when the test fails.  Messages quote numpy scalars as
numpy 2 prints them.

Inputs cover ints, bools and numpy scalars, NaN, infinities, -0.0,
coordinates at the slack edges of the domain and 1 ulp beyond them,
nodes, points outside the domain, and channel values and sums 1 ulp
either side of the TOL_CMP and TOL_SUM bounds.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from pfms import (
    CHANNELS,
    TOL_CMP,
    TOL_SUM,
    TOL_X,
    DomainGrid,
    GradeTriple,
    convex_hull,
    hull_membership_test,
    jensen_check,
    multiset_from_values,
)

PINNED = Path(__file__).with_name("point_queries_pinned.json")

_UP, _DOWN = math.inf, -math.inf
_HI = 1.0 + TOL_CMP  # the largest channel value accepted
_CAP = 1.0 + TOL_SUM  # the largest channel sum accepted


def _ulp(x, direction, steps=1):
    for _ in range(steps):
        x = math.nextafter(x, direction)
    return x


def _fields(out):
    """(type, repr) of every scalar in a result, dataclass fields in order."""
    if dataclasses.is_dataclass(out):
        return [_fields(getattr(out, f.name)) for f in dataclasses.fields(out)]
    if isinstance(out, tuple):
        return [_fields(v) for v in out]
    return [type(out).__name__, repr(out)]


def _record(call):
    try:
        out = call()
    except Exception as exc:  # the class and message are what is pinned
        return ["raises", type(exc).__name__, str(exc)]
    return ["returns", _fields(out)]


# Multisets the queries run on, by name: grid points and per-point levels.
_INSTANCES = {
    "plain": ((0.0, 1.0, 2.5), [
        [[0.5, -0.0, 0.25], [0.25, 0.0, -0.0]],
        [[0.75, 0.125, 0.0], [0.5, 0.25, 0.25]],
        [[0.25, 0.5, 0.125], [0.125, 0.375, 0.5]],
    ]),
    # the node -0.0 with signed zeros on every channel
    "signed-zero": ((-2.0, -0.0, 1.5), [
        [[0.5, -0.0, 0.25], [0.25, 0.0, -0.0]],
        [[0.25, 0.5, -0.0], [-0.0, -0.0, 0.5]],
        [[0.125, 0.0, 0.0], [0.0, 0.125, -0.0]],
    ]),
    "single": ((3.0,), [[[0.25, -0.0, 0.5]]]),
    # wide span: the slack scales with the largest coordinate magnitude
    "wide": ((-1e6, 0.0, 2e6), [
        [[0.1, 0.2, 0.3]], [[0.6, 0.1, 0.2]], [[0.2, 0.3, 0.4]],
    ]),
    # flat at the sum bound and at the range bounds: blends round past them
    "sum-edge": ((0.0, 1.0, 3.0), [[[0.45, 0.05, 0.5000000010000002]]] * 3),
    "range-edge": ((0.0, 1.0, 3.0), [[[1.0 + 1e-9, -1e-9, -0.0]]] * 3),
    "negative": ((-3.0, -1.0), [[[0.2, 0.3, 0.4]], [[0.7, 0.1, 0.1]]]),
}


def _coordinates(points):
    """Query coordinates for a grid with these points."""
    lo, hi = points[0], points[-1]
    slack = TOL_X * max(1.0, abs(lo), abs(hi))
    edge_lo, edge_hi = lo - slack, hi + slack
    xs = {
        "lo": lo, "hi": hi, "-0.0": -0.0, "0.0": 0.0,
        "edge-lo": edge_lo, "edge-hi": edge_hi,
        "edge-lo-1ulp-out": _ulp(edge_lo, _DOWN), "edge-hi-1ulp-out": _ulp(edge_hi, _UP),
        "edge-lo-1ulp-in": _ulp(edge_lo, _UP), "edge-hi-1ulp-in": _ulp(edge_hi, _DOWN),
        "half-slack-lo": lo - slack / 2, "half-slack-hi": hi + slack / 2,
        "lo-1ulp-out": _ulp(lo, _DOWN), "hi-1ulp-out": _ulp(hi, _UP),
        "below": lo - 1.0, "above": hi + 1.0,
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "int-lo": int(lo), "int-hi": int(hi), "int-out": int(hi) + 5,
        "true": True, "false": False,
        "np-float64-mid": np.float64((lo + hi) / 2), "np-float64-lo": np.float64(lo),
        "np-float64-nan": np.float64("nan"), "np-float32": np.float32(lo),
        "np-int64": np.int64(int(lo)), "str": "0.5", "none": None,
    }
    for i, x in enumerate(points):
        xs[f"node{i}"] = x
        if i:
            a = points[i - 1]
            xs[f"mid{i}"] = (a + x) / 2
            xs[f"third{i}"] = a + (x - a) / 3
            xs[f"node{i}-1ulp-left"] = _ulp(x, _DOWN)
    return xs


def _grade_triple_cases():
    lo_edge = -TOL_CMP
    values = {
        "0.5": 0.5, "0.0": 0.0, "-0.0": -0.0, "1.0": 1.0,
        "int0": 0, "int1": 1, "int2": 2, "int-1": -1, "true": True, "false": False,
        "np-float64": np.float64(0.25), "np-float64-big": np.float64(1.5),
        "np-float32": np.float32(0.25), "np-int64": np.int64(0),
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "lo-edge": lo_edge, "lo-edge-1ulp-out": _ulp(lo_edge, _DOWN),
        "lo-edge-1ulp-in": _ulp(lo_edge, _UP),
        "hi-edge": _HI, "hi-edge-1ulp-out": _ulp(_HI, _UP), "hi-edge-1ulp-in": _ulp(_HI, _DOWN),
        "str": "0.5", "none": None,
    }
    cases = {}
    for name, v in values.items():
        for slot in range(3):
            args = [0.0, 0.0, 0.0]
            args[slot] = v
            cases[f"slot{slot}={name}"] = tuple(args)
    # companions at the lower bound keep the sum in bound, so only the
    # range check can refuse a value past the upper one
    for name in ("hi-edge", "hi-edge-1ulp-out", "hi-edge-1ulp-in", "nan", "inf"):
        for slot in range(3):
            args = [lo_edge] * 3
            args[slot] = values[name]
            cases[f"slot{slot}={name}-others-lo-edge"] = tuple(args)
    # two bad channels: the first one in channel order is reported
    cases["bad-positive-and-negative"] = (2.0, 0.0, math.nan)
    cases["bad-neutral-and-negative"] = (0.0, True, -1.0)
    cases["bad-range-and-sum"] = (0.9, 0.9, 1.5)
    # sums at the TOL_SUM bound and 1 ulp either side, with the exact
    # expression p + n + g the check uses
    for p, n in ((0.5, 0.25), (0.75, 0.0), (0.3, 0.6), (1.0, 0.0), (0.0, 0.0)):
        for label, total in (("at", _CAP), ("1ulp-over", _ulp(_CAP, _UP)),
                             ("1ulp-under", _ulp(_CAP, _DOWN))):
            g = total - (p + n)
            assert p + n + g == total
            cases[f"sum-{label}-{p}-{n}"] = (p, n, g)
            cases[f"sum-{label}-{p}-{n}-rotated"] = (g, p, n)
    cases["sum-exact-one-ints"] = (1, 0, 0)
    cases["sum-over-ints"] = (1, 1, 0)
    cases["sum-at-cap-np"] = (np.float64(0.5), 0.25, _CAP - 0.75)
    return cases


def cases():
    """(name, zero-argument call) for every pinned query."""
    out = []
    for name, args in _grade_triple_cases().items():
        out.append((f"GradeTriple/{name}", lambda a=args: GradeTriple(*a)))
    out.append(("GradeTriple/keyword", lambda: GradeTriple(positive=0.5, neutral=0.25, negative=0.25)))

    for grid_name, (points, levels) in _INSTANCES.items():
        out += _instance_cases(grid_name, points, levels)

    grids = {
        "empty": [], "nan": [0.0, math.nan], "inf": [-math.inf, 0.0],
        "duplicate": [0.0, 1.0, 1.0], "within-tol": [0.0, TOL_X],
        "just-over-tol": [0.0, _ulp(TOL_X, _UP)], "decreasing": [1.0, 0.0],
        "ints": [0, 1, 2], "bools": [False, True], "np": [np.float64(0.5), 2],
        "signed-zero": [-1.0, -0.0], "nan-after-duplicate": [0.0, 0.0, math.nan],
        "str": ["0.5", "1.5"], "bad-str": ["x"],
    }
    for name, pts in grids.items():
        out.append((f"DomainGrid/{name}", lambda p=pts: DomainGrid(p).points))
    return out


def _instance_cases(grid_name, points, levels):
    """Queries on one multiset: every coordinate, level and weight case."""
    out = []
    ms = multiset_from_values(points, levels)
    depth = ms.depth
    xs = _coordinates(points)
    for i, (xname, x) in enumerate(xs.items()):
        out.append((f"locate/{grid_name}/{xname}", lambda g=ms.grid, x=x: g.locate(x)))
        level = (1, depth)[i % 2]  # levels and channels taken in turn
        out.append((f"evaluate/{grid_name}/{xname}/level{level}",
                    lambda x=x, level=level, ms=ms: ms.evaluate(x, level)))
    for lname, level in (("0", 0), ("over", depth + 1), ("-1", -1), ("true", True),
                         ("float", 1.0), ("np-int64", np.int64(1)), ("str", "1")):
        out.append((f"evaluate/{grid_name}/level-{lname}",
                    lambda level=level, ms=ms: ms.evaluate(points[0], level)))
    # a bad level is reported before a bad coordinate
    out.append((f"evaluate/{grid_name}/bad-level-and-coordinate",
                lambda ms=ms: ms.evaluate(math.nan, 0)))

    lo, hi = points[0], points[-1]
    mid = (lo + hi) / 2
    point_sets = {
        "ends": [lo, hi],
        "ints": [int(lo), int(hi)],
        "np-and-int": [np.float64(mid), int(lo)],
        "edges": [xs["edge-lo"], xs["edge-hi"]],
        "edge-out": [xs["edge-lo-1ulp-out"], hi],
        "signed-zero": [-0.0, lo] if lo <= 0.0 <= hi else [lo, -0.0],
        "three": [lo, mid, hi],
        "single": [mid],
        "nan": [math.nan, hi],
        "inf": [lo, math.inf],
        "bool": [True, hi],
        "nodes": list(points),
    }
    weight_sets = {
        1: {"one": (1.0,), "int": (1,)},
        2: {"halves": (0.5, 0.5), "ints": (1, 0), "uneven": (0.25, 0.75),
            "np": (np.float64(0.5), 0.5), "bad-sum": (0.5, 0.6),
            "bool": (True, False), "nan": (math.nan, 0.5)},
        3: {"thirds": (1 / 3, 1 / 3, 1 / 3), "mixed": (0.5, 0, 0.5)},
    }
    for pname, pts in point_sets.items():
        for i, (wname, ws) in enumerate(weight_sets[len(pts)].items()):
            level = (depth, 1)[i % 2]
            key = f"{grid_name}/{pname}/{wname}/level{level}"
            out.append((f"jensen_check/{key}",
                        lambda p=pts, w=ws, level=level, ms=ms: jensen_check(ms, p, w, level)))
            out.append((f"hull_membership_test/{key}",
                        lambda p=pts, w=ws, level=level, ms=ms:
                        hull_membership_test(ms, p, w, level)))
    out.append((f"jensen_check/{grid_name}/length-mismatch",
                lambda ms=ms: jensen_check(ms, [lo, hi], [1.0], 1)))
    out.append((f"jensen_check/{grid_name}/level0",
                lambda ms=ms: jensen_check(ms, [lo, hi], [0.5, 0.5], 0)))
    out.append((f"hull_membership_test/{grid_name}/level-over",
                lambda ms=ms: hull_membership_test(ms, [lo], [1.0], depth + 1)))

    field = convex_hull(ms)
    for i, (xname, x) in enumerate(xs.items()):
        channel, level = CHANNELS[i % 3], (depth, 1)[i % 2]
        out.append((f"channel_at/{grid_name}/{channel}/level{level}/{xname}",
                    lambda c=channel, level=level, x=x, f=field: f.channel_at(c, level, x)))
    out.append((f"channel_at/{grid_name}/unknown-channel",
                lambda f=field: f.channel_at("refusal", 1, lo)))
    return out


def _outcomes():
    table = cases()
    assert len({name for name, _ in table}) == len(table)
    return {name: _record(call) for name, call in table}


# Grids refuse bools and strings by check_unit's rule since the file was
# recorded (the scalar implementation built the first two and let the last
# escape as a ValueError); these cases now raise InvalidGrid.
_REFUSED_SINCE_RECORDED = {
    "DomainGrid/bools": ("returns", "grid coordinate False is not a real number"),
    "DomainGrid/str": ("returns", "grid coordinate '0.5' is not a real number"),
    "DomainGrid/bad-str": ("raises", "grid coordinate 'x' is not a real number"),
}


# Point queries return blends of checked nodes unchecked since the file
# was recorded (the scalar implementation re-checked them and refused a
# sum that rounds 1 ulp past its bound); these cases now return.
_SUM_EDGE_BLEND = [["float", "0.45000000000000007"], ["float", "0.05"],
                   ["float", "0.5000000010000002"]]
_ANSWERED_SINCE_RECORDED = {
    "evaluate/sum-edge/third1/level1": _SUM_EDGE_BLEND,
    "jensen_check/sum-edge/edges/uneven/level1": [
        ["bool", "True"], ["int", "1"], ["float", "2.2500000000014997"], _SUM_EDGE_BLEND,
        [["float", "5.551115123125783e-17"], ["float", "0.0"], ["float", "0.0"]],
    ],
}


def test_point_queries_pinned():
    expected = json.loads(PINNED.read_text())
    for name, (recorded, message) in _REFUSED_SINCE_RECORDED.items():
        assert expected[name][0] == recorded
        expected[name] = ["raises", "InvalidGrid", message]
    refused = "positive+neutral+negative = 1.0000000010000003 exceeds 1"
    for name, fields in _ANSWERED_SINCE_RECORDED.items():
        assert expected[name] == ["raises", "SumExceedsOne", refused]
        expected[name] = ["returns", fields]
    got = _outcomes()
    assert sorted(got) == sorted(expected)
    wrong = [name for name in expected if got[name] != expected[name]]
    assert not wrong, [(name, expected[name], got[name]) for name in wrong[:5]]


def test_grade_triple_converts_numpy_scalars_to_float():
    t = GradeTriple(np.float64(0.5), 0, 0)
    assert type(t.positive) is float
    assert type(t.neutral) is float and type(t.negative) is float
