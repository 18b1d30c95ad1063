import functools
import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from pfms import (
    CutRegion,
    GeneratorConfig,
    GradeTriple,
    TOL_SUM,
    convex_combination,
    gen_pfms,
    includes,
    intersection,
    multiset_from_values,
    union,
)
from pfms.convexity import _majorant, _worst_dip
from pfms.lab import _dips, _least_unimodal_by_search, _profile

settings.register_profile("suite", settings(derandomize=True, max_examples=100))
settings.load_profile("suite")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


@st.composite
def triples(draw):
    a = draw(unit)
    b = draw(unit)
    c = draw(unit)
    total = a + b + c
    if total > 1.0:
        a, b, c = a / total, b / total, c / total
    return GradeTriple(min(a, 1.0), min(b, 1.0), min(c, 1.0))


@st.composite
def small_instances(draw):
    cfg = GeneratorConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        grid_size=draw(st.integers(min_value=1, max_value=9)),
        depth=draw(st.integers(min_value=1, max_value=3)),
    )
    return gen_pfms(cfg)


@st.composite
def aligned_pairs(draw):
    grid = draw(st.integers(min_value=1, max_value=7))
    depth = draw(st.integers(min_value=1, max_value=3))
    sa = draw(st.integers(min_value=0, max_value=2**31))
    sb = draw(st.integers(min_value=0, max_value=2**31))
    a = gen_pfms(GeneratorConfig(seed=sa, grid_size=grid, depth=depth))
    b = gen_pfms(GeneratorConfig(seed=sb, grid_size=grid, depth=depth))
    b_on_a = multiset_from_values(a.grid.points, b.values.tolist())
    return a, b_on_a


def valid_instance(ms):
    for seq in ms.values.tolist():
        previous = None
        for t in seq:
            assert 0.0 <= min(t) and max(t) <= 1.0
            assert math.fsum(t) <= 1.0 + TOL_SUM
            if previous is not None:
                assert t[0] <= previous + 1e-9
            previous = t[0]


class TestTripleClosure:
    @given(triples())
    def test_generated_triples_are_valid(self, t):
        assert -TOL_SUM <= math.fsum(t.as_tuple()) <= 1.0 + TOL_SUM


class TestAlgebraClosure:
    @given(aligned_pairs())
    def test_union_intersection_closed_and_commutative(self, pair):
        a, b = pair
        for op in (union, intersection):
            left = op(a, b)
            valid_instance(left)
            assert left == op(b, a)

    @given(aligned_pairs(), unit)
    def test_convex_combination_closed(self, pair, lam):
        a, b = pair
        mixed = convex_combination(a, b, lam)
        valid_instance(mixed)

    @given(aligned_pairs())
    def test_lattice_bounds(self, pair):
        a, b = pair
        assert includes(intersection(a, b), union(a, b))
        assert includes(intersection(a, b), a)
        assert includes(intersection(a, b), b)
        # Union is not an upper bound in the inclusion order: its neutral
        # channel is the pointwise minimum.  Only the positive and negative
        # channels are ordered against the operands.
        u = union(a, b)
        for i in range(a.size):
            for k in range(a.depth):
                assert u.values[i, k, 0] >= a.values[i, k, 0]
                assert u.values[i, k, 2] <= a.values[i, k, 2]

    @given(small_instances())
    def test_includes_is_reflexive(self, ms):
        assert includes(ms, ms)

    @given(aligned_pairs())
    def test_absorption_like_ordering(self, pair):
        a, b = pair
        assert includes(intersection(a, union(a, b)), union(a, b))


class TestInterpolationClosure:
    @given(small_instances(), unit)
    def test_evaluation_stays_in_simplex(self, ms, frac):
        x = ms.grid.lo + frac * (ms.grid.hi - ms.grid.lo)
        for level in range(1, ms.depth + 1):
            t = ms.evaluate(x, level)
            assert 0.0 <= min(t.as_tuple())
            assert max(t.as_tuple()) <= 1.0
            assert math.fsum(t.as_tuple()) <= 1.0 + 10 * TOL_SUM

    @given(small_instances(), unit)
    def test_level_order_preserved_off_grid(self, ms, frac):
        x = ms.grid.lo + frac * (ms.grid.hi - ms.grid.lo)
        values = [ms.evaluate(x, k).positive for k in range(1, ms.depth + 1)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9


short_value_lists = st.lists(
    st.integers(min_value=0, max_value=10).map(lambda n: n / 10.0),
    min_size=1,
    max_size=6,
)


class TestUnimodalEnvelope:
    @given(short_value_lists)
    def test_majorant_properties(self, values):
        env = _majorant(np.array(values))
        assert len(env) == len(values)
        assert all(e >= v for e, v in zip(env.tolist(), values))
        assert _worst_dip(env, 0.0, _majorant(env)) is None
        assert not _dips(env.tolist())

    @given(short_value_lists)
    def test_majorant_is_idempotent(self, values):
        env = _majorant(np.array(values))
        assert _majorant(env).tolist() == env.tolist()

    @given(short_value_lists)
    def test_majorant_is_least(self, values):
        assert tuple(_majorant(np.array(values)).tolist()) == _least_unimodal_by_search(values)


class TestLabProfile:
    # the generators' one profile body, for continuous and lattice draws
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
        st.booleans(),
        unit,
        st.integers(min_value=0, max_value=20),
    )
    def test_ramp_and_valley_shapes(self, seed, m, lattice, valley, cap, steps):
        rng = random.Random(seed)
        if lattice:  # counts steps of the lattice up to ``steps``
            draw, apex, cap = rng.randint, functools.partial(rng.randint, 0), steps
        else:
            lo, hi = (0.0, 0.4) if valley else (0.2, 1.0)
            draw, apex = rng.uniform, lambda c: rng.uniform(lo, hi) * c
        values = _profile(rng, m, draw, apex, cap, valley=valley)
        assert len(values) == m
        assert all(0 <= v <= cap for v in values)
        if lattice:  # whole steps: multiples of the step once scaled
            assert all(type(v) is int for v in values)
        turn = random.Random(seed).randrange(m)  # the body's first draw
        head, tail = values[: turn + 1], values[turn:]
        if valley:  # the mirror of a ramp
            head, tail = [-v for v in head], [-v for v in tail]
        assert head == sorted(head), "falls before its apex"
        assert tail == sorted(tail, reverse=True), "rises after its apex"


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def _covers(intervals, x):
    """Whether a closed interval of ``intervals`` holds ``x``."""
    return any(a <= x <= b for a, b in intervals)


class TestCutRegion:
    @given(st.lists(st.tuples(coords, coords).map(sorted), max_size=5))
    def test_canonical_form(self, raw):
        region = CutRegion(tuple((a, b) for a, b in raw))
        intervals = region.intervals
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert a1 <= b1 and a2 <= b2
            assert a2 > b1  # disjoint and ordered after merging

    @given(st.lists(st.tuples(coords, coords).map(sorted), max_size=5), coords)
    def test_contains_matches_raw_intervals(self, raw, x):
        region = CutRegion(tuple((a, b) for a, b in raw))
        assert _covers(region.intervals, x) == _covers(raw, x)
