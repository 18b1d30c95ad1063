import math
import pickle
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pfms.algebra
from pfms import (
    DepthMismatch,
    GeneratorConfig,
    GradeTriple,
    GridMismatch,
    LengthMismatch,
    PictureFuzzyMultiset,
    PositiveOrderViolation,
    TOL_CMP,
    TOL_SUM,
    complement,
    convex_combination,
    convex_hull,
    emit_instance,
    equals,
    gen_pfms,
    includes,
    intersection,
    multiset_from_values,
    parse_instance,
    union,
)

APPROX = dict(abs=1e-12)


def single(*triple):
    """One-node, depth-1 multiset around a single triple."""
    return multiset_from_values((0.0,), [[list(triple)]])


def triple_at(ms, node=0, level=1):
    return tuple(ms.values[node, level - 1].tolist())


class TestIncludes:
    def test_componentwise_example(self):
        a = single(0.2, 0.1, 0.5)
        b = single(0.4, 0.2, 0.3)
        assert includes(a, b)
        assert not includes(b, a)

    def test_reflexive_and_equals(self, convex_ms):
        assert includes(convex_ms, convex_ms)
        assert equals(convex_ms, convex_ms)

    def test_tolerance_semantics(self):
        a = single(0.2, 0.1, 0.5)
        b = single(0.2 - 1e-12, 0.1, 0.5)
        assert equals(a, b)

    def test_positive_violation_breaks_inclusion(self):
        assert not includes(single(0.5, 0.1, 0.2), single(0.4, 0.2, 0.1))

    def test_alignment_errors(self, convex_ms, deep_ms):
        other_grid = multiset_from_values((0.0, 1.0, 3.0), [[[0.1, 0.1, 0.1]]] * 3)
        with pytest.raises(GridMismatch):
            includes(convex_ms, other_grid)
        two_level_pair = multiset_from_values(
            (0.0, 1.0), [[[0.5, 0.1, 0.1]], [[0.5, 0.1, 0.1]]]
        )
        with pytest.raises(DepthMismatch):
            includes(deep_ms, two_level_pair)


class TestUnionIntersection:
    def test_union_triple_example(self):
        out = union(single(0.5, 0.2, 0.2), single(0.4, 0.3, 0.1))
        assert triple_at(out) == (0.5, 0.2, 0.1)

    def test_intersection_triple_example(self):
        out = intersection(single(0.5, 0.2, 0.2), single(0.4, 0.3, 0.1))
        assert triple_at(out) == (0.4, 0.2, 0.2)

    def test_idempotence(self, convex_ms):
        assert union(convex_ms, convex_ms) == convex_ms
        assert intersection(convex_ms, convex_ms) == convex_ms

    def test_union_with_zero_multiset(self, convex_ms):
        zero = multiset_from_values((0.0, 1.0, 2.0), [[[0.0, 0.0, 0.0]]] * 3)
        out = union(convex_ms, zero)
        for i in range(3):
            positive, _, _ = triple_at(convex_ms, i)
            assert triple_at(out, i) == (positive, 0.0, 0.0)

    def test_levelwise_on_deep_instances(self, deep_ms):
        other = multiset_from_values(
            (0.0, 1.0),
            [
                [[0.6, 0.2, 0.2], [0.5, 0.1, 0.1]],
                [[0.4, 0.1, 0.3], [0.3, 0.2, 0.1]],
            ],
        )
        out = union(deep_ms, other)
        assert triple_at(out, 0, 1) == (0.7, 0.1, 0.1)
        assert triple_at(out, 0, 2) == (0.5, 0.1, 0.1)
        assert triple_at(out, 1, 1) == (0.5, 0.1, 0.2)
        assert triple_at(out, 1, 2) == (0.3, 0.1, 0.1)

    def test_absorption_fails_documented(self):
        # both operators take the pointwise minimum on the neutral channel,
        # so absorption is not a law of this algebra
        a = single(0.5, 0.3, 0.1)
        b = single(0.5, 0.1, 0.1)
        absorbed = union(a, intersection(a, b))
        assert triple_at(absorbed) == (0.5, 0.1, 0.1)
        assert absorbed != a


class TestComplement:
    def test_triple_swap(self):
        out = complement(single(0.5, 0.2, 0.2))
        assert triple_at(out) == (0.2, 0.2, 0.5)

    def test_depth_two_swap_then_sort(self):
        ms = multiset_from_values((0.0,), [[[0.7, 0.1, 0.0], [0.4, 0.1, 0.5]]])
        out = complement(ms)
        assert triple_at(out, 0, 1) == (0.5, 0.1, 0.4)
        assert triple_at(out, 0, 2) == (0.0, 0.1, 0.7)

    def test_tied_positives_sort_by_neutral_then_negative(self):
        # equal new positives: neutral descending, then negative ascending
        by_neutral = complement(
            multiset_from_values((0.0,), [[[0.5, 0.1, 0.3], [0.1, 0.3, 0.3]]])
        )
        assert triple_at(by_neutral, 0, 1) == (0.3, 0.3, 0.1)
        assert triple_at(by_neutral, 0, 2) == (0.3, 0.1, 0.5)
        by_negative = complement(
            multiset_from_values((0.0,), [[[0.5, 0.2, 0.3], [0.1, 0.2, 0.3]]])
        )
        assert triple_at(by_negative, 0, 1) == (0.3, 0.2, 0.1)
        assert triple_at(by_negative, 0, 2) == (0.3, 0.2, 0.5)

    def test_valid_triple_at_the_sum_bound(self):
        # (p + n) + g is the cap 1 + TOL_SUM exactly; (g + n) + p rounds
        # 1 ulp above it, so the largest channel gives up that ulp
        p, n, g = 0.9956448355104628, 0.0020480749286869806, 0.0023070905608504333
        out = complement(single(p, n, g))
        assert triple_at(out) == (g, n, math.nextafter(p, 0.0))
        assert triple_at(complement(out)) == (math.nextafter(p, 0.0), n, g)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.integers(min_value=-3, max_value=0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_valid_instances_at_the_sum_bound(self, levels):
        # each level's third channel is the cap minus the other two, moved
        # a few ulps; complement must keep every valid one valid and move
        # no grade by more than a few ulps
        triples = []
        for a, b, ulps in sorted(((min(a, 1.0 - b), b, u) for a, b, u in levels), reverse=True):
            c = max(1.0 + TOL_SUM - (a + b), 0.0)
            for _ in range(-ulps):
                c = math.nextafter(c, 0.0)
            while (a + b) + c > 1.0 + TOL_SUM:
                c = math.nextafter(c, -1.0)
            triples.append([a, b, c])
        ms = multiset_from_values((0.0,), [triples])
        out = complement(ms)
        expected = sorted((t[::-1] for t in triples), key=lambda t: (-t[0], -t[1], t[2]))
        for got, want in zip(out.values[0].tolist(), expected):
            assert got == pytest.approx(want, rel=0.0, abs=1e-15)

    def test_only_a_triple_past_the_sum_bound_takes_the_repair_path(self):
        p, n, g = 0.9956448355104628, 0.0020480749286869806, 0.0023070905608504333
        with mock.patch.object(
            pfms.algebra, "_moved_in_bound", wraps=pfms.algebra._moved_in_bound
        ) as repair:
            complement(multiset_from_values((0.0,), [[[0.5, 0.2, 0.2], [0.1, 0.3, 0.6]]]))
            assert not repair.called
            complement(single(p, n, g))
            assert repair.call_count == 1

    def test_involution_up_to_level_reordering(self, deep_ms):
        back = complement(complement(deep_ms))
        for seq_a, seq_b in zip(back.values.tolist(), deep_ms.values.tolist()):
            assert sorted(map(tuple, seq_a)) == sorted(map(tuple, seq_b))

    def test_single_level_duality(self, convex_ms, bimodal_ms):
        lhs = complement(union(convex_ms, bimodal_ms))
        rhs = intersection(complement(convex_ms), complement(bimodal_ms))
        assert lhs == rhs

    def test_duality_breaks_across_levels(self):
        # complement re-sorts levels, so level pairing can differ between
        # the two sides once depth exceeds one; this pins the known limit
        a = multiset_from_values((0.0,), [[[0.6, 0.0, 0.1], [0.2, 0.0, 0.5]]])
        b = multiset_from_values((0.0,), [[[0.5, 0.0, 0.4], [0.4, 0.0, 0.05]]])
        lhs = complement(union(a, b))
        rhs = intersection(complement(a), complement(b))
        lhs_levels = sorted(map(tuple, lhs.values[0].tolist()))
        rhs_levels = sorted(map(tuple, rhs.values[0].tolist()))
        assert lhs_levels != rhs_levels


class TestConvexCombination:
    def test_endpoint_identities(self, convex_ms, bimodal_ms):
        assert convex_combination(convex_ms, bimodal_ms, 1.0) == convex_ms
        assert convex_combination(convex_ms, bimodal_ms, 0.0) == bimodal_ms

    def test_midpoint_example(self):
        out = convex_combination(single(0.6, 0.1, 0.1), single(0.2, 0.3, 0.3), 0.5)
        p, n, g = triple_at(out)
        assert p == pytest.approx(0.4, **APPROX)
        assert n == pytest.approx(0.2, **APPROX)
        assert g == pytest.approx(0.2, **APPROX)

    def test_weight_reversal_symmetry(self, convex_ms, bimodal_ms):
        lam = 0.37
        assert equals(
            convex_combination(convex_ms, bimodal_ms, lam),
            convex_combination(bimodal_ms, convex_ms, 1.0 - lam),
        )

    def test_blend_preserves_level_order(self, deep_ms):
        other = multiset_from_values(
            (0.0, 1.0),
            [
                [[0.6, 0.2, 0.2], [0.5, 0.1, 0.1]],
                [[0.4, 0.1, 0.3], [0.3, 0.2, 0.1]],
            ],
        )
        out = convex_combination(deep_ms, other, 0.3)
        assert out.values[0, 0, 0] >= out.values[0, 1, 0]

    def test_grid_mismatch(self, convex_ms):
        other = multiset_from_values((0.0, 1.0, 3.0), [[[0.1, 0.1, 0.1]]] * 3)
        with pytest.raises(GridMismatch):
            convex_combination(convex_ms, other, 0.5)

    def test_blend_at_the_sum_bound_gives_up_one_ulp(self):
        # the blend's sum rounds to 1.0000000010000003, 1 ulp past the cap;
        # its largest channel is lowered by the 1 ulp, as in complement
        a = (0.895325524671799, 0.07281089690537494, 0.0318635794228261)
        b = (0.7520498189338021, 0.05641897257137142, 0.1915312094948266)
        lam = 0.9424655091787275
        p, n, g = (lam * x + (1.0 - lam) * y for x, y in zip(a, b))
        assert (p + n) + g > 1.0 + TOL_SUM
        out = triple_at(convex_combination(single(*a), single(*b), lam))
        assert out == (math.nextafter(p, 0.0), n, g)

    @pytest.mark.parametrize("a, b, lam, moved", [
        # the neutral blend rounds to -1.0000000000000003e-09, past the range
        # bound -TOL_CMP, which both operands sit on
        ([[-1e-09, -1e-09, 1.000000001]], [[1.000000001, -1e-09, -1e-09]], 0.2,
         (0, 1, -TOL_CMP)),
        # level 2's positive blend rounds 1.00000006e-09 above level 1's 0.35
        ([[0.4, 0.1, 0.1], [0.4 + 1e-9, 0.1, 0.1]], [[0.3, 0.2, 0.1], [0.3 + 1e-9, 0.2, 0.1]], 0.5,
         (1, 0, 0.35 + TOL_CMP)),
    ])
    def test_blend_past_a_range_or_order_bound_is_moved_back(self, a, b, lam, moved):
        a, b = multiset_from_values((0.0,), [a]), multiset_from_values((0.0,), [b])
        naive = lam * a.values + (1.0 - lam) * b.values
        out = convex_combination(a, b, lam)
        k, c, value = moved
        expected = naive.copy()
        expected[0, k, c] = value
        assert out.values.tobytes() == expected.tobytes()
        assert parse_instance(emit_instance(out)) == out

    @pytest.mark.parametrize("edge", ["sum", "range", "order", "sum-order"])
    def test_seeded_blends_at_the_edges_are_valid(self, edge):
        # operands drawn on the sum bound, on the range bounds, with level 2
        # a tolerance above level 1, or on the sum bound at level 1 with level
        # 2 a tolerance above it; every blend builds and re-parses
        rng = random.Random(("sum", "range", "order", "sum-order").index(edge))
        for _ in range(300):
            a, b = (_edge_operand(rng, edge) for _ in range(2))
            out = convex_combination(a, b, rng.random())
            assert parse_instance(emit_instance(out)) == out


def _largest_negative(p, n):
    """The largest negative degree that the sum bound admits beside p and n."""
    g = 1.0 + TOL_SUM - (p + n)
    while (p + n) + g > 1.0 + TOL_SUM:
        g = math.nextafter(g, 0.0)
    return g


def _edge_operand(rng, edge):
    """A valid depth-2, three-node multiset whose triples sit at one edge
    of the validity rules."""
    nodes = []
    for _ in range(3):
        if edge == "sum":
            levels = []
            for p in sorted((rng.random() * 0.6 for _ in range(2)), reverse=True):
                n = rng.random() * (0.9 - p)
                levels.append([p, n, _largest_negative(p, n)])
        elif edge == "range":  # one channel at most TOL_CMP above 1, two below 0
            top = rng.randrange(3)
            triple = [-TOL_CMP * rng.choice((1.0, rng.random())) for _ in range(3)]
            triple[top] = 1.0 + TOL_CMP * rng.choice((1.0, rng.random()))
            low = [-TOL_CMP, rng.random() * 0.5, -TOL_CMP]
            levels = [triple, low] if top == 0 else [low, triple]
        elif edge == "sum-order":  # the sum lowers level 1's positive degree
            p = rng.uniform(0.5, 0.9)
            n = rng.random() * (1.0 - p)
            levels = [[p, n, _largest_negative(p, n)], [p + TOL_CMP, 0.0, 0.0]]
        else:  # level 2's positive degree up to TOL_CMP above level 1's
            p = rng.random() * 0.5
            rise = TOL_CMP * rng.choice((1.0, rng.random()))
            levels = [[p, rng.random() * 0.2, rng.random() * 0.2],
                      [p + rise, rng.random() * 0.2, rng.random() * 0.2]]
        nodes.append(levels)
    return multiset_from_values((0.0, 1.0, 2.0), nodes)


class TestSignedZeroTies:
    """Ties between 0.0 and -0.0 keep the operand that Python's max and
    min keep (the first), so emitted text does not depend on the kernel.
    The expected strings were recorded with the per-triple implementation."""

    @staticmethod
    def pair():
        levels = [
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[-0.0, 0.5, -0.0], [-0.0, -0.0, 0.5]],
            [[0.5, -0.0, 0.0], [0.0, 0.25, -0.0]],
        ]
        flipped = [[[-v if v == 0.0 else v for v in t] for t in node] for node in levels]
        grid = (0.0, 1.0, 2.0)
        return multiset_from_values(grid, levels), multiset_from_values(grid, flipped)

    HEAD = '{"format_version":"1","domain":[0.0,1.0,2.0],"depth":2,"elements":'
    A_FIRST = HEAD + (
        "[[[0.0,0.0,0.0],[0.0,0.0,0.0]],[[-0.0,0.5,-0.0],[-0.0,-0.0,0.5]],"
        "[[0.5,-0.0,0.0],[0.0,0.25,-0.0]]]}"
    )
    B_FIRST = HEAD + (
        "[[[-0.0,-0.0,-0.0],[-0.0,-0.0,-0.0]],[[0.0,0.5,0.0],[0.0,0.0,0.5]],"
        "[[0.5,0.0,-0.0],[-0.0,0.25,0.0]]]}"
    )
    BLEND = HEAD + (
        "[[[0.0,0.0,0.0],[0.0,0.0,0.0]],[[0.0,0.5,0.0],[0.0,0.0,0.5]],"
        "[[0.5,0.0,0.0],[0.0,0.25,0.0]]]}"
    )

    def test_union_and_intersection_keep_the_first_operand(self):
        a, b = self.pair()
        assert emit_instance(union(a, b)) == self.A_FIRST
        assert emit_instance(union(b, a)) == self.B_FIRST
        assert emit_instance(intersection(a, b)) == self.A_FIRST
        assert emit_instance(intersection(b, a)) == self.B_FIRST

    def test_complement_text(self):
        a, b = self.pair()
        assert emit_instance(complement(a)) == self.HEAD + (
            "[[[0.0,0.0,0.0],[0.0,0.0,0.0]],[[0.5,-0.0,-0.0],[-0.0,0.5,-0.0]],"
            "[[-0.0,0.25,0.0],[0.0,-0.0,0.5]]]}"
        )
        assert emit_instance(complement(b)) == self.HEAD + (
            "[[[-0.0,-0.0,-0.0],[-0.0,-0.0,-0.0]],[[0.5,0.0,0.0],[0.0,0.5,0.0]],"
            "[[0.0,0.25,-0.0],[-0.0,0.0,0.5]]]}"
        )

    def test_convex_combination_text(self):
        a, b = self.pair()
        assert emit_instance(convex_combination(a, b, 0.5)) == self.BLEND
        assert emit_instance(convex_combination(a, b, 1.0)) == self.BLEND
        assert emit_instance(convex_combination(b, a, 0.0)) == self.BLEND

    def test_hull_bits(self):
        a, b = self.pair()
        zero, neg, half, quarter = "0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-2"
        expected_a = [
            zero, zero, zero, zero, zero, zero,
            neg, half, neg, neg, neg, zero,
            half, neg, zero, zero, quarter, neg,
        ]
        flip = {zero: neg, neg: zero, half: half, quarter: quarter}
        for ms, expected in ((a, expected_a), (b, [flip[h] for h in expected_a])):
            values = convex_hull(ms).values
            got = [float(v).hex() for node in values for t in node for v in t]
            assert got == expected


def _signed_zero_operand(rng):
    """A valid depth-2, three-node multiset of 0.0, -0.0 and 0.25."""
    nodes = []
    for _ in range(3):
        levels = [[rng.choice((0.0, -0.0, 0.25)) for _ in range(3)] for _ in range(2)]
        nodes.append(sorted(levels, key=lambda t: -t[0]))
    return multiset_from_values((0.0, 1.0, 2.0), nodes)


def _swap_rounding_operand(rng):
    """A valid depth-2, three-node multiset whose level-1 triples keep the
    sum bound as (p + n) + g and round past it as (g + n) + p."""
    nodes = []
    for _ in range(3):
        while True:
            p = rng.random() * 0.6
            n = rng.random() * (0.9 - p)
            g = _largest_negative(p, n)
            if (g + n) + p > 1.0 + TOL_SUM:
                break
        nodes.append([[p, n, g], [0.0, rng.random() * 0.2, 0.0]])
    return multiset_from_values((0.0, 1.0, 2.0), nodes)


def _hand_made_operand(rng, edge):
    if edge == "zeros":
        return _signed_zero_operand(rng)
    if edge == "swap-sum":
        return _swap_rounding_operand(rng)
    return _edge_operand(rng, edge)


_HAND_MADE = ("sum", "range", "order", "sum-order", "zeros", "swap-sum")


@st.composite
def operand_pairs(draw):
    """Two valid operands on one grid and depth: lab instances, or the
    hand-made ones above (sums at the cap, entries at the range bounds,
    positive degrees rising by TOL_CMP, signed zeros, triples that round
    past the sum bound once swapped); the second may
    also be the first, or the first with every zero's sign flipped."""
    seed = draw(st.integers(0, 2**32 - 1))
    source = draw(st.sampled_from(("lab",) + _HAND_MADE))
    if source == "lab":
        m, depth = draw(st.integers(1, 9)), draw(st.integers(1, 4))
        step = draw(st.sampled_from((None, 0.05, 0.25)))
        a, other = (
            gen_pfms(GeneratorConfig(s, m, depth, step, draw(st.booleans())))
            for s in (seed, seed + 1)
        )
    else:
        rng = random.Random(seed)
        a = _hand_made_operand(rng, source)
        other = _hand_made_operand(rng, draw(st.sampled_from(_HAND_MADE)))
    values = {
        "other": other.values,
        "same": a.values,
        "flipped": np.where(a.values == 0.0, -a.values, a.values),
    }[draw(st.sampled_from(("other", "same", "flipped")))]
    return a, PictureFuzzyMultiset(a.grid, values)


def _checked_pick(a, b, sign):
    """Union's or intersection's entries, built through the full checks."""
    va, vb = a.values, b.values
    return PictureFuzzyMultiset(a.grid, np.where(vb * sign > va * sign, vb, va))


def _checked_complement(a):
    """The complement, sorted with take_along_axis and built through the
    full checks and the repair path."""
    swapped = a.values[..., ::-1]
    if a.depth > 1:
        order = np.lexsort((swapped[..., 2], -swapped[..., 1], -swapped[..., 0]), axis=-1)
        swapped = np.take_along_axis(swapped, order[..., None], axis=1)
    return pfms.algebra._moved_in_bound(a.grid, swapped)


class TestResultsCheckedOnce:
    """Union, intersection and complement return their arrays without a
    second check; each result must be the one the checked build gives."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(operand_pairs())
    def test_results_match_the_checked_build(self, pair):
        a, b = pair
        cases = [
            (union(a, b), _checked_pick(a, b, np.array([1.0, -1.0, -1.0]))),
            (intersection(a, b), _checked_pick(a, b, np.array([-1.0, -1.0, 1.0]))),
            (complement(a), _checked_complement(a)),
            (complement(b), _checked_complement(b)),
        ]
        for out, checked in cases:
            assert out.values.tobytes() == checked.values.tobytes()
            assert PictureFuzzyMultiset(out.grid, out.values) == out
            values = out.values
            assert values.dtype == np.float64
            assert values.flags.c_contiguous and not values.flags.writeable
            assert not np.shares_memory(values, a.values)
            assert not np.shares_memory(values, b.values)
            assert out._flat.tolist() == values.ravel().tolist()
            assert pickle.loads(pickle.dumps(out)) == out
