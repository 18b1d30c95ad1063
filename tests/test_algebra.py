import pytest

from pfms import (
    ChannelWeights,
    DepthMismatch,
    GradeTriple,
    GridMismatch,
    LengthMismatch,
    PositiveOrderViolation,
    WeightSumInvalid,
    WeightVector,
    complement,
    convex_combination,
    convex_hull,
    emit_instance,
    equals,
    includes,
    intersection,
    multiset_from_values,
    pcc_points,
    segment_grade_blend,
    union,
)

APPROX = dict(abs=1e-12)


def single(*triple):
    """One-node, depth-1 multiset around a single triple."""
    return multiset_from_values((0.0,), [[list(triple)]])


def triple_at(ms, node=0, level=1):
    return ms.grades[node][level - 1].as_tuple()


class TestWeights:
    def test_weight_vector_valid(self):
        w = WeightVector.of([0.25, 0.25, 0.5])
        assert len(w) == 3 and w[2] == 0.5
        assert WeightVector.of(w) is w

    def test_weight_vector_sum_enforced(self):
        with pytest.raises(WeightSumInvalid):
            WeightVector((0.5, 0.4))
        with pytest.raises(WeightSumInvalid):
            WeightVector(())

    def test_weight_vector_component_range(self):
        from pfms import OutOfUnitInterval

        with pytest.raises(OutOfUnitInterval):
            WeightVector((1.5, -0.5))

    def test_channel_weights_joint_sum(self):
        ChannelWeights(((0.3, 0.1, 0.1), (0.3, 0.1, 0.1)))
        with pytest.raises(WeightSumInvalid):
            ChannelWeights(((0.3, 0.1, 0.1), (0.3, 0.1, 0.2)))

    def test_channel_weights_per_triple_cap(self):
        with pytest.raises(WeightSumInvalid):
            ChannelWeights(((0.6, 0.3, 0.2), (0.0, 0.0, 0.0)))


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

    def test_involution_up_to_level_reordering(self, deep_ms):
        back = complement(complement(deep_ms))
        for seq_a, seq_b in zip(back.grades, deep_ms.grades):
            assert sorted(t.as_tuple() for t in seq_a) == sorted(
                t.as_tuple() for t in seq_b
            )

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
        lhs_levels = sorted(t.as_tuple() for t in lhs.grades[0])
        rhs_levels = sorted(t.as_tuple() for t in rhs.grades[0])
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
        assert out.grades[0][0].positive >= out.grades[0][1].positive

    def test_grid_mismatch(self, convex_ms):
        other = multiset_from_values((0.0, 1.0, 3.0), [[[0.1, 0.1, 0.1]]] * 3)
        with pytest.raises(GridMismatch):
            convex_combination(convex_ms, other, 0.5)


class TestSegmentGradeBlend:
    def test_endpoints(self, convex_ms):
        assert segment_grade_blend(convex_ms, 0.0, 2.0, 0.0, 1) == convex_ms.evaluate(
            0.0, 1
        )
        assert segment_grade_blend(convex_ms, 0.0, 2.0, 1.0, 1) == convex_ms.evaluate(
            2.0, 1
        )

    def test_midpoint_example(self, convex_ms):
        out = segment_grade_blend(convex_ms, 0.0, 2.0, 0.5, 1)
        assert out.positive == pytest.approx(0.25, **APPROX)
        assert out.neutral == pytest.approx(0.1, **APPROX)
        assert out.negative == pytest.approx(0.45, **APPROX)


class TestPccPoints:
    def test_degenerate_single_point(self):
        out = pcc_points([GradeTriple(0.7, 0.2, 0.1)], [(1.0, 0.0, 0.0)])
        assert out.as_tuple() == (0.7, 0.0, 0.0)

    def test_two_point_example(self):
        out = pcc_points(
            [GradeTriple(0.6, 0.2, 0.1), GradeTriple(0.4, 0.1, 0.2)],
            [(0.3, 0.1, 0.1), (0.3, 0.1, 0.1)],
        )
        assert out.positive == pytest.approx(0.30, **APPROX)
        assert out.neutral == pytest.approx(0.03, **APPROX)
        assert out.negative == pytest.approx(0.03, **APPROX)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pcc_points([GradeTriple(0.5, 0.2, 0.2)], [(0.5, 0.0, 0.0), (0.5, 0.0, 0.0)])

    def test_output_always_valid(self):
        # closure: output sum bounded by the joint weight sum
        import random

        rng = random.Random(7)
        for _ in range(200):
            n = 1 + rng.randrange(4)
            triples = []
            for _ in range(n):
                p, u, g = rng.random(), rng.random(), rng.random()
                total = p + u + g
                if total > 1.0:
                    scale = rng.uniform(0.5, 1.0) / total
                    p, u, g = p * scale, u * scale, g * scale
                triples.append(GradeTriple(p, u, g))
            raw = [[rng.random() for _ in range(3)] for _ in range(n)]
            joint = sum(sum(row) for row in raw)
            weights = [
                tuple(v / joint for v in row) for row in raw
            ]
            out = pcc_points(triples, weights)
            assert out.positive + out.neutral + out.negative <= 1.0 + 1e-9


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
