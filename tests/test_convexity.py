import pytest

from pfms import (
    BadLevel,
    CutThresholds,
    OutOfDomain,
    PfmsError,
    SumExceedsOne,
    WeightSumInvalid,
    antiunimodal_minorant,
    convex_hull,
    cut,
    cuts_all_convex,
    hull_membership_test,
    is_antiunimodal,
    is_convex_exact,
    is_convex_sampled,
    is_unimodal,
    jensen_check,
    multiset_from_values,
    unimodal_majorant,
)

APPROX = dict(abs=1e-12)


def positive_only(points, values):
    return multiset_from_values(points, [[[v, 0.0, 0.0]] for v in values])


def region_subset(inner, outer):
    return inner.intersect(outer).intervals == inner.intervals


class TestShapePredicates:
    def test_unimodal_basics(self):
        assert is_unimodal([0.2, 0.6, 0.3])
        assert is_unimodal([0.1, 0.1, 0.1])
        assert is_unimodal([0.3, 0.3, 0.2])  # plateau then fall
        assert not is_unimodal([0.6, 0.1, 0.5])

    def test_antiunimodal_basics(self):
        assert is_antiunimodal([0.5, 0.1, 0.4])
        assert not is_antiunimodal([0.1, 0.6, 0.2])

    def test_tolerance_absorbs_shallow_dips(self):
        assert is_unimodal([0.3, 0.3 - 1e-10, 0.3])
        assert not is_unimodal([0.3, 0.3 - 1e-8, 0.3])


class TestIsConvexExact:
    def test_convex_fixture(self, convex_ms):
        report = is_convex_exact(convex_ms)
        assert report.convex
        assert report.levels == (True,)
        assert report.witness is None

    def test_constant_instance(self):
        ms = multiset_from_values((0.0, 1.0, 2.0), [[[0.3, 0.2, 0.1]]] * 3)
        assert is_convex_exact(ms).convex

    def test_single_and_two_node_instances(self):
        assert is_convex_exact(positive_only((0.0,), [0.4])).convex
        assert is_convex_exact(positive_only((0.0, 1.0), [0.9, 0.1])).convex

    def test_bimodal_witness_frozen(self, bimodal_ms):
        report = is_convex_exact(bimodal_ms)
        assert not report.convex
        assert report.levels == (False,)
        w = report.witness
        assert (w.x, w.y, w.lam) == (0.0, 2.0, 0.5)
        assert w.level == 1 and w.channel == "positive"
        assert w.lhs == 0.1 and w.rhs == 0.5

    def test_neutral_dip_detected(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.3, 0.2, 0.0]], [[0.3, 0.0, 0.0]], [[0.3, 0.2, 0.0]]],
        )
        report = is_convex_exact(ms)
        assert not report.convex
        assert report.witness.channel == "neutral"

    def test_negative_bump_detected(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.2, 0.1, 0.0]], [[0.2, 0.1, 0.5]], [[0.2, 0.1, 0.0]]],
        )
        report = is_convex_exact(ms)
        assert not report.convex
        w = report.witness
        assert w.channel == "negative"
        assert w.lhs == 0.5 and w.rhs == 0.0

    def test_per_level_flags(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [
                [[0.6, 0.1, 0.0], [0.6, 0.1, 0.0]],
                [[0.6, 0.1, 0.0], [0.1, 0.1, 0.0]],
                [[0.6, 0.1, 0.0], [0.5, 0.1, 0.0]],
            ],
        )
        report = is_convex_exact(ms)
        assert report.levels == (True, False)
        assert report.witness.level == 2

    def test_witness_reevaluates_to_violation(self, bimodal_ms):
        w = is_convex_exact(bimodal_ms).witness
        z = (1.0 - w.lam) * w.x + w.lam * w.y
        lhs = bimodal_ms.evaluate(z, w.level).channel(w.channel)
        gx = bimodal_ms.evaluate(w.x, w.level).channel(w.channel)
        gy = bimodal_ms.evaluate(w.y, w.level).channel(w.channel)
        assert lhs < min(gx, gy) - 1e-9


class TestIsConvexSampled:
    def test_consistent_on_convex(self, convex_ms):
        for seed in range(5):
            assert is_convex_sampled(convex_ms, 100, 11, seed).convex

    def test_finds_bimodal_witness(self, bimodal_ms):
        report = is_convex_sampled(bimodal_ms, 200, 21, seed=0)
        assert not report.convex
        w = report.witness
        z = (1.0 - w.lam) * w.x + w.lam * w.y
        lhs = bimodal_ms.evaluate(z, w.level).channel(w.channel)
        gx = bimodal_ms.evaluate(w.x, w.level).channel(w.channel)
        gy = bimodal_ms.evaluate(w.y, w.level).channel(w.channel)
        if w.channel == "negative":
            assert lhs > max(gx, gy) + 1e-9
        else:
            assert lhs < min(gx, gy) - 1e-9

    def test_zero_samples_vacuous(self, bimodal_ms):
        report = is_convex_sampled(bimodal_ms, 0, 21, seed=0)
        assert report.convex and report.vacuous

    def test_sample_counts_validated(self, convex_ms):
        with pytest.raises(PfmsError, match="lambda_samples must be an integer >= 1"):
            is_convex_sampled(convex_ms, 10, 0)
        with pytest.raises(PfmsError, match="pair_samples must be an integer >= 0"):
            is_convex_sampled(convex_ms, -1, 21)
        for flag in (True, False):
            with pytest.raises(PfmsError, match="pair_samples"):
                is_convex_sampled(convex_ms, flag, 21)
            with pytest.raises(PfmsError, match="lambda_samples"):
                is_convex_sampled(convex_ms, 10, flag)


class TestCut:
    def test_worked_example(self, convex_ms):
        region = cut(convex_ms, CutThresholds(0.4, 0.15, 0.2), 1)
        assert region.count == 1
        (a, b), = region.intervals
        assert a == pytest.approx(0.75, **APPROX)
        assert b == pytest.approx(4.0 / 3.0, **APPROX)

    def test_vacuous_thresholds_full_domain(self, convex_ms):
        region = cut(convex_ms, (0.0, 0.0, 1.0), 1)
        assert region.intervals == ((0.0, 2.0),)

    def test_infeasible_positive_threshold(self, convex_ms):
        assert cut(convex_ms, (0.7, 0.0, 1.0), 1).is_empty

    def test_bimodal_split(self, bimodal_ms):
        region = cut(bimodal_ms, (0.5, 0.0, 1.0), 1)
        assert region.count == 2
        (a1, b1), (a2, b2) = region.intervals
        assert a1 == 0.0 and b1 == pytest.approx(0.2, **APPROX)
        assert (a2, b2) == (2.0, 2.0)

    def test_single_node_grid(self):
        ms = positive_only((1.5,), [0.5])
        assert cut(ms, (0.4, 0.0, 1.0), 1).intervals == ((1.5, 1.5),)
        assert cut(ms, (0.6, 0.0, 1.0), 1).is_empty

    def test_bad_level(self, convex_ms):
        with pytest.raises(BadLevel):
            cut(convex_ms, (0.1, 0.1, 0.9), 2)

    def test_threshold_monotonicity(self, convex_ms, bimodal_ms):
        for ms in (convex_ms, bimodal_ms):
            base = cut(ms, (0.2, 0.05, 0.5), 1)
            tighter = cut(ms, (0.35, 0.1, 0.35), 1)
            assert region_subset(tighter, base)


class TestCutsAllConvex:
    def test_convex_fixture(self, convex_ms):
        report = cuts_all_convex(convex_ms)
        assert report.convex and report.witness is None

    def test_bimodal_witness_frozen(self, bimodal_ms):
        report = cuts_all_convex(bimodal_ms)
        assert not report.convex
        w = report.witness
        assert w.thresholds.as_tuple() == (0.5, 0.0, 1.0)
        assert w.level == 1
        assert w.region.count == 2

    def test_positive_only_reduces_to_unimodality(self):
        # depth-1 instances with only a positive channel: cut convexity
        # for every threshold is exactly quasi-concavity
        good = positive_only((0.0, 1.0, 2.0, 3.0), [0.1, 0.8, 0.8, 0.2])
        bad = positive_only((0.0, 1.0, 2.0, 3.0), [0.7, 0.2, 0.2, 0.9])
        assert cuts_all_convex(good).convex
        assert is_convex_exact(good).convex
        assert not cuts_all_convex(bad).convex
        assert not is_convex_exact(bad).convex

    def test_matches_exact_checker_on_fixtures(self, convex_ms, bimodal_ms, deep_ms):
        for ms in (convex_ms, bimodal_ms, deep_ms):
            assert cuts_all_convex(ms).convex == is_convex_exact(ms).convex


class TestJensen:
    def test_single_point_equality(self, convex_ms):
        report = jensen_check(convex_ms, [0.5], [1.0], 1)
        assert report.ok
        assert report.slacks == (0.0, 0.0, 0.0)
        assert report.grades == convex_ms.evaluate(0.5, 1)

    def test_convex_fixture_slacks(self, convex_ms):
        report = jensen_check(convex_ms, [0.0, 2.0], [0.5, 0.5], 1)
        assert report.ok
        assert report.point == pytest.approx(1.0, **APPROX)
        assert report.slacks[0] == pytest.approx(0.4, **APPROX)
        assert report.slacks[1] == pytest.approx(0.1, **APPROX)
        assert report.slacks[2] == pytest.approx(0.4, **APPROX)

    def test_bimodal_negative_slack(self, bimodal_ms):
        report = jensen_check(bimodal_ms, [0.0, 2.0], [0.5, 0.5], 1)
        assert not report.ok
        assert report.slacks[0] == pytest.approx(-0.4, **APPROX)

    def test_errors(self, convex_ms):
        with pytest.raises(WeightSumInvalid):
            jensen_check(convex_ms, [0.0, 2.0], [0.5, 0.6], 1)
        with pytest.raises(OutOfDomain):
            jensen_check(convex_ms, [0.0, 5.0], [0.5, 0.5], 1)


class TestEnvelopes:
    def test_majorant_frozen_example(self):
        assert unimodal_majorant([0.6, 0.1, 0.5]) == (0.6, 0.5, 0.5)

    def test_minorant_frozen_example(self):
        assert antiunimodal_minorant([0.1, 0.6, 0.2]) == (0.1, 0.2, 0.2)

    def test_identity_on_well_shaped_input(self):
        assert unimodal_majorant([0.2, 0.6, 0.3]) == (0.2, 0.6, 0.3)
        assert antiunimodal_minorant([0.5, 0.1, 0.4]) == (0.5, 0.1, 0.4)

    def test_idempotent_and_dominant(self):
        values = [0.3, 0.05, 0.5, 0.2, 0.45, 0.1]
        up = unimodal_majorant(values)
        assert unimodal_majorant(up) == up
        assert all(u >= v for u, v in zip(up, values))
        assert is_unimodal(up, tol=0.0)
        down = antiunimodal_minorant(values)
        assert antiunimodal_minorant(down) == down
        assert all(d <= v for d, v in zip(down, values))
        assert is_antiunimodal(down, tol=0.0)


class TestConvexHull:
    def test_identity_on_convex(self, convex_ms):
        field = convex_hull(convex_ms)
        assert field.fully_valid
        for i in range(convex_ms.size):
            assert tuple(field.values[i][0]) == convex_ms.grades[i][0].as_tuple()

    def test_bimodal_hull_frozen(self, bimodal_ms):
        field = convex_hull(bimodal_ms)
        assert field.channel_nodes("positive", 1) == (0.6, 0.5, 0.5)
        assert field.channel_nodes("neutral", 1) == (0.1, 0.2, 0.1)
        assert field.channel_nodes("negative", 1) == (0.2, 0.1, 0.3)
        assert field.fully_valid

    def test_hull_is_idempotent_via_roundtrip(self, bimodal_ms):
        once = convex_hull(bimodal_ms)
        twice = convex_hull(once.to_multiset())
        assert once == twice

    def test_sum_break_flagged_not_repaired(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0]]],
        )
        field = convex_hull(ms)
        assert field.channel_nodes("positive", 1) == (1.0, 1.0, 1.0)
        assert field.channel_nodes("neutral", 1) == (0.0, 1.0, 0.0)
        assert field.valid == ((True,), (False,), (True,))
        assert not field.fully_valid
        with pytest.raises(SumExceedsOne):
            field.to_multiset()

    def test_channel_at_interpolates(self, bimodal_ms):
        field = convex_hull(bimodal_ms)
        assert field.channel_at("positive", 1, 0.0) == 0.6
        assert field.channel_at("positive", 1, 0.5) == pytest.approx(0.55, **APPROX)


class TestHullMembership:
    def test_single_point_is_evaluate(self, convex_ms):
        out = hull_membership_test(convex_ms, [0.5], [1.0], 1)
        assert out == convex_ms.evaluate(0.5, 1)

    def test_repeated_point_collapses(self, convex_ms):
        out = hull_membership_test(convex_ms, [0.5, 0.5], [0.5, 0.5], 1)
        expected = convex_ms.evaluate(0.5, 1)
        assert out.positive == pytest.approx(expected.positive, **APPROX)
        assert out.neutral == pytest.approx(expected.neutral, **APPROX)
        assert out.negative == pytest.approx(expected.negative, **APPROX)

    def test_gap_against_hull_documented(self, bimodal_ms):
        # the combination grade escapes the positive envelope at the
        # blended coordinate; kept as a pinned counterexample
        combo = hull_membership_test(bimodal_ms, [0.0, 2.0], [0.5, 0.5], 1)
        field = convex_hull(bimodal_ms)
        assert combo.positive == pytest.approx(0.55, **APPROX)
        assert field.channel_at("positive", 1, 1.0) == pytest.approx(0.5, **APPROX)
        assert combo.positive > field.channel_at("positive", 1, 1.0) + 1e-9
