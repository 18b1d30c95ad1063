import hashlib
import json

import pytest

from pfms import (
    BadConfig,
    DIP_DEPTH,
    GeneratorConfig,
    SUITE_NAMES,
    SuiteResult,
    TooLarge,
    UnknownSuite,
    convex_hull,
    cuts_all_convex,
    gen_pfms,
    hull_gap_fixture,
    hull_membership_test,
    instance_from_document,
    is_convex_exact,
    multiset_from_values,
    oracle_convexity,
    oracle_hull,
    plant_dip,
    run_suite,
    shrink_instance,
)


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=0, grid_size=0, depth=1),
            dict(seed=0, grid_size=65, depth=1),
            dict(seed=0, grid_size=4, depth=0),
            dict(seed=0, grid_size=4, depth=9),
            dict(seed=0, grid_size=4, depth=1, value_lattice=0.0),
            dict(seed=0, grid_size=4, depth=1, value_lattice=1.5),
            dict(seed=True, grid_size=4, depth=1),
        ],
    )
    def test_rejected_configs(self, kwargs):
        with pytest.raises(BadConfig):
            GeneratorConfig(**kwargs)


class TestGenPfms:
    def test_determinism(self):
        cfg = GeneratorConfig(seed=11, grid_size=7, depth=3)
        assert gen_pfms(cfg) == gen_pfms(cfg)

    def test_distinct_seeds_differ(self):
        a = gen_pfms(GeneratorConfig(seed=1, grid_size=7, depth=3))
        b = gen_pfms(GeneratorConfig(seed=2, grid_size=7, depth=3))
        assert a != b

    def test_requested_shape(self):
        ms = gen_pfms(GeneratorConfig(seed=5, grid_size=12, depth=4))
        assert ms.size == 12 and ms.depth == 4

    def test_single_point_instance(self):
        ms = gen_pfms(GeneratorConfig(seed=3, grid_size=1, depth=2))
        assert ms.size == 1
        assert is_convex_exact(ms).convex

    def test_convex_only_is_convex(self):
        for seed in range(40):
            cfg = GeneratorConfig(
                seed=seed,
                grid_size=2 + seed % 10,
                depth=1 + seed % 4,
                convex_only=True,
            )
            assert is_convex_exact(gen_pfms(cfg)).convex

    def test_convex_only_lattice_is_convex(self):
        for seed in range(40):
            cfg = GeneratorConfig(
                seed=seed,
                grid_size=2 + seed % 8,
                depth=1 + seed % 3,
                value_lattice=0.05,
                convex_only=True,
            )
            assert is_convex_exact(gen_pfms(cfg)).convex

    def test_lattice_values_and_integer_grid(self):
        ms = gen_pfms(
            GeneratorConfig(seed=9, grid_size=6, depth=2, value_lattice=0.05)
        )
        assert ms.grid.points == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        for seq in ms.grades:
            for t in seq:
                for v in t.as_tuple():
                    assert abs(v - round(v / 0.05) * 0.05) < 1e-9


class TestPlantDip:
    def test_breaks_convexity_and_stays_valid(self):
        for seed in range(60):
            base = gen_pfms(
                GeneratorConfig(
                    seed=seed,
                    grid_size=3 + seed % 8,
                    depth=1 + seed % 4,
                    convex_only=seed % 2 == 0,
                )
            )
            planted = plant_dip(base, seed=seed * 17 + 5)
            report = is_convex_exact(planted)
            assert not report.convex
            assert report.witness is not None

    def test_dip_depth_is_tolerance_robust(self):
        assert DIP_DEPTH >= 5e-9 * 10  # far beyond comparison slack

    def test_needs_interior_node(self):
        ms = gen_pfms(GeneratorConfig(seed=0, grid_size=2, depth=1))
        with pytest.raises(BadConfig):
            plant_dip(ms, seed=0)


class TestOracleConvexity:
    def test_frozen_fixtures(self, convex_ms, bimodal_ms):
        assert oracle_convexity(convex_ms)
        assert not oracle_convexity(bimodal_ms)

    def test_constant_any_resolution(self):
        ms = multiset_from_values((0.0, 1.0, 2.0), [[[0.3, 0.2, 0.1]]] * 3)
        assert oracle_convexity(ms, 5, 3)
        assert oracle_convexity(ms, 41, 21)

    def test_single_point(self):
        ms = multiset_from_values((0.0,), [[[0.3, 0.2, 0.1]]])
        assert oracle_convexity(ms)

    def test_resolution_validation(self, convex_ms):
        with pytest.raises(BadConfig):
            oracle_convexity(convex_ms, 1, 21)
        with pytest.raises(BadConfig):
            oracle_convexity(convex_ms, 41, 0)

    def test_lattice_size_refused_before_allocation(self, convex_ms):
        # 10**5 squared times 21 cells would need terabytes; the check
        # must fire before any array exists, so this returns at once
        with pytest.raises(TooLarge, match="oracle lattice"):
            oracle_convexity(convex_ms, 100_000, 21)
        with pytest.raises(TooLarge):
            oracle_convexity(convex_ms, 2_001, 1)


class TestOracleHull:
    def test_frozen_positive_channel(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.6, 0.0, 0.0]], [[0.1, 0.0, 0.0]], [[0.5, 0.0, 0.0]]],
        )
        field = oracle_hull(ms, 0.05)
        assert field.channel_nodes("positive", 1) == (0.6, 0.5, 0.5)

    def test_identity_on_well_shaped_channels(self, convex_ms):
        field = oracle_hull(convex_ms, 0.05)
        for i in range(convex_ms.size):
            assert tuple(field.values[i][0]) == convex_ms.grades[i][0].as_tuple()

    def test_agrees_with_envelope_construction(self):
        for seed in range(30):
            ms = gen_pfms(
                GeneratorConfig(
                    seed=seed,
                    grid_size=2 + seed % 6,
                    depth=1 + seed % 3,
                    value_lattice=0.05,
                )
            )
            assert oracle_hull(ms, 0.05) == convex_hull(ms)

    def test_size_and_step_gates(self):
        big = gen_pfms(GeneratorConfig(seed=1, grid_size=8, depth=1, value_lattice=0.05))
        with pytest.raises(TooLarge):
            oracle_hull(big, 0.05)
        small = gen_pfms(GeneratorConfig(seed=1, grid_size=4, depth=1, value_lattice=0.05))
        with pytest.raises(TooLarge):
            oracle_hull(small, 0.01)

    def test_off_lattice_values_rejected(self, convex_ms):
        with pytest.raises(BadConfig):
            oracle_hull(convex_ms, 0.3)


class TestCutScan:
    def test_size_gate_matches_generator_limit(self):
        def flat(m):
            return multiset_from_values(
                tuple(float(i) for i in range(m)), [[[0.3, 0.2, 0.1]]] * m
            )

        assert cuts_all_convex(flat(64)).convex
        with pytest.raises(TooLarge):
            cuts_all_convex(flat(65))


class TestShrink:
    def test_shrinks_to_local_minimum(self):
        base = gen_pfms(GeneratorConfig(seed=21, grid_size=6, depth=3, convex_only=True))
        planted = plant_dip(base, seed=4)
        not_convex = lambda ms: not is_convex_exact(ms).convex
        small = shrink_instance(planted, not_convex)
        assert not_convex(small)
        assert small.depth == 1
        assert small.size == 3
        from pfms.lab import _drop_level, _drop_node

        for k in range(small.depth):
            if small.depth > 1:
                assert is_convex_exact(_drop_level(small, k)).convex
        for i in range(small.size):
            assert is_convex_exact(_drop_node(small, i)).convex

    def test_predicate_must_hold_initially(self, convex_ms):
        with pytest.raises(BadConfig):
            shrink_instance(convex_ms, lambda ms: not is_convex_exact(ms).convex)


class TestHullGapFixture:
    def test_combination_exceeds_envelope(self):
        ms, points, weights, level = hull_gap_fixture()
        combo = hull_membership_test(ms, points, weights, level)
        field = convex_hull(ms)
        z = sum(w * x for w, x in zip(weights, points))
        assert combo.positive == pytest.approx(0.55, abs=1e-12)
        assert field.channel_at("positive", level, z) == pytest.approx(0.5, abs=1e-12)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("no-such-suite", 10)

    def test_trials_validation(self):
        with pytest.raises(BadConfig):
            run_suite("jensen", 0)

    @pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "hull-theorem-discrepancy"])
    def test_property_suites_pass(self, name):
        result = run_suite(name, 30, seed=5)
        assert result.failures == ()
        assert result.passed
        assert not result.expect_failures

    def test_discrepancy_suite_expects_failures(self):
        result = run_suite("hull-theorem-discrepancy", 10, seed=5)
        assert result.expect_failures
        assert len(result.failures) >= 1
        assert result.passed

    def test_expected_failure_semantics(self):
        empty = SuiteResult(
            suite="hull-theorem-discrepancy",
            seed=0,
            trials=1,
            expect_failures=True,
            failures=(),
        )
        assert not empty.passed

    def test_reports_are_byte_deterministic(self):
        for name in SUITE_NAMES:
            first = run_suite(name, 12, seed=3).to_json()
            second = run_suite(name, 12, seed=3).to_json()
            assert first == second

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("cut-equivalence", "46974808d944b60ae67a4b89d3ae8554c4d3db107a3289935e9b39ace09df8fd"),
            ("intersection-closure", "fbc8d184b546dec2d29826c6eeee76c96c8cefbc089436ab51bdb3d233ee2933"),
            ("family-intersection", "58017c4adb54707b809e6fba87be38712e0cd5f4a26c02095dad25c171b07898"),
            ("jensen", "610e17767f359e68b9c7c015a6a9465f9a49aea06906468f88b61643794ccc03"),
            ("hull-properties", "8385b2f97024369e828ab3a704bfa5d50b88f3a3d1ef2b08aaf5a637f2fed3a1"),
            ("hull-theorem-discrepancy", "50fe2eb5ad84c812cbffc9b4c8c21072bd6d8a9ecc14fc075a6909814fa85878"),
            ("algebra-laws", "a4f7770ee359f2dcf7ca91d0cd3c52300ad41e77939a50ec901796284bcafc81"),
            ("oracle-equivalence", "42459eedabd5646e47cd7be4fd14ad74049818016fc52c2f39d2f6bc9a6b92da"),
        ],
    )
    def test_report_bytes_pinned(self, name, digest):
        # Refactors must not change a single report byte; a deliberate
        # change to a suite's output updates its digest here.
        report = run_suite(name, 25, seed=7).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    def test_counterexample_replays(self):
        result = run_suite("hull-theorem-discrepancy", 6, seed=2)
        for record in result.failures:
            ms = instance_from_document(record["instance"])
            combo = hull_membership_test(
                ms, record["points"], record["weights"], record["level"]
            )
            field = convex_hull(ms)
            channel = record["channel"]
            envelope = field.channel_at(
                channel, record["level"], record["blend_coordinate"]
            )
            if channel == "negative":
                assert combo.channel(channel) < envelope - 1e-9
            else:
                assert combo.channel(channel) > envelope + 1e-9
            assert combo.channel(channel) == record["combination"]
            assert envelope == record["envelope"]

    def test_counterexamples_are_locally_minimal(self):
        from pfms.lab import _drop_level, _drop_node, _membership_gap

        result = run_suite("hull-theorem-discrepancy", 6, seed=2)
        for record in result.failures:
            ms = instance_from_document(record["instance"])
            args = (record["points"], record["weights"], record["level"])

            def gap(candidate):
                try:
                    return _membership_gap(candidate, *args) is not None
                except Exception:
                    return False

            assert gap(ms)
            if ms.depth > 1:
                for k in range(ms.depth):
                    assert not gap(_drop_level(ms, k))
            if ms.size > 1:
                for i in range(ms.size):
                    assert not gap(_drop_node(ms, i))

    def test_suite_json_is_loadable(self):
        result = run_suite("hull-theorem-discrepancy", 3, seed=0)
        doc = json.loads(result.to_json())
        assert doc["suite"] == "hull-theorem-discrepancy"
        assert doc["failure_count"] == len(doc["failures"])
