import hashlib
import json
import pickle
import random
from unittest import mock

import numpy as np
import pytest

import pfms.convexity
import pfms.lab
from pfms import (
    BadConfig,
    DIP_DEPTH,
    ConvexityReport,
    GeneratorConfig,
    GradeField,
    GradeTriple,
    JensenReport,
    PictureFuzzyMultiset,
    PositiveOrderViolation,
    SUITE_NAMES,
    SuiteResult,
    TOL_CMP,
    TooLarge,
    UnknownSuite,
    Witness,
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
            dict(seed=0, grid_size=3.5, depth=1),
            dict(seed=0, grid_size=4, depth=1.0),
            dict(seed=0, grid_size=True, depth=1),
            dict(seed=0, grid_size="3", depth=1),
            dict(seed=0, grid_size=4, depth=1, value_lattice="x"),
            dict(seed=0, grid_size=4, depth=1, value_lattice=True),
            # the lattice counts steps, so 1 / step must be finite
            dict(seed=0, grid_size=4, depth=2, value_lattice=5e-324),
            dict(seed=0, grid_size=4, depth=2, value_lattice=1e-310),
            dict(seed=0, grid_size=4, depth=2, value_lattice=5e-324, convex_only=True),
            dict(seed=0, grid_size=4, depth=2, value_lattice=1e-310, convex_only=True),
        ],
    )
    def test_rejected_configs(self, kwargs):
        with pytest.raises(BadConfig):
            GeneratorConfig(**kwargs)

    @pytest.mark.parametrize("convex_only", [False, True])
    def test_tiny_lattice_with_a_finite_reciprocal_builds(self, convex_only):
        ms = gen_pfms(GeneratorConfig(seed=0, grid_size=4, depth=2, value_lattice=1e-300,
                                      convex_only=convex_only))
        assert ms.size == 4 and ms.depth == 2 and ms.values.dtype == np.float64

    def test_ints_too_long_to_print_are_refused_by_digit_count(self):
        with pytest.raises(BadConfig) as refused:
            GeneratorConfig(seed=0, grid_size=10**5000, depth=1)
        assert str(refused.value) == "grid_size <int of 5001 digits> outside 1..64"
        with pytest.raises(BadConfig, match=r"^depth -<int of 5001 digits> outside"):
            GeneratorConfig(seed=0, grid_size=4, depth=-(10**5000))
        with pytest.raises(BadConfig, match=r"^value_lattice step <int of 5001 digits>"):
            GeneratorConfig(seed=0, grid_size=4, depth=1, value_lattice=10**5000)
        with pytest.raises(BadConfig, match=r"^grid_size 10{400} outside 1\.\.64$"):
            GeneratorConfig(seed=0, grid_size=10**400, depth=1)


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
        for seq in ms.values.tolist():
            for t in seq:
                for v in t:
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

    @pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("x", "'x'"), (True, "True"),
                                             (None, "None"), ([1], "[1]")])
    def test_seed_must_be_an_integer(self, convex_ms, seed, shown):
        # None would seed from the system's entropy, so no two calls agree
        with pytest.raises(BadConfig) as refused:
            plant_dip(convex_ms, seed=seed)
        assert str(refused.value) == f"seed must be an integer, got {shown}"


class TestOracleConvexity:
    def test_frozen_fixtures(self, convex_ms, bimodal_ms):
        assert oracle_convexity(convex_ms)
        assert not oracle_convexity(bimodal_ms)

    def test_constant_instance(self):
        ms = multiset_from_values((0.0, 1.0, 2.0), [[[0.3, 0.2, 0.1]]] * 3)
        assert oracle_convexity(ms)

    def test_single_point(self):
        ms = multiset_from_values((0.0,), [[[0.3, 0.2, 0.1]]])
        assert oracle_convexity(ms)

    def test_lattice_tables_are_built_once_read_only(self):
        from pfms.lab import _ORACLE_BLEND, _ORACLE_I, _ORACLE_J

        i, j = np.triu_indices(41, 1)
        k = np.arange(21)[:, None]
        assert np.array_equal(_ORACLE_I, i) and np.array_equal(_ORACLE_J, j)
        assert np.array_equal(_ORACLE_BLEND, (20 - k) * i + k * j)
        for table in (_ORACLE_I, _ORACLE_J, _ORACLE_BLEND):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


class TestOracleHull:
    def test_frozen_positive_channel(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.6, 0.0, 0.0]], [[0.1, 0.0, 0.0]], [[0.5, 0.0, 0.0]]],
        )
        field = oracle_hull(ms)
        assert field.channel_nodes("positive", 1) == (0.6, 0.5, 0.5)

    def test_identity_on_well_shaped_channels(self, convex_ms):
        field = oracle_hull(convex_ms)
        for i in range(convex_ms.size):
            assert tuple(field.values[i][0]) == tuple(convex_ms.values[i, 0].tolist())

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
            assert oracle_hull(ms) == convex_hull(ms)

    def test_agrees_with_envelope_construction_off_lattice(self):
        # continuous instances of 1 to 64 points, depths 1-4, random, convex
        # and planted; a row whose deepest dip is at most TOL_CMP is one the
        # envelope keeps as it is while the exact oracle lifts it, so an
        # instance with such a row is skipped
        def deepest_dip(row):
            rises = np.minimum(np.maximum.accumulate(row), np.maximum.accumulate(row[::-1])[::-1])
            return (rises - row).max()

        checked, modes = 0, set()
        for i in range(256):
            m, depth, mode = 1 + i % 64, 1 + i // 64, i % 3
            ms = gen_pfms(GeneratorConfig(seed=i, grid_size=m, depth=depth, convex_only=mode == 1))
            if mode == 2 and m >= 3:
                ms = plant_dip(ms, seed=i)
            signed = ms.values * np.array([1.0, 1.0, -1.0])
            if any(0.0 < deepest_dip(signed[:, k, c]) <= TOL_CMP
                   for k in range(depth) for c in range(3)):
                continue
            assert oracle_hull(ms) == convex_hull(ms)
            checked += 1
            modes.add((mode, depth))
        assert checked >= 250 and len(modes) == 12
        wide = multiset_from_values(tuple(float(i) for i in range(65)), [[[0.3, 0.2, 0.1]]] * 65)
        with pytest.raises(TooLarge):
            oracle_hull(wide)

    def test_size_gate_matches_the_cut_scan(self):
        def flat(m):
            return multiset_from_values(
                tuple(float(i) for i in range(m)), [[[0.3, 0.2, 0.1]]] * m
            )

        widest = flat(64)
        assert oracle_hull(widest) == GradeField(widest.grid, widest.values)
        with pytest.raises(TooLarge, match="^hull oracle handles at most 64 grid points, got 65$"):
            oracle_hull(flat(65))

    def test_off_lattice_values_accepted(self):
        # the search's candidates are the input's own values, exact on any floats
        ms = multiset_from_values(
            (0.0, 1.0, 2.5), [[[0.33, 0.1, 0.1]], [[0.07, 0.013, 0.4]], [[0.2, 0.1, 0.3]]]
        )
        field = oracle_hull(ms)
        assert field.channel_nodes("positive", 1) == (0.33, 0.2, 0.2)
        assert field.channel_nodes("neutral", 1) == (0.1, 0.1, 0.1)
        assert field.channel_nodes("negative", 1) == (0.1, 0.3, 0.3)
        assert field == convex_hull(ms)


class TestCutScan:
    def test_size_gate_matches_generator_limit(self):
        def flat(m):
            return multiset_from_values(
                tuple(float(i) for i in range(m)), [[[0.3, 0.2, 0.1]]] * m
            )

        assert cuts_all_convex(flat(64))
        with pytest.raises(TooLarge):
            cuts_all_convex(flat(65))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("step", [None, 0.05])
def test_one_and_two_point_grids_are_convex_and_their_own_hull(m, step):
    # one or two nodes make every channel monotone: each oracle must say
    # convex, and the hull must keep every bit, signed zeros included
    zeros = multiset_from_values(tuple(map(float, range(m))), [[[0.0, -0.0, -0.0]]] * m)
    for seed in range(8):
        ms = zeros if seed == 0 else gen_pfms(
            GeneratorConfig(seed=seed, grid_size=m, depth=1 + seed % 4, value_lattice=step)
        )
        assert cuts_all_convex(ms) and oracle_convexity(ms)
        assert oracle_hull(ms).values.tobytes() == ms.values.tobytes()


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

    @pytest.mark.parametrize("seed", range(4))
    def test_predicate_sees_the_candidates_in_order(self, seed):
        # the reference is the earlier shrink, a drop-a-level loop, then a
        # drop-a-node loop, restarting after every accepted candidate
        from pfms.lab import _drop_level, _drop_node

        def reference(ms, predicate):
            def holds(candidate):
                try:
                    return bool(predicate(candidate))
                except pfms.PfmsError:
                    return False

            assert holds(ms)
            changed = True
            while changed:
                changed = False
                if ms.depth > 1:
                    for k in range(ms.depth):
                        candidate = _drop_level(ms, k)
                        if holds(candidate):
                            ms, changed = candidate, True
                            break
                    if changed:
                        continue
                if ms.size > 1:
                    for i in range(ms.size):
                        candidate = _drop_node(ms, i)
                        if holds(candidate):
                            ms, changed = candidate, True
                            break
            return ms

        base = gen_pfms(GeneratorConfig(seed=30 + seed, grid_size=7, depth=3, convex_only=True))
        planted = plant_dip(base, seed=seed)

        def run(shrink):
            seen = []

            def predicate(ms):
                seen.append((ms.size, ms.depth, ms.values.tobytes()))
                if ms.size == 4:
                    raise pfms.PfmsError("counts as failure")
                return not is_convex_exact(ms).convex

            out = shrink(planted, predicate)
            return seen, (out.size, out.depth, out.values.tobytes())

        seen, out = run(shrink_instance)
        assert len(seen) > 3
        assert (seen, out) == run(reference)

    def test_predicate_must_hold_initially(self, convex_ms):
        with pytest.raises(BadConfig):
            shrink_instance(convex_ms, lambda ms: not is_convex_exact(ms).convex)

    def test_a_candidate_that_cannot_be_built_counts_as_failing(self):
        # dropping the middle level leaves positive degrees 1.8 * TOL_CMP apart
        from pfms.lab import _drop_level

        levels = [[0.5 + r * TOL_CMP, 0.1, 0.1] for r in (0.0, 0.9, 1.8)]
        ms = multiset_from_values((0.0, 1.0), [levels, levels])
        with pytest.raises(PositiveOrderViolation):
            _drop_level(ms, 1)
        small = shrink_instance(ms, lambda c: c.values[0, 0, 0] == 0.5)
        assert small.values.tolist() == [[[0.5, 0.1, 0.1]]]


class TestBelow:
    """_below must draw what randrange draws: the pinned digests rest on it."""

    SIZES = [*range(1, 71), *(2**k + d for k in range(1, 41) for d in (-1, 0, 1))]

    @pytest.mark.parametrize("seed", range(3))
    def test_draws_and_state_match_randrange(self, seed):
        from pfms.lab import _below

        for n in self.SIZES:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_below(ours, n) for _ in range(25)] == [theirs.randrange(n) for _ in range(25)]
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 3), (0, 1), (0, 20), (2, 10), (7, 71)])
    def test_offset_draws_match_randint(self, lo, hi):
        from pfms.lab import _below

        ours, theirs = random.Random(lo * 100 + hi), random.Random(lo * 100 + hi)
        assert [lo + _below(ours, hi - lo + 1) for _ in range(50)] == [
            theirs.randint(lo, hi) for _ in range(50)
        ]
        assert ours.getstate() == theirs.getstate()


class TestLevelSlice:
    @pytest.mark.parametrize("seed", range(12))
    def test_slices_are_the_checked_build(self, seed):
        from pfms.lab import _level_slice

        step = (None, 0.05, 0.25)[seed % 3]
        ms = gen_pfms(GeneratorConfig(seed, 1 + seed % 9, 1 + seed % 4, step, seed % 2 == 0))
        for level in range(1, ms.depth + 1):
            out = _level_slice(ms, level)
            checked = PictureFuzzyMultiset(ms.grid, ms.values[:, level - 1 : level])
            assert out.values.tobytes() == checked.values.tobytes()
            assert out.values.dtype == np.float64
            assert out.values.flags.c_contiguous and not out.values.flags.writeable
            assert not np.shares_memory(out.values, ms.values)
            assert out._flat.tolist() == out.values.ravel().tolist()
            assert pickle.loads(pickle.dumps(out)) == out == checked


class TestHullGapFixture:
    def test_combination_exceeds_envelope(self):
        ms, points, weights, level = hull_gap_fixture()
        combo = hull_membership_test(ms, points, weights, level)
        field = convex_hull(ms)
        z = sum(w * x for w, x in zip(weights, points))
        assert combo.positive == pytest.approx(0.55, abs=1e-12)
        assert field.channel_at("positive", level, z) == pytest.approx(0.5, abs=1e-12)


def _zero_hull(ms):
    return GradeField(ms.grid, np.zeros_like(ms.values))


_NOT_CONVEX = ConvexityReport(
    convex=False,
    levels=(False,),
    witness=Witness(x=0.0, y=1.0, lam=0.5, level=1, channel="positive", lhs=0.0, rhs=0.5),
)
_JENSEN_FAILS = JensenReport(
    ok=False, level=1, point=0.0, grades=GradeTriple(0.0, 0.0, 0.0), slacks=(0.0, 0.0, 0.0)
)
_cuts, _oracle = pfms.lab.cuts_all_convex, pfms.lab.oracle_convexity
# patches of pfms.lab that force each failure kind of its suites
_FORCINGS = {
    "flip-cuts": {"cuts_all_convex": lambda ms: not _cuts(ms)},
    "flip-oracle": {"oracle_convexity": lambda ms: not _oracle(ms)},
    "not-convex": {"is_convex_exact": lambda ms: _NOT_CONVEX},
    "jensen-fails": {"jensen_check": lambda *a: _JENSEN_FAILS},
    "zero-hull": {"convex_hull": _zero_hull},
    "zero-hull-and-oracle": {"convex_hull": _zero_hull, "oracle_hull": _zero_hull},
    "unequal": {"equals": lambda a, b: False},
}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("no-such-suite", 10)

    def test_trials_validation(self):
        with pytest.raises(BadConfig):
            run_suite("jensen", 0)

    @pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("x", "'x'"), (True, "True"),
                                             (None, "None")])
    def test_seed_must_be_an_integer(self, seed, shown):
        with pytest.raises(BadConfig) as refused:
            run_suite("jensen", 2, seed=seed)
        assert str(refused.value) == f"seed must be an integer, got {shown}"

    @pytest.mark.parametrize("sign, shown", [(1, ""), (-1, "-")])
    def test_seed_too_long_to_print_is_refused(self, sign, shown):
        # the report prints its seed, which str refuses past 4,300 digits
        with pytest.raises(BadConfig) as refused:
            run_suite("algebra-laws", 1, seed=sign * 10**5000)
        assert str(refused.value) == (
            f"seed must have few enough digits to print, got {shown}<int of 5001 digits>"
        )
        report = json.loads(run_suite("algebra-laws", 1, seed=sign * 10**100).to_json())
        assert report["seed"] == sign * 10**100

    def test_trial_limit(self):
        # refused before a single trial runs
        with pytest.raises(TooLarge, match="trials must be at most 100000, got 100001"):
            run_suite("jensen", 100_001)
        with pytest.raises(TooLarge) as refused:
            run_suite("jensen", 10**5000)
        assert str(refused.value) == (
            "trials must be at most 100000, got <int of 5001 digits>"
        )
        with pytest.raises(BadConfig, match=r"got -<int of 5001 digits>$"):
            run_suite("jensen", -(10**5000))

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

    @pytest.mark.parametrize(
        "name, forcing, kinds, digest",
        [
            ("cut-equivalence", "flip-cuts", {"cut-equivalence-mismatch"}, "ed4563256e86034520ccc551debfdfe01d1aa02387bdf80989a033a08312444d"),
            ("oracle-equivalence", "flip-oracle", {"checker-oracle-mismatch"}, "4324f1b8ac550fc67492164a16e2cfdf43a96ac7354db6c0831ad1681e2c6052"),
            ("intersection-closure", "not-convex", {"intersection-not-convex"}, "f6488e41df918a950c9068301ba92dcf11f6f8e762897d0d0066494a9f0e2652"),
            ("family-intersection", "not-convex", {"family-intersection-not-convex"}, "4368a7d095a751db52420d5617a5f84d0be4ce1b4a7fae01f3dc3d907397b117"),
            ("jensen", "jensen-fails", {"jensen-failed-on-convex", "jensen-witness-not-failing"}, "0c6fb6f3da7a570f4fe074c6f8f9909632e0275f149141cb4f0018c8f91bda74"),
            ("hull-properties", "zero-hull", {"hull-oracle-mismatch", "hull-not-identity-on-convex"}, "ac10942fc672ebe401c8394a0bbbc4a61c222540dab22ab54102ad1c1a76cdd8"),
            ("hull-properties", "zero-hull-and-oracle", {"hull-law-violation", "hull-not-identity-on-convex"}, "c964a9250736f7036d101a0da54ed78a993caea6cca7625f04dd1648a1d667c1"),
            ("algebra-laws", "unequal", {"algebra-law-violation"}, "720092ab7f1d92163be661d3b690bf9963a7446c8eebfc5574678ca7eb2f5904"),
        ],
    )
    def test_forced_record_bytes_pinned(self, name, forcing, kinds, digest):
        # Each failure kind, forced by patching the check that decides it,
        # so every record layout is pinned, not only hull-membership-gap,
        # the one kind that test_report_bytes_pinned produces.
        with mock.patch.multiple(pfms.lab, **_FORCINGS[forcing]):
            report = run_suite(name, 12, seed=7)
        assert {record["kind"] for record in report.failures} == kinds
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_hull_law_check_catches_a_broken_envelope(self):
        # With an envelope that returns its input, every hull is its input:
        # on convex inputs the identity and law checks both pass, so only
        # the law check on planted continuous instances sees the fault.
        with mock.patch.object(pfms.convexity, "_majorant", lambda values: values):
            result = run_suite("hull-properties", 200, 0)
        assert "hull-law-violation" in {record["kind"] for record in result.failures}

    def test_law_check_runs_once_per_trial_on_a_checkable_hull(self):
        # Even trials check the laws on the oracle-matched hull, odd ones
        # only on the planted instance: the unplanted convex input equals
        # its hull, so the laws hold there by construction.  Trial 15 is
        # odd on a two-point grid, which has no node to plant at.
        calls = []
        real = pfms.lab._hull_law_violation

        def spy(ms, field):
            calls.append(pfms.convexity.is_convex_exact(ms).convex)
            return real(ms, field)

        with mock.patch.object(pfms.lab, "_hull_law_violation", spy):
            assert run_suite("hull-properties", 30, 0).passed
        trials = [idx for idx in range(30) if idx != 15]
        assert len(calls) == len(trials)
        assert not any(convex for idx, convex in zip(trials, calls) if idx % 2)

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
