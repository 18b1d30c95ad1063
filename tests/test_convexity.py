import copy
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _regions import assert_canonical
from pfms import (
    CHANNELS,
    TOL_CMP,
    TOL_SUM,
    BadLevel,
    CutRegion,
    CutThresholds,
    InvalidGrid,
    LengthMismatch,
    OutOfDomain,
    OutOfUnitInterval,
    PfmsError,
    PictureFuzzyMultiset,
    SumExceedsOne,
    TooLarge,
    WeightSumInvalid,
    convex_hull,
    cut,
    cuts_all_convex,
    hull_membership_test,
    is_convex_exact,
    is_convex_sampled,
    jensen_check,
    multiset_from_values,
    oracle_convexity,
)
from pfms import convexity
from pfms.convexity import GradeField, _majorant, _worst_dip
from pfms.core import CHANNEL_SIGNS, level_index
from pfms.lab import GeneratorConfig, _dips, _hull_law_violation, gen_pfms, plant_dip

APPROX = dict(abs=1e-12)


def positive_only(points, values):
    return multiset_from_values(points, [[[v, 0.0, 0.0]] for v in values])


def region_subset(inner, outer):
    # outer's intervals are disjoint, so each of inner's lies in one of them
    return all(any(a <= lo and hi <= b for a, b in outer.intervals) for lo, hi in inner.intervals)


def negative_only(points, values):
    return multiset_from_values(points, [[[0.0, 0.0, v]] for v in values])


class TestShapePredicates:
    """The shape rules of one row, on three-node instances of one channel
    through the exact check, and on the dip kernel itself."""

    def test_unimodal_basics(self):
        for values in ((0.2, 0.6, 0.3), (0.1, 0.1, 0.1), (0.3, 0.3, 0.2)):  # plateaus too
            assert is_convex_exact(positive_only((0.0, 1.0, 2.0), values)).convex
        assert not is_convex_exact(positive_only((0.0, 1.0, 2.0), (0.6, 0.1, 0.5))).convex

    def test_antiunimodal_basics(self):
        assert is_convex_exact(negative_only((0.0, 1.0, 2.0), (0.5, 0.1, 0.4))).convex
        assert not is_convex_exact(negative_only((0.0, 1.0, 2.0), (0.1, 0.6, 0.2))).convex

    def test_tolerance_absorbs_shallow_dips(self):
        for dip, convex in ((1e-10, True), (1e-8, False)):
            ms = positive_only((0.0, 1.0, 2.0), (0.3, 0.3 - dip, 0.3))
            assert is_convex_exact(ms).convex is convex
            row = np.array([0.3, 0.3 - dip, 0.3])
            assert (_worst_dip(row, TOL_CMP, _majorant(row)) is None) is convex
            assert _worst_dip(row, 0.0, _majorant(row)) == (0, 1, 2)


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

    def test_blends_past_the_sum_bound_do_not_raise(self):
        # two valid nodes whose blends round 1 ulp past the sum bound at
        # about one interior coordinate in eleven
        ms = multiset_from_values([0, 1], [
            [[0.2981919417804871, 0.673293969443177, 0.02851408977633607]],
            [[0.7854861716415126, 0.14307781977692424, 0.07143600958156326]],
        ])
        for seed in range(50):
            assert is_convex_sampled(ms, 200, 21, seed).convex

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

    @pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("x", "'x'"), (True, "True"),
                                             (None, "None"), ([1], "[1]")])
    @pytest.mark.parametrize("pairs", [0, 10])
    def test_seed_must_be_an_integer(self, convex_ms, pairs, seed, shown):
        # None would seed from the system's entropy, so no two calls agree
        with pytest.raises(PfmsError) as refused:
            is_convex_sampled(convex_ms, pairs, 21, seed=seed)
        assert str(refused.value) == f"seed must be an integer, got {shown}"

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

    def test_sample_count_limits(self, convex_ms):
        # the first value above each limit is refused before any sampling
        with pytest.raises(TooLarge, match="pair_samples must be at most 1000000"):
            is_convex_sampled(convex_ms, 1_000_001, 21)
        with pytest.raises(TooLarge, match="lambda_samples must be at most 10000"):
            is_convex_sampled(convex_ms, 1, 10_001)
        assert is_convex_sampled(convex_ms, 1, 10_000).convex
        # counts too long for CPython to print are shown by digit count
        with pytest.raises(TooLarge, match=r"got <int of 5001 digits>$"):
            is_convex_sampled(convex_ms, 10**5000, 21)
        with pytest.raises(PfmsError, match=r"got -<int of 5001 digits>$"):
            is_convex_sampled(convex_ms, 1, -(10**5000))

    def test_grade_array_is_left_as_it_was(self, bimodal_ms):
        # the check negates a channel of its evaluated copies, never of the
        # instance's own array
        before = bimodal_ms.values.tobytes()
        assert not is_convex_sampled(bimodal_ms, 50, 5, seed=1).convex
        assert bimodal_ms.values.tobytes() == before
        assert not bimodal_ms.values.flags.writeable

    def test_peak_memory_does_not_grow_with_samples(self, bimodal_ms):
        def peak(pairs):
            tracemalloc.start()
            try:
                is_convex_sampled(bimodal_ms, pairs, 21, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6000) < 1.5 * peak(600)


def _reference_sampled(ms, pair_samples, lambda_samples, seed):
    """The sampled check as a plain loop over evaluate with Python's min
    and max: the first violation by pair, level, lambda and channel."""
    if pair_samples == 0:
        return convexity.ConvexityReport(True, (True,) * ms.depth, None, True)
    rng = random.Random(seed)
    if lambda_samples == 1:
        lams = [0.5]
    else:
        lams = [i / (lambda_samples - 1) for i in range(lambda_samples)]
    lo, hi = ms.grid.lo, ms.grid.hi
    flags = [True] * ms.depth
    witness = None
    for _ in range(pair_samples):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        if y < x:
            x, y = y, x
        for level in range(1, ms.depth + 1):
            gx = ms.evaluate(x, level)
            gy = ms.evaluate(y, level)
            for lam in lams:
                gz = ms.evaluate((1.0 - lam) * x + lam * y, level)
                for channel in ("positive", "neutral", "negative"):
                    lhs = gz.channel(channel)
                    ends = (gx.channel(channel), gy.channel(channel))
                    if channel == "negative":
                        rhs = max(ends)
                        bad = lhs > rhs + TOL_CMP
                    else:
                        rhs = min(ends)
                        bad = lhs < rhs - TOL_CMP
                    if bad:
                        flags[level - 1] = False
                        if witness is None:
                            witness = convexity.Witness(
                                x, y, lam, level, channel, lhs, rhs
                            )
    return convexity.ConvexityReport(all(flags), tuple(flags), witness)


def _outcome(check, *args):
    """Every report field as (type, repr), which tells -0.0 from 0.0 and
    numpy scalars from Python ones; or the error raised."""
    try:
        report = check(*args)
    except PfmsError as exc:
        return ("raises", type(exc), str(exc))
    w = report.witness
    fields = [report.convex, report.vacuous, *report.levels, w is None]
    if w is not None:
        fields += [w.x, w.y, w.lam, w.level, w.channel, w.lhs, w.rhs]
    return [(type(v), repr(v)) for v in fields]


# Triples at the sum or range bounds: blends of a triple with itself can
# round past the bound, which evaluate returns unchecked.
_EDGE_TRIPLES = (
    (0.45, 0.05, 0.5000000010000002),
    (0.9, -0.0, 0.10000000100000009),
    (0.45, 0.25, 0.30000000100000024),
    (-1e-9, 1.0 + 1e-9, -0.0),
)


# Channel values whose dips below 0.3 lie inside, at and past TOL_CMP.
_BAND = (0.3, 0.3 - TOL_CMP / 2, 0.3 - TOL_CMP, 0.3 - 2 * TOL_CMP, 0.0, -0.0)


@st.composite
def _signed(draw, value):
    return -0.0 if value == 0 and draw(st.booleans()) else value


@st.composite
def _triples(draw, mode):
    if mode == "continuous":
        p = draw(st.floats(0.0, 1.0))
        n = draw(st.floats(0.0, 1.0 - p))
        return (p, n, draw(st.floats(0.0, max(0.0, 1.0 - p - n))))
    if mode == "signed-zeros":  # zero ties of either sign on every channel
        return tuple(draw(st.sampled_from((0.0, -0.0, 0.25))) for _ in range(3))
    if mode == "band":  # plateaus with dips around TOL_CMP deep
        return tuple(draw(st.sampled_from(_BAND)) for _ in range(3))
    a = draw(st.integers(0, 8))
    b = draw(st.integers(0, 8 - a))
    c = draw(st.integers(0, 8 - a - b))
    return tuple(draw(_signed(k / 8)) for k in (a, b, c))


@st.composite
def _sampled_cases(draw):
    m = draw(st.sampled_from((5, 6, 3, 4, 1, 2)))
    depth = draw(st.integers(1, 4))
    domain = draw(st.sampled_from(
        ("integers", "signed-zero", "ulp-lattice", "half-ulp", "uneven", "overflow")
    ))
    if domain == "integers":
        points = [float(i) for i in range(m)]
    elif domain == "signed-zero":  # ends at the node -0.0
        points = [float(i - m + 1) or -0.0 for i in range(m)]
    elif domain == "ulp-lattice":  # the span holds no float but the nodes
        points = [2.0**52 + i for i in range(m)]
    elif domain == "half-ulp":  # every float of the span is a node or a midpoint
        points = [2.0**51 + i for i in range(m)]
    elif domain == "uneven":
        steps = draw(st.lists(st.floats(0.01, 3.0), min_size=m - 1, max_size=m - 1))
        points = [draw(st.floats(-5.0, 5.0))]
        for step in steps:
            points.append(points[-1] + step)
    else:  # hi - lo overflows (for m > 1), so the grid is refused
        points = [1.5e308 * (2 * i / max(m - 1, 1) - 1) for i in range(m)]
    mode = draw(st.sampled_from(("lattice", "signed-zeros", "continuous", "edge")))
    if mode == "edge":  # every level flat at a bound, so blends round past it
        levels = draw(st.lists(st.sampled_from(_EDGE_TRIPLES), min_size=depth, max_size=depth))
        values = [levels] * m
    else:
        values = [draw(st.lists(_triples(mode), min_size=depth, max_size=depth)) for _ in range(m)]
    # levels sorted by positive degree keep that channel nonincreasing
    values = [sorted(levels, key=lambda t: -t[0]) for levels in values]
    pairs = draw(st.sampled_from((4, 12, 1, 0)))
    lambdas = draw(st.sampled_from((1, 2, 3, 5, 21)))
    block = draw(st.sampled_from((convexity._BLOCK_POINTS, 1, 7, 30)))
    return points, values, pairs, lambdas, draw(st.integers(0, 2**32 - 1)), block


class TestSampledDifferential:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_sampled_cases())
    def test_report_bits_match_scalar_reference(self, case):
        points, values, pairs, lambdas, seed, block = case
        if not math.isfinite(points[-1] - points[0]):
            # an instance whose span overflows cannot be queried, so its
            # grid is refused before any check runs
            with pytest.raises(InvalidGrid, match="span"):
                multiset_from_values(points, values)
            return
        ms = multiset_from_values(points, values)
        expected = _outcome(_reference_sampled, ms, pairs, lambdas, seed)
        with pytest.MonkeyPatch.context() as patch:
            # small blocks put a pair's successors in later blocks
            patch.setattr(convexity, "_BLOCK_POINTS", block)
            assert _outcome(is_convex_sampled, ms, pairs, lambdas, seed) == expected

    def test_blocks_after_the_witness_still_clear_level_flags(self):
        # with seed 7 the first pair fails level 1 only and a later pair
        # level 2, which one pair per block puts in a block of its own
        ms = multiset_from_values(
            [0.0, 1.0, 2.0, 3.0, 4.0],
            [[[0.5, 0.0, 0.0], [0.1, 0.0, 0.0]], [[0.1, 0.0, 0.0], [0.1, 0.0, 0.0]],
             [[0.5, 0.0, 0.0], [0.1, 0.0, 0.0]], [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
             [[0.5, 0.0, 0.0], [0.1, 0.0, 0.0]]],
        )
        assert _reference_sampled(ms, 1, 5, 7).levels == (False, True)
        expected = _outcome(_reference_sampled, ms, 12, 5, 7)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convexity, "_BLOCK_POINTS", 1)
            assert _outcome(is_convex_sampled, ms, 12, 5, 7) == expected
        assert is_convex_sampled(ms, 12, 5, 7).levels == (False, False)


def _reference_dip(seq):
    """(left, mid, right) of the deepest interior dip of a list deeper than
    TOL_CMP, ``mid`` the first of the deepest, ``left``/``right`` its
    nearest flanks reaching the reference; or None."""
    best = None
    for i in range(1, len(seq) - 1):
        ref = min(max(seq[:i]), max(seq[i + 1 :]))
        deficit = ref - seq[i]
        if deficit > TOL_CMP and (best is None or deficit > best[0]):
            best = (deficit, i, ref)
    if best is None:
        return None
    _, mid, ref = best
    left = max(j for j in range(mid) if seq[j] >= ref)
    right = min(j for j in range(mid + 1, len(seq)) if seq[j] >= ref)
    return left, mid, right


def _reference_exact(ms):
    """The exact check as a loop over levels and channels of Python lists:
    the deepest dip of the first failing level and channel."""
    xs = ms.grid.points
    levels, witness = [], None
    for k in range(ms.depth):
        level_ok = True
        for c, channel in enumerate(CHANNELS):
            nodes = ms.values[:, k, c].tolist()
            sign = -1.0 if channel == "negative" else 1.0
            dip = _reference_dip([sign * v for v in nodes])
            if dip is None:
                continue
            level_ok = False
            if witness is None:
                left, mid, right = dip
                x, y = xs[left], xs[right]
                ends = (nodes[left], nodes[right])
                rhs = max(ends) if channel == "negative" else min(ends)
                witness = convexity.Witness(
                    x, y, (xs[mid] - x) / (y - x), k + 1, channel, nodes[mid], rhs
                )
        levels.append(level_ok)
    return convexity.ConvexityReport(witness is None, tuple(levels), witness)


def _running_max(seq):
    """Running maxima of a list; a tie (0.0 against -0.0) takes the
    current value, as the envelope kernel documents."""
    out, best = [], seq[0]
    for v in seq:
        best = v if v >= best else best
        out.append(best)
    return out


def _reference_hull(ms):
    """Hull values and sum-bound mask per (level, channel) column: the
    smaller of the two running maxima of the signed column, the left one
    on ties, or the column itself when no node is more than TOL_CMP below
    that."""
    values = np.empty_like(ms.values)
    for k in range(ms.depth):
        for c, channel in enumerate(CHANNELS):
            sign = -1.0 if channel == "negative" else 1.0
            signed = [sign * v for v in ms.values[:, k, c].tolist()]
            left = _running_max(signed)
            right = _running_max(signed[::-1])[::-1]
            env = [r if r < lt else lt for lt, r in zip(left, right)]
            if all(e - v <= TOL_CMP for e, v in zip(env, signed)):
                env = signed
            values[:, k, c] = [sign * e for e in env]
    mask = [[(p + n) + g <= 1.0 + TOL_SUM for p, n, g in level] for level in values.tolist()]
    return values, mask


@st.composite
def _row(draw, m, top, shape):
    """A node row of m values from (0.0, -0.0, top / 2, top), so with flat
    runs and signed-zero ties: unimodal (shape 1) or anti-unimodal (shape
    -1) by construction about a drawn peak, or as drawn (shape 0)."""
    values = draw(st.lists(st.sampled_from((0.0, -0.0, top / 2, top)), min_size=m, max_size=m))
    if shape:  # sorted keeps the drawn order of tied zeros
        peak = draw(st.integers(0, m))
        values = sorted(values[:peak], reverse=shape < 0) + sorted(values[peak:], reverse=shape > 0)
    return values


@st.composite
def _mixed_rows(draw, m, depth):
    """Values of an instance whose (level, channel) rows each are well
    shaped or as drawn, so that one instance mixes rows that pass the row
    test with rows that fail it.  A level's positive row is the first
    level's halved, which keeps both its shape and the level order."""
    def row(top, sign):
        return draw(_row(m, top, draw(st.sampled_from((sign, 0)))))

    positive = row(0.375, 1)
    levels = [
        ([v * 0.5**k for v in positive], row(0.375, 1), row(0.25, -1))
        for k in range(depth)
    ]
    return [[(p[i], n[i], g[i]) for p, n, g in levels] for i in range(m)]


@st.composite
def _exact_cases(draw):
    m = draw(st.sampled_from((1, 2, 3, 5, 8, 13, 40)))
    depth = draw(st.integers(1, 4))
    if draw(st.booleans()):
        points = [float(i) for i in range(m)]
    else:
        steps = draw(st.lists(st.floats(0.01, 3.0), min_size=m - 1, max_size=m - 1))
        points = [draw(st.floats(-5.0, 5.0))]
        for step in steps:
            points.append(points[-1] + step)
    mode = draw(st.sampled_from(("lattice", "signed-zeros", "continuous", "band", "mixed")))
    if mode == "mixed":
        return multiset_from_values(points, draw(_mixed_rows(m, depth)))
    values = [draw(st.lists(_triples(mode), min_size=depth, max_size=depth)) for _ in range(m)]
    # levels sorted by positive degree keep that channel nonincreasing
    values = [sorted(levels, key=lambda t: -t[0]) for levels in values]
    return multiset_from_values(points, values)


def _plateau_rows(rng, m, depth):
    """Well-shaped values of an instance above the row-test gate, with
    0.0/-0.0 plateaus: each positive and neutral row rises through
    (0.0, -0.0, 0.125, 0.25) in sorted order and falls back, and each
    negative row falls through (0.25, 0.125) to a valley of drawn signed
    zeros and rises back.  The positive row at level k is the first
    level's times 0.5**k, which keeps the level order."""
    def profile():
        half = sorted(rng.choice((0.0, -0.0, 0.125, 0.25)) for _ in range(m // 2))
        return half + half[::-1]

    base = profile()
    values = np.empty((m, depth, 3))
    for k in range(depth):
        values[:, k, 0] = [b * 0.5**k for b in base]
        values[:, k, 1] = profile()
        values[:, k, 2] = [0.25 - b or rng.choice((0.0, -0.0)) for b in profile()]
    return values


def _peak_span(row):
    """First and last node of a unimodal row's top plateau."""
    top = np.flatnonzero(row == row.max())
    return int(top[0]), int(top[-1])


def _windowed_case(kind, seed):
    """An instance of 300 nodes and depth 3 (900 triples, above the row-test
    gate) with dips planted so that the window of _dipping_rows has the
    shape ``kind`` names."""
    rng = random.Random(seed)
    m, depth = 300, 3
    v = _plateau_rows(rng, m, depth)
    if kind == "nested":
        # a neutral dip at level 1 holds a negative bump at level 2 and a
        # positive dip at the last level, each in its own narrower window
        lo, hi = _peak_span(v[:, 0, 1])
        v[lo + 3 : hi - 3, 0, 1] = 0.125
        bump = _peak_span(-v[:, 1, 2])
        mid = sum(bump) // 2 + rng.randrange(-3, 3)
        v[mid : mid + rng.randrange(1, 4), 1, 2] = 0.125
        lo, hi = _peak_span(v[:, 2, 0])
        v[(lo + hi) // 2, 2, 0] = rng.choice((0.0, -0.0))
    elif kind == "staggered":
        # the earliest first fall and the latest last rise are in different rows
        lo, hi = _peak_span(v[:, 0, 1])
        v[lo + 2, 0, 1] = 0.0
        lo, hi = _peak_span(v[:, 1, 1])
        v[hi - 2, 1, 1] = -0.0
    elif kind == "left-edge":  # a fall from node 0: node 1 dips
        v[0, 1, 1] = 0.125
    elif kind == "right-edge":  # a rise into node m - 1: node m - 2 dips
        v[-1, 0, 2] = 0.125
    elif kind == "signed-zero-edges":
        # bumps of the negative rows inside their valleys of signed zeros, so
        # the window's edge nodes and every reference are 0.0 or -0.0
        for k in range(depth):
            lo, hi = _peak_span(-v[:, k, 2])
            mid = rng.randrange(lo + 2, hi - 3)
            v[mid : mid + rng.randrange(1, 3), k, 2] = 0.125
    elif kind == "sum-break":
        # a last-level neutral dip to 0.0 under a positive peak of 0.875: the
        # hull lifts it to 0.25, past the sum bound; the neutral rows above it
        # are flat zero, and a negative bump at level 1 changes that level
        # within the bound
        lo, hi = _peak_span(v[:, -1, 1])
        i = rng.randrange(lo + 1, hi)
        v[:, :, 0] = 0.0
        v[:, :-1, 1] = 0.0
        v[i] = (0.875, 0.0, 0.0)
        lo, hi = _peak_span(-v[:, 0, 2])
        v[(lo + hi) // 2, 0, 2] = 0.125
    return multiset_from_values([float(x) for x in range(m)], v)


def _witness_hex(report):
    w = report.witness
    return None if w is None else (
        [float.hex(v) for v in (w.x, w.y, w.lam, w.lhs, w.rhs)] + [w.level, w.channel]
    )


class TestExactDifferential:
    # Instances below _ROW_TEST_TRIPLES scan every row; with the gate at 0 the
    # same cases take the row test, the gather and the scatter.
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_exact_cases(), st.sampled_from((None, 0)))
    def test_report_and_hull_bits_match_scalar_references(self, ms, gate):
        with pytest.MonkeyPatch.context() as patch:
            if gate is not None:
                patch.setattr(convexity, "_ROW_TEST_TRIPLES", gate)
            report = _outcome(is_convex_exact, ms)
            hull = convex_hull(ms)
        assert report == _outcome(_reference_exact, ms)
        values, mask = _reference_hull(ms)
        assert hull.values.dtype == values.dtype and hull.values.shape == values.shape
        assert hull.values.tobytes() == values.tobytes()
        assert hull.mask.dtype == bool and hull.mask.tolist() == mask

    @pytest.mark.parametrize("seed", range(3))
    def test_large_grids_match_scalar_references(self, seed):
        # Above the gate without patching: a unimodal grid of 300 nodes whose
        # plateaus mix 0.0 and -0.0, with one node at the peak dipping on a
        # seeded channel (the positive one at every level, to keep their order).
        rng = random.Random(seed)
        m, depth = 300, 3
        rise = sorted(rng.choice((0.0, -0.0, 0.125, 0.25)) for _ in range(m // 2))
        values = [[[b * 0.5**k, b, 0.25 - b] for k in range(depth)] for b in rise + rise[::-1]]
        i, c, k = m // 2 + rng.randrange(-4, 4), rng.randrange(3), rng.randrange(depth)
        for level in values[i] if c == 0 else values[i][k : k + 1]:
            level[c] = 0.25 if c == 2 else 0.0
        ms = multiset_from_values([float(x) for x in range(m)], values)
        assert ms.size * ms.depth >= convexity._ROW_TEST_TRIPLES
        assert not is_convex_exact(ms).convex
        assert _outcome(is_convex_exact, ms) == _outcome(_reference_exact, ms)
        assert convex_hull(ms).values.tobytes() == _reference_hull(ms)[0].tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", [
        "nested", "staggered", "left-edge", "right-edge", "signed-zero-edges", "sum-break",
    ])
    def test_windowed_scans_match_scalar_references(self, kind, seed):
        # Above the gate without patching, so only the window of the dipping
        # rows is scanned and the hull's sum test runs on that window alone.
        ms = _windowed_case(kind, seed)
        assert ms.size * ms.depth >= convexity._ROW_TEST_TRIPLES
        rows, win = convexity._dipping_rows(ms.values)
        assert rows.size and win.stop - win.start < ms.size
        if kind == "nested":
            assert len(set((rows // 3).tolist())) > 1 and len(set((rows % 3).tolist())) > 1
        if kind == "signed-zero-edges":
            edges = ms.values[[win.start, win.stop - 1], :, 2]
            assert len(rows) == ms.depth and not edges.any()
        if kind == "left-edge":
            assert win.start == 0
        if kind == "right-edge":
            assert win.stop == ms.size
        if kind == "sum-break":
            assert {0, ms.depth - 1} <= set((rows // 3).tolist())
        report, expected = is_convex_exact(ms), _reference_exact(ms)
        assert not report.convex
        assert _outcome(is_convex_exact, ms) == _outcome(_reference_exact, ms)
        assert _witness_hex(report) == _witness_hex(expected)
        hull = convex_hull(ms)
        values, mask = _reference_hull(ms)
        assert hull.values.tobytes() == values.tobytes()
        assert hull.mask.dtype == bool and hull.mask.tolist() == mask
        assert hull.mask[:, :-1].all()
        assert bool(hull.mask[:, -1].all()) is (kind != "sum-break")


def _sweep_dips(row):
    """Whether a row signed by CHANNEL_SIGNS dips, by Zadeh's cut theorem
    and no running maximum: the cut at the p-th largest value holds the
    top p nodes and spans the least to the greatest of their indices, and
    the row dips when some span's least node lies more than TOL_CMP below
    that value.  A sparse table of range minima answers every span."""
    order = np.argsort(-row, kind="stable")
    lo, hi = np.minimum.accumulate(order), np.maximum.accumulate(order)
    table = [row]
    while 2 ** len(table) <= len(row):
        half = 2 ** (len(table) - 1)
        table.append(np.minimum(table[-1][:-half], table[-1][half:]))
    table = np.array([np.pad(t, (0, len(row) - len(t)), constant_values=np.inf) for t in table])
    j = np.frexp(hi - lo + 1)[1] - 1  # the largest power of two in each span
    least = np.minimum(table[j, lo], table[j, hi - 2**j + 1])
    return bool((row[order] - least > TOL_CMP).any())


def _sweep_row(rng, m, kind):
    """One row in [0, 0.25] before signing: unimodal with 0.0/-0.0
    plateaus, the same with dips 0.5 or 2 x TOL_CMP deep at nodes on a
    plateau of at least 0.125, or noise with many dips."""
    if rng.random() < 0.5:
        row = rng.choice([0.0, -0.0, 0.125, 0.25], m)
    else:
        row = rng.uniform(0.0, 0.25, m)
    if kind == "noisy":
        return row
    peak = rng.choice((0, m, rng.integers(0, m + 1)))  # monotone, or rising then falling
    row = np.concatenate((np.sort(row[:peak]), np.sort(row[peak:])[::-1]))
    if kind != "unimodal":
        for i in rng.integers(1, m - 1, rng.integers(1, 6)):
            if min(row[i - 1], row[i + 1]) >= 0.125:
                row[i] = min(row[i - 1], row[i + 1]) - (0.5 if kind == "shallow" else 2.0) * TOL_CMP
    return row


@st.composite
def _sweep_cases(draw):
    depth = draw(st.integers(1, 8))
    m = draw(st.integers(-(-768 // depth), 4096 // depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # every row within the tolerance, or any mix
    kinds = st.sampled_from(("unimodal", "shallow") + draw(st.sampled_from(((), ("noisy", "deep")))))
    values = np.empty((m, depth, 3))
    top = _sweep_row(rng, m, draw(kinds))
    for k in range(depth):
        # halving keeps the positive rows' shape and order; a row of the
        # negative channel is 0.25 minus a drawn one, so it dips upwards
        values[:, k, 0] = top * 0.5**k
        values[:, k, 1] = _sweep_row(rng, m, draw(kinds))
        values[:, k, 2] = 0.25 - _sweep_row(rng, m, draw(kinds))
    zeros = values == 0.0
    values[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return multiset_from_values([float(x) for x in range(m)], values.tolist())


class TestCutSweep:
    """The cut-theorem sweep (_sweep_dips) as an independent decider above
    the row-test gate, where the exact check scans only the rows that rise
    after a fall, over their window."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_sweep_cases())
    def test_levels_match_the_exact_check(self, ms):
        assert ms.size * ms.depth >= convexity._ROW_TEST_TRIPLES
        signed = ms.values * CHANNEL_SIGNS
        levels = tuple(
            not any(_sweep_dips(signed[:, k, c]) for c in range(3)) for k in range(ms.depth)
        )
        report = is_convex_exact(ms)
        assert report.levels == levels and report.convex is all(levels)
        w = report.witness
        if w is not None:
            lhs = ms.evaluate((1.0 - w.lam) * w.x + w.lam * w.y, w.level).channel(w.channel)
            ends = [ms.evaluate(x, w.level).channel(w.channel) for x in (w.x, w.y)]
            if w.channel == "negative":
                assert lhs > max(ends) + TOL_CMP
            else:
                assert lhs < min(ends) - TOL_CMP

    @pytest.mark.parametrize("dip", [0.5, 1.0, 2.0])
    def test_a_planted_dip_near_the_tolerance_edge(self, dip):
        row = np.full(800, 0.25)
        row[400] -= dip * TOL_CMP
        dips = not is_convex_exact(positive_only(range(800), row.tolist())).convex
        assert _sweep_dips(row) is dips is bool(0.25 - row[400] > TOL_CMP)
        assert dips is (dip == 2.0)
        assert _sweep_dips(-row) is False  # a bump, not a dip


def _reference_upper(xs, vs, threshold):
    """{x : v(x) >= threshold} as one piece per segment that meets it,
    each crossing solved and clamped into its segment, merged by
    CutRegion."""
    if len(xs) == 1:
        return CutRegion(((xs[0], xs[0]),) if vs[0] >= threshold else ())
    pieces = []
    for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
        in0, in1 = v0 >= threshold, v1 >= threshold
        if in0 and in1:
            pieces.append((x0, x1))
        elif in0 or in1:
            xc = min(max(x0 + (threshold - v0) / (v1 - v0) * (x1 - x0), x0), x1)
            pieces.append((x0, xc) if in0 else (xc, x1))
    return CutRegion(tuple(pieces))


def _reference_intersect(mine, theirs):
    """Two regions' intersection by a sweep over both interval lists; ties
    between 0.0 and -0.0 keep ``mine``'s endpoint, as max and min do."""
    out, i, j = [], 0, 0
    mine, theirs = mine.intervals, theirs.intervals
    while i < len(mine) and j < len(theirs):
        lo, hi = max(mine[i][0], theirs[j][0]), min(mine[i][1], theirs[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if mine[i][1] < theirs[j][1]:
            i += 1
        else:
            j += 1
    return CutRegion(tuple(out))


def _reference_cut(ms, thresholds, level):
    r, s, t = thresholds
    xs, nodes = ms.grid.points, ms.values[:, level - 1].tolist()
    region = _reference_upper(xs, [p for p, _, _ in nodes], r)
    region = _reference_intersect(region, _reference_upper(xs, [n for _, n, _ in nodes], s))
    return _reference_intersect(region, _reference_upper(xs, [-g for _, _, g in nodes], -t))


def _region_outcome(solve, *args):
    """Every endpoint as float.hex, which tells -0.0 from 0.0; or the
    error raised."""
    try:
        region = solve(*args)
    except PfmsError as exc:
        return ("raises", type(exc), str(exc))
    return [(a.hex(), b.hex()) for a, b in region.intervals]


@st.composite
def _cut_cases(draw):
    m = draw(st.sampled_from((1, 2, 3, 4, 6, 9)))
    depth = draw(st.integers(1, 3))
    domain = draw(st.sampled_from(("integers", "signed-zero", "ulp-lattice", "uneven")))
    if domain == "integers":
        points = [float(i) for i in range(m)]
    elif domain == "signed-zero":  # -0.0 is a node, inside or at an end
        shift = draw(st.integers(0, m - 1))
        points = [float(i - shift) or -0.0 for i in range(m)]
    elif domain == "ulp-lattice":  # every crossing rounds onto a node
        points = [2.0**52 + i for i in range(m)]
    else:
        steps = draw(st.lists(st.floats(1e-3, 3.0), min_size=m - 1, max_size=m - 1))
        points = [draw(st.floats(-5.0, 5.0))]
        for step in steps:
            points.append(points[-1] + step)
    mode = draw(st.sampled_from(("lattice", "signed-zeros", "continuous", "band", "mixed")))
    if mode == "mixed":
        values = draw(_mixed_rows(m, depth))
    else:
        values = [draw(st.lists(_triples(mode), min_size=depth, max_size=depth)) for _ in range(m)]
        values = [sorted(levels, key=lambda t: -t[0]) for levels in values]
    level = draw(st.integers(1, depth))
    # thresholds at node values (of either sign of zero), or anywhere
    thresholds = []
    for c in range(3):
        nodes = [levels[level - 1][c] for levels in values]
        at_node = st.sampled_from(nodes + [0.0, -0.0, 1.0])
        thresholds.append(draw(st.one_of(at_node, st.floats(0.0, 1.0))))
    return points, values, tuple(thresholds), level


class TestCutDifferential:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(_cut_cases())
    def test_intervals_match_scalar_reference(self, case):
        points, values, thresholds, level = case
        ms = multiset_from_values(points, values)
        expected = _region_outcome(_reference_cut, ms, thresholds, level)
        assert _region_outcome(cut, ms, thresholds, level) == expected
        assert_canonical(cut(ms, thresholds, level))

    @pytest.mark.parametrize("points, values, thresholds, expected", [
        # crossings of two channels rounded onto one node from its two
        # sides: the node is a piece though no segment holds it for both
        ([2.0**52, 2.0**52 + 1, 2.0**52 + 2],
         [[0.3, 0.1, 0.3], [0.0, 0.1, 0.3], [0.0, 0.75, 0.25]],
         (0.1, 0.3013, 0.68), [(2.0**52 + 1, 2.0**52 + 1)]),
        ([2.0**52, 2.0**52 + 1, 2.0**52 + 2, 2.0**52 + 3],
         [[0.3, 0.0, 0.3], [0.5, 0.3, 0.1], [0.25, 0.1, 0.0], [0.25, 0.75, 0.0]],
         (0.3, 0.25, 0.125), [(2.0**52 + 1, 2.0**52 + 1), (2.0**52 + 2, 2.0**52 + 2)]),
        # the neutral channel leaves at -0.0 on a crossing solved as 0.0,
        # while the positive channel goes on: the exit's 0.0 ends the piece
        ([-1.0, -0.0, 1.0],
         [[0.15, 0.386, 0.46], [0.25, -5e-324, -0.0], [0.446, 0.5527, 5e-324]],
         (0.2, -0.0, 0.88), [(-0.4999999999999999, 0.0), (1e-323, 1.0)]),
        # the positive channel leaves onto -0.0 and enters again from it, so
        # it goes on: the negative channel's exit at -0.0 ends the piece
        ([-1.0, -0.5, -0.0, 0.5],
         [[0.0, 0.0, 0.0], [0.3, -5e-324, 0.25], [-5e-324, -0.0, 0.1], [0.75, 0.0, 0.2]],
         (0.0, -0.0, 0.1), [(-1.0, -1.0), (0.0, -0.0)]),
        # every channel leaves onto the middle node and enters again from it
        ([2.0**52, 2.0**52 + 1, 2.0**52 + 2],
         [[0.5, 0.4, 0.1], [0.1, 0.1, 0.5], [0.5, 0.4, 0.1]],
         (0.1000001, 0.1000001, 0.4999999), [(2.0**52, 2.0**52 + 2)]),
    ])
    def test_crossings_rounded_onto_a_node(self, points, values, thresholds, expected):
        ms = multiset_from_values(points, [[triple] for triple in values])
        got = _region_outcome(cut, ms, thresholds, 1)
        assert got == [(a.hex(), b.hex()) for a, b in expected]
        assert got == _region_outcome(_reference_cut, ms, thresholds, 1)

    @pytest.mark.parametrize("points, negative, expected", [
        # t = 0.0 makes the negated threshold -0.0, equal to the negated
        # node value 0.0 at x = -0.0, where the exit is solved as 0.0: it
        # merges into the segment that ends at -0.0, which keeps its sign,
        # but where the region starts at that node it stays 0.0
        ([-1.0, -0.0, 1.0], [-0.0, -0.0, 0.5], [(-1.0, -0.0)]),
        ([-0.0, 1.0], [-0.0, 0.5], [(-0.0, 0.0)]),
    ])
    def test_exit_onto_a_signed_zero_node(self, points, negative, expected):
        ms = multiset_from_values(points, [[[0.0, 0.0, g]] for g in negative])
        got = _region_outcome(cut, ms, (0.0, 0.0, 0.0), 1)
        assert got == [(a.hex(), b.hex()) for a, b in expected]
        assert got == _region_outcome(_reference_cut, ms, (0.0, 0.0, 0.0), 1)

    @pytest.mark.parametrize("seed", range(24))
    def test_large_noisy_rows_match_scalar_reference(self, seed):
        # m = 300-2,000 nodes on an ulp lattice (every crossing rounds onto a
        # node), around a -0.0 node or on the integers, with grades on a
        # lattice spaced 5e-324, 1e-310, 1e-300 or 1/8 and thresholds at node
        # values or their neighbours: the cut has tens to hundreds of pieces
        rng = random.Random(seed)
        m = rng.randint(300, 2000)
        points = (
            [2.0**52 + i for i in range(m)],
            [float(i - m // 2) or -0.0 for i in range(m)],
            [float(i) for i in range(m)],
        )[seed % 3]
        step = (5e-324, 1e-310, 1e-300, 0.125)[seed % 4]
        lattice = (-0.0, 0.0, step, 2 * step)
        ms = multiset_from_values(points, [[[rng.choice(lattice) for _ in range(3)]] for _ in range(m)])
        up, down = math.nextafter(step, 1.0), math.nextafter(step, 0.0)
        thresholds = (rng.choice((step, up, down)), rng.choice((step, up, down, -0.0)),
                      rng.choice((0.0, -0.0, step, down)))
        got = _region_outcome(cut, ms, thresholds, 1)
        assert got == _region_outcome(_reference_cut, ms, thresholds, 1)
        assert len(got) >= 10
        assert_canonical(cut(ms, thresholds, 1))


_EPS = Fraction(1, 2**52)
# thresholds every node meets: each cut of one channel alone
_VACUOUS = (-TOL_CMP, -TOL_CMP, 1.0 + TOL_CMP)


def _exact_channel(xs, vs, u):
    """{v >= u} of the channel through the rational nodes (xs, vs), solved
    exactly: per piece its ends, its first node and, per end, the bound
    2 eps max(|x0|, |x1|, x1 - x0) of the segment [x0, x1] the end was
    solved on (0 for a grid end)."""
    def crossing(i):  # strictly inside segment i, as v[i] and v[i + 1] straddle u
        x0, x1, v0, v1 = xs[i], xs[i + 1], vs[i], vs[i + 1]
        return x0 + (u - v0) / (v1 - v0) * (x1 - x0), 2 * _EPS * max(abs(x0), abs(x1), x1 - x0)

    pieces = []
    for inside, run in groupby(range(len(xs)), key=lambda i: vs[i] >= u):
        run = list(run)
        if inside:
            start = (xs[0], 0) if run[0] == 0 else crossing(run[0] - 1)
            end = (xs[-1], 0) if run[-1] == len(xs) - 1 else crossing(run[-1])
            pieces.append((start, end, run[0]))
    return pieces


def _exact_intersect(mine, theirs):
    """Two lists of rational pieces intersected exactly."""
    out, i, j = [], 0, 0
    while i < len(mine) and j < len(theirs):
        lo, hi = max(mine[i][0], theirs[j][0]), min(mine[i][1], theirs[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if mine[i][1] < theirs[j][1]:
            i += 1
        else:
            j += 1
    return out


def _ulps(v, k):
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


@st.composite
def _rational_cases(draw):
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):
        unit = [float(i) for i in range(m)]
    else:
        unit = [0.0]
        for step in draw(st.lists(st.floats(0.01, 3.0), min_size=m - 1, max_size=m - 1)):
            unit.append(unit[-1] + step)
    scale = 10.0 ** draw(st.integers(-6, 9))
    offset = draw(st.one_of(st.sampled_from((0.0, -1e6, 1e6)), st.floats(-1e6, 1e6)))
    points = [offset + scale * x for x in unit]
    zero = draw(st.sampled_from((None, "node", "segment")))
    if zero and m > 1:  # 0 at a node, as -0.0, or inside a segment
        k = draw(st.integers(0, m - 2))
        mid = points[k] if zero == "node" else (points[k] + points[k + 1]) / 2
        points = [x - mid for x in points]
        if zero == "node":
            points[k] = -0.0
    rows = []
    for _ in range(3):
        v, row = draw(st.floats(0.0, 0.33)), []
        for _ in range(m):
            step = draw(st.sampled_from(("new", "same", "ulps", "zero")))
            if step == "new":
                v = draw(st.floats(0.0, 0.33))
            elif step == "ulps":  # a near-flat segment
                v = min(max(_ulps(v, draw(st.integers(-4, 4))), 0.0), 0.33)
            elif step == "zero":
                v = draw(st.sampled_from((0.0, -0.0)))
            row.append(v)
        rows.append(row)
    thresholds = tuple(
        draw(st.one_of(
            # within a few ulps of a node value
            st.builds(_ulps, st.sampled_from(row), st.integers(-3, 3)).map(lambda v: min(max(v, 0.0), 0.33)),
            st.floats(0.0, 0.33),
            st.sampled_from((0.0, -0.0)),
        ))
        for row in rows
    )
    return points, [[[p, n, g]] for p, n, g in zip(*rows)], thresholds


class TestCutExactRationals:
    """cut against fractions.Fraction: every crossing of one channel solved
    exactly, and the cut the exact intersection of the three channels' cuts."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_rational_cases())
    # on a segment across 0 the error exceeds 2 eps max(|x0|, |x1|) (by
    # 1.08x here): x1 - x0 is the larger operand of the solve
    @example(([-15.0, -5.0, 5.0, 15.0],
              [[[0.0, 0.07310188688719367, 0.0]], [[0.0, 0.07310188688719367, 0.0]],
               [[0.0, 0.25, 0.0]], [[0.0, 0.25, 0.0]]],
              (0.0, 0.24999999999999992, 0.0)))
    def test_endpoints_within_the_documented_bound(self, case):
        points, values, thresholds = case
        ms = multiset_from_values(points, values)
        xs = [Fraction(x) for x in ms.grid.points]
        channels = []
        for c, sign in enumerate((1, 1, -1)):
            alone = list(_VACUOUS)
            alone[c] = thresholds[c]
            got = cut(ms, alone, 1).intervals
            nodes = [sign * Fraction(v) for v in ms.values[:, 0, c].tolist()]
            exact = _exact_channel(xs, nodes, sign * Fraction(thresholds[c]))
            # each exact piece holds a node, and so lies in one piece of got;
            # consecutive ones share a piece only where their gap is within
            # the bounds of its two ends
            owner = [next(k for k, (a, b) in enumerate(got) if a <= ms.grid.points[i] <= b)
                     for _, _, i in exact]
            assert sorted(set(owner)) == list(range(len(got))) and owner == sorted(owner)
            for k, (a, b) in enumerate(got):
                run = [piece for piece, o in zip(exact, owner) if o == k]
                (start, start_bound), (end, end_bound) = run[0][0], run[-1][1]
                assert abs(Fraction(a) - start) <= start_bound
                assert abs(Fraction(b) - end) <= end_bound
                for before, after in zip(run, run[1:]):
                    assert after[0][0] - before[1][0] <= before[1][1] + after[0][1]
            channels.append([(Fraction(a), Fraction(b)) for a, b in got])
        region = _exact_intersect(_exact_intersect(channels[0], channels[1]), channels[2])
        got = cut(ms, thresholds, 1).intervals
        assert [(Fraction(a), Fraction(b)) for a, b in got] == region


class TestCut:
    def test_worked_example(self, convex_ms):
        region = cut(convex_ms, CutThresholds(0.4, 0.15, 0.2), 1)
        (a, b), = region.intervals
        assert a == pytest.approx(0.75, **APPROX)
        assert b == pytest.approx(4.0 / 3.0, **APPROX)

    def test_vacuous_thresholds_full_domain(self, convex_ms):
        region = cut(convex_ms, (0.0, 0.0, 1.0), 1)
        assert region.intervals == ((0.0, 2.0),)

    def test_infeasible_positive_threshold(self, convex_ms):
        assert cut(convex_ms, (0.7, 0.0, 1.0), 1).intervals == ()

    def test_bimodal_split(self, bimodal_ms):
        region = cut(bimodal_ms, (0.5, 0.0, 1.0), 1)
        (a1, b1), (a2, b2) = region.intervals
        assert a1 == 0.0 and b1 == pytest.approx(0.2, **APPROX)
        assert (a2, b2) == (2.0, 2.0)

    def test_single_node_grid(self):
        ms = positive_only((1.5,), [0.5])
        assert cut(ms, (0.4, 0.0, 1.0), 1).intervals == ((1.5, 1.5),)
        assert cut(ms, (0.6, 0.0, 1.0), 1).intervals == ()

    def test_bad_level(self, convex_ms):
        with pytest.raises(BadLevel):
            cut(convex_ms, (0.1, 0.1, 0.9), 2)

    @pytest.mark.parametrize("thresholds, error, message", [
        ((0.1, 0.2), LengthMismatch, "thresholds must be three values (r, s, t), got 2"),
        ((0.1, 0.2, 0.3, 0.4), LengthMismatch,
         "thresholds must be three values (r, s, t), got 4"),
        # a number or None is one value, as a level's is
        (5, LengthMismatch, "thresholds must be three values (r, s, t), got 1"),
        (None, LengthMismatch, "thresholds must be three values (r, s, t), got 1"),
        # three items reach CutThresholds, which checks each
        ("abc", OutOfUnitInterval, "r must be a real number, got 'a'"),
    ])
    def test_thresholds_must_be_three_values(self, convex_ms, thresholds, error, message):
        with pytest.raises(error) as refused:
            cut(convex_ms, thresholds, 1)
        assert str(refused.value) == message

    def test_three_thresholds_from_an_iterator(self, convex_ms):
        thresholds = (0.1, 0.1, 0.9)
        assert cut(convex_ms, iter(thresholds), 1) == cut(convex_ms, thresholds, 1)

    def test_threshold_monotonicity(self, convex_ms, bimodal_ms):
        for ms in (convex_ms, bimodal_ms):
            base = cut(ms, (0.2, 0.05, 0.5), 1)
            tighter = cut(ms, (0.35, 0.1, 0.35), 1)
            assert region_subset(tighter, base)


def _node_value_cuts(ms, level):
    """Pieces of every single-channel cut at one of the level's node
    values, the other thresholds at 0, 0 and 1, by channel."""
    counts = {name: [] for name in CHANNELS}
    for c, name in enumerate(CHANNELS):
        for v in ms.values[:, level - 1, c].tolist():
            thresholds = [0.0, 0.0, 1.0]
            thresholds[c] = v
            counts[name].append(len(cut(ms, thresholds, level).intervals))
    return counts


class TestCutTheorem:
    """Zadeh's cut theorem on the library's own cut: a level is convex
    exactly when every cut is an interval, so each node-value cut of one
    channel of a convex instance is at most one interval, and a dip splits
    some cut of the level and channel of the exact check's witness."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 4),
           st.sampled_from((None, 0.05)))
    def test_convex_cuts_are_intervals_and_a_dip_splits_one(self, seed, m, depth, lattice):
        ms = gen_pfms(GeneratorConfig(seed=seed, grid_size=m, depth=depth,
                                      value_lattice=lattice, convex_only=True))
        for level in range(1, depth + 1):
            for counts in _node_value_cuts(ms, level).values():
                assert max(counts) <= 1
        if m < 3:
            return
        planted = plant_dip(ms, seed=seed)
        witness = is_convex_exact(planted).witness
        counts = _node_value_cuts(planted, witness.level)
        assert max(counts[witness.channel]) >= 2


class TestCutsAllConvex:
    def test_convex_fixture(self, convex_ms):
        assert cuts_all_convex(convex_ms) is True

    def test_positive_only_reduces_to_unimodality(self):
        # depth-1 instances with only a positive channel: cut convexity
        # for every threshold is exactly quasi-concavity
        good = positive_only((0.0, 1.0, 2.0, 3.0), [0.1, 0.8, 0.8, 0.2])
        bad = positive_only((0.0, 1.0, 2.0, 3.0), [0.7, 0.2, 0.2, 0.9])
        assert cuts_all_convex(good)
        assert is_convex_exact(good).convex
        assert not cuts_all_convex(bad)
        assert not is_convex_exact(bad).convex

    def test_matches_exact_checker_on_fixtures(self, convex_ms, bimodal_ms, deep_ms):
        for ms in (convex_ms, bimodal_ms, deep_ms):
            assert cuts_all_convex(ms) == is_convex_exact(ms).convex


_NO_WEIGHTS = "WeightSumInvalid: at least one weight is required"


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

    @pytest.mark.parametrize("check", [jensen_check, hull_membership_test],
                             ids=["jensen", "membership"])
    @pytest.mark.parametrize("points, weights, outcome", [
        # the weights are checked before they are counted against the points
        pytest.param([], lambda: [], _NO_WEIGHTS, id="no-points"),
        pytest.param([0.0, 2.0], lambda: [], _NO_WEIGHTS, id="two-points"),
        pytest.param([0.0, 2.0], lambda: [1.5, -0.5],
                     "OutOfUnitInterval: weight must lie in [0, 1], got 1.5", id="above-one"),
        pytest.param([0.0, 2.0], lambda: [10**400, 0.0],
                     "OutOfUnitInterval: weight must lie in [0, 1], got inf", id="huge-int"),
        # accepted forms give what the float weights in ``outcome`` give
        pytest.param([1.0], lambda: [1], [1.0], id="int"),
        pytest.param([0.0, 2.0], lambda: (w for w in (0.25, 0.75)), [0.25, 0.75],
                     id="generator"),
        # a number or None is one weight, as a number or None is one point
        pytest.param([0.5], lambda: 1.0, [1.0], id="number"),
        pytest.param(0.5, lambda: 1.0, [1.0], id="number-at-a-number"),
        pytest.param([0.5], lambda: None,
                     "OutOfUnitInterval: weight must be a real number, got None", id="none"),
        pytest.param([0.0, 2.0], lambda: 1.0,
                     "LengthMismatch: 2 points but 1 weights", id="number-two-points"),
    ])
    def test_weights(self, convex_ms, check, points, weights, outcome):
        if isinstance(outcome, str):
            with pytest.raises(PfmsError) as refused:
                check(convex_ms, points, weights(), 1)
            assert f"{type(refused.value).__name__}: {refused.value}" == outcome
        else:
            assert check(convex_ms, points, weights(), 1) == check(convex_ms, points, outcome, 1)

    @pytest.mark.parametrize("check", [jensen_check, hull_membership_test],
                             ids=["jensen", "membership"])
    @pytest.mark.parametrize("points, weights, outcome", [
        # any iterable of points is read once; a number or None is one point
        pytest.param(lambda: (x for x in (0.0, 2.0)), [0.25, 0.75], [0.0, 2.0],
                     id="generator"),
        pytest.param(lambda: iter((0.0, 2.0)), [0.25, 0.75], [0.0, 2.0], id="iterator"),
        pytest.param(lambda: 0.5, [1.0], [0.5], id="number"),
        pytest.param(lambda: None, [1.0],
                     "OutOfDomain: coordinate must be a real number, got None", id="none"),
        pytest.param(lambda: 0.5, [0.5, 0.5],
                     "LengthMismatch: 1 points but 2 weights", id="number-two-weights"),
        # the weights are checked before the points are read
        pytest.param(lambda: None, [], _NO_WEIGHTS, id="none-no-weights"),
    ])
    def test_points(self, convex_ms, check, points, weights, outcome):
        if isinstance(outcome, str):
            with pytest.raises(PfmsError) as refused:
                check(convex_ms, points(), weights, 1)
            assert f"{type(refused.value).__name__}: {refused.value}" == outcome
        else:
            assert check(convex_ms, points(), weights, 1) == check(convex_ms, outcome, weights, 1)


    @pytest.mark.parametrize("points, end", [([0.0, 50.0, 100.0], 100.0),
                                             ([-100.0, 0.0, 50.0], -100.0)])
    def test_weights_summing_past_one_keep_the_point_in_range(self, points, end):
        # weights that sum to one within TOL_SUM carry the weighted
        # coordinate 9e-8 past both points, and past the domain's end
        ms = multiset_from_values(points, [[[0.5, 0.2, 0.1]], [[0.3, 0.2, 0.1]],
                                           [[0.1, 0.0, 0.9]]])
        report = jensen_check(ms, [end, end], [0.5, 0.5000000009], 1)
        assert report.ok and report.point == end
        assert report.grades == ms.evaluate(end, 1)
        assert report.slacks == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_weighted_sum_past_the_float_range(self, sign):
        # at the largest float the same weights carry the weighted sum past
        # the float range, where math.fsum raises OverflowError
        top = sign * 1.7976931348623157e308
        ms = multiset_from_values(sorted([sign * 1e308, top]),
                                  [[[0.5, 0.2, 0.1]], [[0.1, 0.0, 0.9]]])
        report = jensen_check(ms, [top, top], [0.5, 0.5000000009], 1)
        assert report.point == top and report.grades == ms.evaluate(top, 1)
        # a sum that fsum can take whole keeps its bits
        report = jensen_check(ms, [top, sign * 1e308], [0.5, 0.5], 1)
        assert report.point == math.fsum([0.5 * top, sign * 0.5e308])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 255, 256, 300])
def test_numpy_signed_zero_tie_rules(n):
    # _majorant, _region and _intersect rest on these rules for their 0.0
    # and -0.0 bits; lengths past the vector width run the SIMD loops too
    a = np.where(np.random.default_rng(n).random(n) < 0.5, 0.0, -0.0)
    b = -a
    for x, y in ((a, b), (b, a), (a, np.zeros(n)), (np.zeros(n), a)):
        assert np.signbit(np.maximum(x, y)).tolist() == np.signbit(y).tolist()
        assert np.signbit(np.minimum(x, y)).tolist() == np.signbit(y).tolist()
    rows = np.stack((a, b, a[::-1]))
    for values in (a, b, a[::-1], rows, rows[:, ::-1]):
        # a running maximum over ties keeps the current element
        kept = np.maximum.accumulate(values, axis=-1)
        assert np.signbit(kept).tolist() == np.signbit(values).tolist()


class TestEnvelopes:
    def test_majorant_frozen_example(self):
        assert _majorant(np.array([0.6, 0.1, 0.5])).tolist() == [0.6, 0.5, 0.5]

    def test_minorant_frozen_example(self):
        hull = convex_hull(negative_only((0.0, 1.0, 2.0), (0.1, 0.6, 0.2)))
        assert hull.channel_nodes("negative", 1) == (0.1, 0.2, 0.2)

    def test_identity_on_well_shaped_input(self):
        assert _majorant(np.array([0.2, 0.6, 0.3])).tolist() == [0.2, 0.6, 0.3]
        hull = convex_hull(negative_only((0.0, 1.0, 2.0), (0.5, 0.1, 0.4)))
        assert hull.channel_nodes("negative", 1) == (0.5, 0.1, 0.4)

    def test_idempotent_and_dominant(self):
        values = np.array([0.3, 0.05, 0.5, 0.2, 0.45, 0.1])
        for signed in (values, -values):  # a minorant is a majorant mirrored
            up = _majorant(signed)
            assert np.array_equal(_majorant(up), up)
            assert (up >= signed).all()
            assert _worst_dip(up, 0.0, _majorant(up)) is None
            assert not _dips(up.tolist())


class TestConvexHull:
    def test_identity_on_convex(self, convex_ms):
        field = convex_hull(convex_ms)
        assert field.fully_valid
        for i in range(convex_ms.size):
            assert tuple(field.values[i][0]) == tuple(convex_ms.values[i, 0].tolist())

    def test_bimodal_hull_frozen(self, bimodal_ms):
        field = convex_hull(bimodal_ms)
        assert field.channel_nodes("positive", 1) == (0.6, 0.5, 0.5)
        assert field.channel_nodes("neutral", 1) == (0.1, 0.2, 0.1)
        assert field.channel_nodes("negative", 1) == (0.2, 0.1, 0.3)
        assert field.fully_valid

    def test_hull_is_idempotent_via_roundtrip(self, bimodal_ms):
        once = convex_hull(bimodal_ms)
        twice = convex_hull(PictureFuzzyMultiset(once.grid, once.values))
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
            PictureFuzzyMultiset(field.grid, field.values)

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_windowed_hull_with_invalid_triples_round_trips(self, how):
        ms = _windowed_case("sum-break", 0)
        before = ms.values.tobytes()
        field = convex_hull(ms)
        assert ms.values.tobytes() == before
        assert not field.fully_valid
        back = pickle.loads(pickle.dumps(field)) if how == "pickle" else copy.deepcopy(field)
        assert back == field and back is not field
        for array, copied in ((field.values, back.values), (field.mask, back.mask)):
            assert copied.dtype == array.dtype and copied.tobytes() == array.tobytes()
            assert array.flags.writeable is False and copied.flags.writeable is False

    def test_bad_levels_raise_what_the_multiset_raises(self, deep_ms):
        field = convex_hull(deep_ms)
        for level in (0, 3, -1, True, 1.0, "1"):
            with pytest.raises(BadLevel) as expected:
                level_index(level, deep_ms.depth)
            for query in (lambda: field.channel_at("positive", level, 0.5),
                          lambda: field.channel_nodes("positive", level)):
                with pytest.raises(BadLevel) as got:
                    query()
                assert str(got.value) == str(expected.value)

    def test_channel_at_interpolates(self, bimodal_ms):
        field = convex_hull(bimodal_ms)
        assert field.channel_at("positive", 1, 0.0) == 0.6
        assert field.channel_at("positive", 1, 0.5) == pytest.approx(0.55, **APPROX)


class TestGradeFieldConstructor:
    """A field's values are one read-only C-ordered float64 array of shape
    (points, depth >= 1, 3), whatever the constructor is given."""

    GRID = (0.0, 1.0, 2.0)
    ROWS = [[[0.6, 0.1, 0.2]], [[0.5, 0.2, 0.1]], [[0.5, 0.1, 0.3]]]

    def _grid(self):
        return multiset_from_values(self.GRID, self.ROWS).grid

    def test_writable_array_is_copied_read_only(self):
        source = np.array(self.ROWS)
        field = GradeField(self._grid(), source)
        assert field.values is not source and field.values.flags.writeable is False
        assert field.valid == ((True,), (True,), (True,))
        source[1, 0] = [1.0, 1.0, 1.0]  # a later write to the source does not reach it
        assert field.values.tolist() == self.ROWS and field.fully_valid

    def test_nested_list_is_stored_as_a_read_only_float64_array(self):
        field = GradeField(self._grid(), [[[1, 0, 0]], [[0, 1, 0]], [[1, 0, 0]]])
        assert field.values.dtype == np.float64 and field.values.flags.writeable is False
        assert field.values.flags.c_contiguous
        assert field.valid == ((True,), (True,), (True,))
        assert field.channel_at("neutral", 1, 0.5) == 0.5

    @pytest.mark.parametrize(
        "values",
        [np.zeros((2, 1, 3)), np.zeros((3, 3)), np.zeros((3, 1, 2)), np.zeros((3, 0, 3))],
        ids=["two-points", "two-axes", "two-channels", "no-levels"],
    )
    def test_wrong_shape_raises_length_mismatch(self, values):
        with pytest.raises(LengthMismatch):
            GradeField(self._grid(), values)

    @pytest.mark.parametrize("values", [[[[0.1, 0.1, 0.1]], [[0.1, 0.1]]], "a"],
                             ids=["ragged", "string"])
    def test_values_that_are_not_a_float_array_raise_length_mismatch(self, values):
        grid = multiset_from_values((0.0, 1.0), [[[0.1, 0.1, 0.1]]] * 2).grid
        with pytest.raises(LengthMismatch, match=r"need shape \(2, depth >= 1, 3\)"):
            GradeField(grid, values)

    def test_read_only_float64_array_is_kept_as_given(self, convex_ms):
        values = np.array(self.ROWS)
        values.setflags(write=False)
        assert GradeField(self._grid(), values).values is values
        assert convex_hull(convex_ms).values is convex_ms.values
        # a read-only array that is not C-ordered, or not float64, is copied
        for other in (np.asfortranarray(np.full((3, 2, 3), 0.25)),
                      np.array(self.ROWS, dtype=np.float32)):
            other.setflags(write=False)
            field = GradeField(self._grid(), other)
            assert field.values is not other and field.values.dtype == np.float64
            assert field.values.flags.c_contiguous and field.values.flags.writeable is False

    def test_field_and_multiset_never_compare_equal(self, convex_ms):
        field = GradeField(convex_ms.grid, convex_ms.values)
        assert field.values is convex_ms.values
        assert not field == convex_ms and not convex_ms == field
        with pytest.raises(TypeError):
            hash(field)


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

    @pytest.mark.parametrize("levels, expected", [
        ([[[1.0 + 1e-9, 0.0, 0.0]]] * 2, (1.0000000019800002, 0.0, 0.0)),
        ([[[0.25, 0.5, 0.25 + 1e-9]]] * 2, (0.250000000245, 0.50000000049, 0.25000000124500005)),
    ], ids=["range", "sum"])
    def test_blend_past_the_bounds_within_the_weight_tolerance(self, levels, expected):
        # weights summing to 1 + 1.96e-9, inside TOL_SUM, carry a blend of
        # in-tolerance nodes past the range or sum bound; it is returned
        ms = multiset_from_values([0.0, 1.0], levels)
        out = hull_membership_test(ms, [0.0, 1.0], [0.5 + 4.9e-10] * 2, 1)
        assert out.as_tuple() == expected

    def test_gap_against_hull_documented(self, bimodal_ms):
        # the combination grade escapes the positive envelope at the
        # blended coordinate; kept as a pinned counterexample
        combo = hull_membership_test(bimodal_ms, [0.0, 2.0], [0.5, 0.5], 1)
        field = convex_hull(bimodal_ms)
        assert combo.positive == pytest.approx(0.55, **APPROX)
        assert field.channel_at("positive", 1, 1.0) == pytest.approx(0.5, **APPROX)
        assert combo.positive > field.channel_at("positive", 1, 1.0) + 1e-9


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("depth", [0.5 * TOL_CMP, 2.0 * TOL_CMP], ids=["inside", "beyond"])
def test_deciders_agree_on_a_dip_near_the_tolerance_band(depth, channel, level):
    # Every decider counts a dip only when it is deeper than TOL_CMP: one
    # middle node dips by half of it or by twice it, off the boundary where
    # one ulp decides, on one channel at level 1 or at the lower level 2.
    values = [[[0.5, 0.2, 0.2], [0.4, 0.2, 0.2]] for _ in range(3)]
    c = CHANNELS.index(channel)
    values[1][level - 1][c] += depth if channel == "negative" else -depth
    ms = multiset_from_values((0.0, 1.0, 2.0), values)
    verdicts = {
        "exact": is_convex_exact(ms).convex,
        "oracle": oracle_convexity(ms),
        "sampled": is_convex_sampled(ms).convex,
        "cuts": cuts_all_convex(ms),
        "hull identity": np.array_equal(convex_hull(ms).values, ms.values),
        # the lab's hull laws hold for the input as its own hull when it is
        # unimodal by the lab's scalar test
        "lab unimodality": _hull_law_violation(ms, GradeField(ms.grid, ms.values)) is None,
    }
    assert set(verdicts.values()) == {depth < TOL_CMP}, verdicts
