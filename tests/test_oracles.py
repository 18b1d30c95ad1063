"""Differential tests of the lab oracles against their first formulations.

The references below are the straightforward forms the oracles started
from: the convexity oracle interpolating every blended coordinate
(1 - lam) * x + lam * y of a 3-D array, and the hull oracle enumerating
every nondecreasing prefix and suffix around every peak.  The oracles
must reach the same verdicts and the same hull bits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pfms import (
    TOL_CMP,
    GeneratorConfig,
    gen_pfms,
    multiset_from_values,
    oracle_convexity,
    oracle_hull,
)
from pfms.lab import _hull_law_violation, _least_unimodal_by_search
from pfms.convexity import GradeField


def reference_oracle_convexity(ms):
    """Every blended coordinate of every pair of a 41-point lattice, at 21
    weights, interpolated."""
    if ms.size == 1:
        return True
    xs = np.asarray(ms.grid.points)
    lattice = np.linspace(ms.grid.lo, ms.grid.hi, 41)
    lams = np.linspace(0.0, 1.0, 21)
    blend = (1.0 - lams[None, None, :]) * lattice[:, None, None] + lams[
        None, None, :
    ] * lattice[None, :, None]
    for level in range(1, ms.depth + 1):
        for channel, upper in (
            ("positive", False),
            ("neutral", False),
            ("negative", True),
        ):
            nodes = np.asarray(ms.channel_nodes(channel, level))
            at_lattice = np.interp(lattice, xs, nodes)
            at_blend = np.interp(blend.ravel(), xs, nodes).reshape(blend.shape)
            ends = (at_lattice[:, None, None], at_lattice[None, :, None])
            if upper and np.any(at_blend > np.maximum(*ends) + TOL_CMP):
                return False
            if not upper and np.any(at_blend < np.minimum(*ends) - TOL_CMP):
                return False
    return True


def _enum_nondecreasing(values, candidates):
    """All nondecreasing tuples dominating ``values`` with entries drawn
    from ``candidates``."""
    out, acc = [], []

    def rec(i, prev):
        if i == len(values):
            out.append(tuple(acc))
            return
        for c in candidates:
            if c >= prev and c >= values[i]:
                acc.append(c)
                rec(i + 1, c)
                acc.pop()

    rec(0, -math.inf)
    return out


def reference_least_unimodal(values):
    """Pointwise minimum over every enumerated unimodal majorant: each
    peak joins a nondecreasing prefix and a nonincreasing suffix that meet
    at the same top value."""
    candidates = sorted(set(values))
    best = None
    for peak in range(len(values)):
        prefix_min, suffix_min = {}, {}
        for u in _enum_nondecreasing(values[: peak + 1], candidates):
            cur = prefix_min.get(u[-1])
            prefix_min[u[-1]] = u if cur is None else tuple(map(min, cur, u))
        for u in _enum_nondecreasing(list(reversed(values[peak:])), candidates):
            w = tuple(reversed(u))
            cur = suffix_min.get(w[0])
            suffix_min[w[0]] = w if cur is None else tuple(map(min, cur, w))
        for top, pre in prefix_min.items():
            suf = suffix_min.get(top)
            if suf is not None:
                full = pre + suf[1:]
                best = full if best is None else tuple(map(min, best, full))
    return best


def _bits(values):
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# convexity oracle

_DIPS = (0.0, 0.5, 1.0, 2.0)  # multiples of TOL_CMP


@st.composite
def band_instances(draw):
    """A small instance whose channels are flat, linear or random per
    level, with at most one interior node pushed a tolerance-band amount
    past its flanks."""
    m = draw(st.integers(min_value=1, max_value=7))
    kind = draw(st.sampled_from(["integer", "real", "signed-zero"]))
    if kind == "integer":
        grid = [float(i) for i in range(m)]
    else:
        gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=m - 1, max_size=m - 1))
        start = -0.0 if kind == "signed-zero" else draw(st.floats(-5.0, 5.0))
        grid = [start]
        for gap in gaps:
            grid.append(grid[-1] + gap)
    depth = draw(st.integers(min_value=1, max_value=3))
    shape = draw(st.sampled_from(["flat", "linear", "random"]))
    unit = st.floats(0.05, 0.25)
    span = grid[-1] - grid[0] or 1.0
    table = [[[0.0, 0.0, 0.0] for _ in range(depth)] for _ in range(m)]
    for k in range(depth):
        for c in range(3):
            if shape == "random":
                column = [draw(unit) for _ in range(m)]
            else:
                a = draw(unit)
                b = draw(st.floats(-0.04, 0.04)) if shape == "linear" else 0.0
                column = [a + b * (x - grid[0]) / span for x in grid]
            for i in range(m):
                table[i][k][c] = column[i]
    for per_point in table:  # the positive channel falls across levels
        positives = sorted((t[0] for t in per_point), reverse=True)
        for t, p in zip(per_point, positives):
            t[0] = p
    if m >= 3:
        i = draw(st.integers(min_value=1, max_value=m - 2))
        k = draw(st.integers(min_value=0, max_value=depth - 1))
        c = draw(st.sampled_from([1, 2] if k < depth - 1 else [0, 1, 2]))
        dip = draw(st.sampled_from(_DIPS)) * TOL_CMP
        flanks = (table[i - 1][k][c], table[i + 1][k][c])
        if c == 2:
            table[i][k][c] = max(flanks) + dip
        else:
            table[i][k][c] = min(flanks) - dip
        if c == 0 and k > 0:  # no higher than the level above
            table[i][k][0] = min(table[i][k][0], table[i][k - 1][0])
    return multiset_from_values(grid, table)


class TestOracleConvexityMatchesReference:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(band_instances())
    def test_band_instances(self, ms):
        assert oracle_convexity(ms) == reference_oracle_convexity(ms)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
    )
    def test_generated_instances(self, seed, m, convex):
        ms = gen_pfms(
            GeneratorConfig(
                seed=seed, grid_size=m, depth=1 + seed % 3, convex_only=convex
            )
        )
        assert oracle_convexity(ms) == reference_oracle_convexity(ms)

    @pytest.mark.parametrize("dip", _DIPS)
    def test_dip_on_the_node_between_unit_flanks(self, dip):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.5, 0.1, 0.1]], [[0.5 - dip * TOL_CMP, 0.1, 0.1]], [[0.5, 0.1, 0.1]]],
        )
        verdict = oracle_convexity(ms)
        assert verdict == reference_oracle_convexity(ms)
        assert verdict == (dip * TOL_CMP <= TOL_CMP)


# ---------------------------------------------------------------------------
# hull oracle

_lattice_lists = st.lists(
    st.integers(min_value=0, max_value=20).map(lambda n: n * 0.05),
    min_size=1,
    max_size=7,
)


class TestOracleHullMatchesReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_lattice_lists, st.booleans())
    @example([0.0, 0.1, 0.0], True)
    @example([0.3, 0.0, -0.0, 0.3], False)
    def test_least_unimodal_bits(self, values, mirrored):
        # mirrored lists are the negative channel's, with -0.0 for 0.0
        if mirrored:
            values = [-v for v in values]
        found = _least_unimodal_by_search(values)
        assert _bits(found) == _bits(reference_least_unimodal(values))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(1, 7))
    def test_hull_fields(self, seed, m):
        ms = gen_pfms(
            GeneratorConfig(
                seed=seed, grid_size=m, depth=1 + seed % 3, value_lattice=0.05
            )
        )
        field = oracle_hull(ms)
        per_level = []
        for level in range(1, ms.depth + 1):
            pos = reference_least_unimodal(ms.channel_nodes("positive", level))
            neu = reference_least_unimodal(ms.channel_nodes("neutral", level))
            neg = reference_least_unimodal(
                [-v for v in ms.channel_nodes("negative", level)]
            )
            per_level.append((pos, neu, tuple(-v for v in neg)))
        expected = GradeField(ms.grid, np.transpose(per_level, (2, 0, 1)))
        assert field == expected
        assert field.values.tobytes() == expected.values.tobytes()


class TestHullLawCheck:
    """The law check decides unimodality itself, so a hull the envelope
    kernel would leave unchanged can still fail it."""

    def _instance(self):
        return multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.2, 0.1, 0.5]], [[0.1, 0.2, 0.1]], [[0.5, 0.1, 0.3]]],
        )

    def _field(self, ms, columns):
        values = np.array(ms.values)
        for channel, column in columns.items():
            values[:, 0, channel] = column
        return GradeField(ms.grid, values)

    def test_unimodal_hull_passes(self):
        ms = self._instance()
        field = self._field(ms, {0: [0.2, 0.2, 0.5]})
        assert _hull_law_violation(ms, field) is None

    def test_twin_peaks_fail(self):
        ms = self._instance()
        field = self._field(ms, {0: [0.3, 0.1, 0.5]})
        assert _hull_law_violation(ms, field) == (
            "positive hull not unimodal/idempotent at level 1"
        )

    def test_negative_channel_must_be_anti_unimodal(self):
        ms = self._instance()
        field = self._field(ms, {0: [0.2, 0.2, 0.5], 2: [0.0, 0.1, 0.0]})
        assert _hull_law_violation(ms, field) == (
            "negative hull not anti-unimodal/idempotent at level 1"
        )

    def test_signed_zero_plateau_is_unimodal(self):
        ms = multiset_from_values(
            (0.0, 1.0, 2.0),
            [[[0.0, 0.0, 0.0]], [[-0.0, 0.0, -0.0]], [[0.0, 0.0, 0.0]]],
        )
        assert _hull_law_violation(ms, GradeField(ms.grid, ms.values)) is None


def test_oracles_import_no_envelope_kernel():
    import pfms.lab as lab

    for name in ("_majorant", "_worst_dip", "_dipping_rows", "_deep_rows"):
        assert not hasattr(lab, name)


def test_mirrored_zero_lists_keep_their_sign():
    found = _least_unimodal_by_search([-0.0, -0.1, -0.0])
    assert _bits(found) == _bits([-0.0, -0.0, -0.0])
