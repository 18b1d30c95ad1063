"""Seeded instance generators, brute-force oracles and verification suites.

Everything here is deterministic: a generator config fully determines its
instance, and every suite derives one sub-seed per trial from the suite
seed and the trial index, so re-runs produce byte-identical reports.

The oracles are deliberately written against different machinery than the
exact checkers they validate: convexity is brute-forced by sampling the
segment inequalities on a uniform coordinate lattice (vectorised with
numpy), hull envelopes are found by exhaustively enumerating monotone
candidate sequences rather than by the running-maximum construction, and
the cut scan decides convexity from threshold cuts instead of node shapes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    CHANNELS,
    TOL_CMP,
    CutRegion,
    CutThresholds,
    PfmsError,
    PictureFuzzyMultiset,
    multiset_from_values,
)
from .algebra import complement, convex_combination, equals, intersection, union
from .convexity import (
    GradeField,
    convex_hull,
    hull_membership_test,
    is_convex_exact,
    jensen_check,
    unimodal_majorant,
    antiunimodal_minorant,
)
from .fileio import instance_document


class BadConfig(PfmsError):
    """A generator or oracle parameter is out of its supported range."""


class TooLarge(PfmsError):
    """The instance exceeds what the brute-force oracle will attempt."""


class UnknownSuite(PfmsError):
    """No suite is registered under the requested name."""


DIP_DEPTH = 0.3  # planted defects are this deep, far beyond TOL_CMP
_MAX_GRID_SIZE = 64  # largest grid the generators build and the cut scan accepts
_MAX_ORACLE_CELLS = 4_000_000  # resolution**2 * lambda_resolution the oracle allocates


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Deterministic instance recipe.

    With ``value_lattice`` set, grades are multiples of the step and the
    grid is the integer range 0..grid_size-1; otherwise grades are
    continuous and interior grid coordinates are drawn uniformly.
    ``convex_only`` builds channels from monotone ramps so the instance is
    convex by construction."""

    seed: int
    grid_size: int
    depth: int
    value_lattice: float | None = None
    convex_only: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise BadConfig(f"seed must be an integer, got {self.seed!r}")
        if not 1 <= self.grid_size <= _MAX_GRID_SIZE:
            raise BadConfig(
                f"grid_size {self.grid_size!r} outside 1..{_MAX_GRID_SIZE}"
            )
        if not 1 <= self.depth <= 8:
            raise BadConfig(f"depth {self.depth!r} outside 1..8")
        if self.value_lattice is not None and not (
            0.0 < self.value_lattice <= 1.0
        ):
            raise BadConfig(
                f"value_lattice step {self.value_lattice!r} outside (0, 1]"
            )


# ---------------------------------------------------------------------------
# profiles


def _ramp_profile(rng: random.Random, m: int, cap: float) -> list[float]:
    """Rise-then-fall values in [0, cap]: quasi-concave by construction."""
    peak = rng.randrange(m)
    top = rng.uniform(0.2, 1.0) * cap
    left = sorted(rng.uniform(0.0, top) for _ in range(peak))
    right = sorted((rng.uniform(0.0, top) for _ in range(m - peak - 1)), reverse=True)
    return [*left, top, *right]


def _valley_profile(rng: random.Random, m: int, cap: float) -> list[float]:
    """Fall-then-rise values in [0, cap]: quasi-convex by construction."""
    trough = rng.randrange(m)
    bottom = rng.uniform(0.0, 0.4) * cap
    left = sorted((rng.uniform(bottom, cap) for _ in range(trough)), reverse=True)
    right = sorted(rng.uniform(bottom, cap) for _ in range(m - trough - 1))
    return [*left, bottom, *right]


def _lattice_ramp(rng: random.Random, m: int, step: float, cap: float) -> list[float]:
    kmax = int(cap / step + 1e-9)
    peak = rng.randrange(m)
    top = rng.randint(0, kmax)
    left = sorted(rng.randint(0, top) for _ in range(peak))
    right = sorted((rng.randint(0, top) for _ in range(m - peak - 1)), reverse=True)
    return [k * step for k in (*left, top, *right)]


def _lattice_valley(rng: random.Random, m: int, step: float, cap: float) -> list[float]:
    kmax = int(cap / step + 1e-9)
    trough = rng.randrange(m)
    bottom = rng.randint(0, kmax)
    left = sorted((rng.randint(bottom, kmax) for _ in range(trough)), reverse=True)
    right = sorted(rng.randint(bottom, kmax) for _ in range(m - trough - 1))
    return [k * step for k in (*left, bottom, *right)]


# ---------------------------------------------------------------------------
# value tables, indexed [point][level] -> [positive, neutral, negative]


def _convex_values(rng: random.Random, m: int, depth: int) -> np.ndarray:
    # One positive-channel shape scaled by nonincreasing level multipliers
    # keeps both the per-level unimodality and the cross-level order; the
    # free channels get fresh profiles per level.
    base = _ramp_profile(rng, m, 1.0)
    mults = sorted((rng.uniform(0.3, 1.0) for _ in range(depth)), reverse=True)
    neu = [_ramp_profile(rng, m, rng.uniform(0.2, 1.0)) for _ in range(depth)]
    neg = [_valley_profile(rng, m, rng.uniform(0.2, 1.0)) for _ in range(depth)]
    values = np.stack([np.outer(base, mults), np.transpose(neu), np.transpose(neg)], -1)
    worst = ((values[..., 0] + values[..., 1]) + values[..., 2]).max()
    # One global factor: per-node factors would bend the shapes.
    return values * (1.0 / worst) if worst > 1.0 else values


def _convex_lattice_values(
    rng: random.Random, m: int, depth: int, step: float
) -> np.ndarray:
    # Channel caps 0.5/0.3/0.2 keep every node sum at or below one without
    # any rescaling, so the values stay exact lattice multiples.
    pos = _lattice_ramp(rng, m, step, 0.5)
    neu = [_lattice_ramp(rng, m, step, 0.3) for _ in range(depth)]
    neg = [_lattice_valley(rng, m, step, 0.2) for _ in range(depth)]
    pos = np.broadcast_to(np.array(pos)[:, None], (m, depth))
    return np.stack([pos, np.transpose(neu), np.transpose(neg)], -1)


def _random_values(rng: random.Random, m: int, depth: int) -> list[list[list[float]]]:
    values = []
    for _ in range(m):
        sig = sorted((rng.random() for _ in range(depth)), reverse=True)
        levels = [[sig[k], rng.random(), rng.random()] for k in range(depth)]
        worst = max(sum(level) for level in levels)
        if worst > 1.0:
            # A single factor per point keeps the level order intact.
            f = rng.uniform(0.6, 1.0) / worst
            levels = [[v * f for v in level] for level in levels]
        values.append(levels)
    return values


def _random_lattice_values(
    rng: random.Random, m: int, depth: int, step: float
) -> list[list[list[float]]]:
    top = int(1.0 / step + 1e-9)
    values = []
    for _ in range(m):
        trips = []
        for _ in range(depth):
            while True:
                a = rng.randint(0, top)
                b = rng.randint(0, top)
                c = rng.randint(0, top)
                if a + b + c <= top:
                    break
            trips.append((a, b, c))
        trips.sort(key=lambda t: -t[0])
        values.append([[a * step, b * step, c * step] for a, b, c in trips])
    return values


def _gen_grid(rng: random.Random, m: int, integer: bool) -> tuple[float, ...]:
    if m == 1:
        return (0.0,)
    if integer:
        return tuple(float(i) for i in range(m))
    span = float(m - 1)
    while True:
        interior = sorted(rng.uniform(0.0, span) for _ in range(m - 2))
        pts = (0.0, *interior, span)
        if all(b - a > 1e-6 for a, b in zip(pts, pts[1:])):
            return pts


def _values_for(
    rng: random.Random, m: int, depth: int, step: float | None, convex: bool
) -> list[list[list[float]]]:
    if convex and step is not None:
        return _convex_lattice_values(rng, m, depth, step)
    if convex:
        return _convex_values(rng, m, depth)
    if step is not None:
        return _random_lattice_values(rng, m, depth, step)
    return _random_values(rng, m, depth)


def gen_pfms(cfg: GeneratorConfig) -> PictureFuzzyMultiset:
    """Generate the instance determined by ``cfg``."""
    rng = random.Random(cfg.seed)
    grid = _gen_grid(rng, cfg.grid_size, integer=cfg.value_lattice is not None)
    values = _values_for(
        rng, cfg.grid_size, cfg.depth, cfg.value_lattice, cfg.convex_only
    )
    return multiset_from_values(grid, values)


def plant_dip(ms: PictureFuzzyMultiset, seed: int = 0) -> PictureFuzzyMultiset:
    """Return a copy with one guaranteed convexity defect.

    An interior node is driven DIP_DEPTH below its neighbours on the
    positive or neutral channel, or DIP_DEPTH above them on the negative
    channel.  Neighbouring triples are rescaled as needed so the result
    still satisfies every construction invariant; positive-channel edits
    touch all levels of a point so the level order survives."""
    if ms.size < 3:
        raise BadConfig("planting a dip needs at least three grid points")
    rng = random.Random(seed)
    channel = rng.choice(CHANNELS)
    node = rng.randrange(1, ms.size - 1)
    level = ms.depth - 1 if channel == "positive" else rng.randrange(ms.depth)
    raw = ms.values.tolist()

    if channel == "positive":
        for j in (node - 1, node + 1):
            for k in range(ms.depth):
                raw[j][k][0] = max(raw[j][k][0], DIP_DEPTH)
                spare = 1.0 - raw[j][k][0]
                others = raw[j][k][1] + raw[j][k][2]
                if others > spare:
                    f = spare / others
                    raw[j][k][1] *= f
                    raw[j][k][2] *= f
        raw[node][level][0] = 0.0
    elif channel == "neutral":
        for j in (node - 1, node + 1):
            sig_eta = raw[j][level][0] + raw[j][level][2]
            if sig_eta > 1.0 - DIP_DEPTH:
                f = (1.0 - DIP_DEPTH) / sig_eta
                for k in range(ms.depth):
                    raw[j][k][0] *= f
                raw[j][level][2] *= f
                sig_eta = raw[j][level][0] + raw[j][level][2]
            raw[j][level][1] = min(max(raw[j][level][1], DIP_DEPTH), 1.0 - sig_eta)
        raw[node][level][1] = 0.0
    else:
        sig_tau = raw[node][level][0] + raw[node][level][1]
        if sig_tau > 1.0 - DIP_DEPTH:
            f = (1.0 - DIP_DEPTH) / sig_tau
            for k in range(ms.depth):
                raw[node][k][0] *= f
            raw[node][level][1] *= f
        raw[node][level][2] = max(raw[node][level][2], DIP_DEPTH)
        for j in (node - 1, node + 1):
            raw[j][level][2] = 0.0

    return PictureFuzzyMultiset(ms.grid, raw)


# ---------------------------------------------------------------------------
# oracles


def oracle_convexity(
    ms: PictureFuzzyMultiset,
    resolution: int = 41,
    lambda_resolution: int = 21,
) -> bool:
    """Brute-force the segment inequalities on a uniform coordinate lattice.

    Checks every ordered pair of lattice coordinates against every blend
    weight on a uniform lambda grid, all channels and levels, using
    numpy's interpolation rather than the package evaluator."""
    if resolution < 2 or lambda_resolution < 1:
        raise BadConfig("oracle needs resolution >= 2 and lambda_resolution >= 1")
    if resolution * resolution * lambda_resolution > _MAX_ORACLE_CELLS:
        raise TooLarge(f"oracle lattice exceeds {_MAX_ORACLE_CELLS} points")
    if ms.size == 1:
        return True
    xs = np.asarray(ms.grid.points)
    lattice = np.linspace(ms.grid.lo, ms.grid.hi, resolution)
    if lambda_resolution == 1:
        lams = np.array([0.5])
    else:
        lams = np.linspace(0.0, 1.0, lambda_resolution)
    blend = (1.0 - lams[None, None, :]) * lattice[:, None, None] + lams[
        None, None, :
    ] * lattice[None, :, None]
    flat = blend.ravel()
    for level in range(1, ms.depth + 1):
        for channel, upper in (
            ("positive", False),
            ("neutral", False),
            ("negative", True),
        ):
            nodes = np.asarray(ms.channel_nodes(channel, level))
            at_lattice = np.interp(lattice, xs, nodes)
            at_blend = np.interp(flat, xs, nodes).reshape(blend.shape)
            if upper:
                bound = np.maximum(
                    at_lattice[:, None, None], at_lattice[None, :, None]
                )
                if np.any(at_blend > bound + TOL_CMP):
                    return False
            else:
                bound = np.minimum(
                    at_lattice[:, None, None], at_lattice[None, :, None]
                )
                if np.any(at_blend < bound - TOL_CMP):
                    return False
    return True


def _upper_region(
    xs: Sequence[float], vs: Sequence[float], threshold: float
) -> list[tuple[float, float]]:
    """Pieces of {x : channel(x) >= threshold}, solved segment by segment."""
    if len(xs) == 1:
        return [(xs[0], xs[0])] if vs[0] >= threshold else []
    pieces: list[tuple[float, float]] = []
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        v0, v1 = vs[i], vs[i + 1]
        in0, in1 = v0 >= threshold, v1 >= threshold
        if in0 and in1:
            pieces.append((x0, x1))
            continue
        if in0 or in1:
            xc = x0 + (threshold - v0) / (v1 - v0) * (x1 - x0)
            xc = min(max(xc, x0), x1)
            pieces.append((x0, xc) if in0 else (xc, x1))
    return pieces


@dataclass(frozen=True, slots=True)
class CutWitness:
    """Thresholds and level whose cut fell apart into several intervals."""

    thresholds: CutThresholds
    level: int
    region: CutRegion


@dataclass(frozen=True, slots=True)
class CutConvexityReport:
    convex: bool
    witness: CutWitness | None = None


def cuts_all_convex(ms: PictureFuzzyMultiset) -> CutConvexityReport:
    """Whether every threshold cut, at every level, is a single interval.

    Piecewise-linear channels only change the shape of a cut at node
    values, so scanning the node values (plus 0 and 1) per channel covers
    all thresholds.  Full threshold triples reduce to one active channel:
    intervals are closed under intersection, so some triple yields a
    disconnected cut exactly when some single channel does, and the
    reported witness fixes the other two thresholds at their slack values
    (0 for the lower bounds, 1 for the upper one).  The scan solves one
    cut per node value, quadratic in the grid size, so grids beyond the
    generators' own limit of 64 points are refused."""
    if ms.size > _MAX_GRID_SIZE:
        raise TooLarge(
            f"cut scan handles at most {_MAX_GRID_SIZE} grid points, got {ms.size}"
        )
    xs = ms.grid.points
    for level in range(1, ms.depth + 1):
        scans = (  # the negative channel's lower cuts are upper cuts of -v
            ("positive", 1.0, lambda v: CutThresholds(v, 0.0, 1.0)),
            ("neutral", 1.0, lambda v: CutThresholds(0.0, v, 1.0)),
            ("negative", -1.0, lambda v: CutThresholds(0.0, 0.0, v)),
        )
        for channel, sign, to_thresholds in scans:
            nodes = ms.channel_nodes(channel, level)
            signed = [sign * v for v in nodes]
            for value in sorted(set(nodes) | {0.0, 1.0}):
                region = CutRegion(tuple(_upper_region(xs, signed, sign * value)))
                if not region.is_convex:
                    return CutConvexityReport(
                        convex=False,
                        witness=CutWitness(
                            thresholds=to_thresholds(value),
                            level=level,
                            region=region,
                        ),
                    )
    return CutConvexityReport(convex=True)


def _enum_nondecreasing(
    values: Sequence[float], candidates: Sequence[float]
) -> list[tuple[float, ...]]:
    """All nondecreasing tuples dominating ``values`` with entries drawn
    from ``candidates``."""
    out: list[tuple[float, ...]] = []
    acc: list[float] = []

    def rec(i: int, prev: float) -> None:
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


def _least_unimodal_by_search(values: Sequence[float]) -> tuple[float, ...]:
    """Pointwise minimum over every enumerated unimodal majorant.

    Candidate entries are the input's own values: the least majorant only
    ever takes values already present, so the restricted search still
    contains it, and the pointwise minimum over all unimodal majorants is
    exactly the least one."""
    n = len(values)
    candidates = sorted(set(values))
    best: list[float] | None = None
    for peak in range(n):
        prefix_min: dict[float, tuple[float, ...]] = {}
        for u in _enum_nondecreasing(values[: peak + 1], candidates):
            top = u[-1]
            cur = prefix_min.get(top)
            prefix_min[top] = (
                u if cur is None else tuple(min(a, b) for a, b in zip(cur, u))
            )
        suffix_min: dict[float, tuple[float, ...]] = {}
        reversed_tail = list(reversed(values[peak:]))
        for u in _enum_nondecreasing(reversed_tail, candidates):
            w = tuple(reversed(u))
            top = w[0]
            cur = suffix_min.get(top)
            suffix_min[top] = (
                w if cur is None else tuple(min(a, b) for a, b in zip(cur, w))
            )
        for top, pre in prefix_min.items():
            suf = suffix_min.get(top)
            if suf is None:
                continue
            full = pre + suf[1:]
            if best is None:
                best = list(full)
            else:
                best = [min(a, b) for a, b in zip(best, full)]
    assert best is not None
    return tuple(best)


def oracle_hull(ms: PictureFuzzyMultiset, step: float = 0.05) -> GradeField:
    """Brute-force hull for small lattice-valued instances.

    Enumerates unimodal majorants (and, mirrored, anti-unimodal minorants)
    outright instead of using the envelope construction.  Refuses grids
    beyond seven points or steps below 0.05."""
    if ms.size > 7:
        raise TooLarge(f"oracle handles at most 7 grid points, got {ms.size}")
    if step < 0.05 - 1e-12 or step > 1.0:
        raise TooLarge(f"oracle handles lattice steps in [0.05, 1], got {step!r}")
    for level in range(1, ms.depth + 1):
        for channel in CHANNELS:
            for v in ms.channel_nodes(channel, level):
                if abs(v - round(v / step) * step) > 1e-9:
                    raise BadConfig(
                        f"{channel} value {v!r} is not a multiple of {step!r}"
                    )
    per_level = []
    for level in range(1, ms.depth + 1):
        pos = _least_unimodal_by_search(ms.channel_nodes("positive", level))
        neu = _least_unimodal_by_search(ms.channel_nodes("neutral", level))
        neg_mirror = _least_unimodal_by_search(
            [-v for v in ms.channel_nodes("negative", level)]
        )
        neg = tuple(-v for v in neg_mirror)
        per_level.append((pos, neu, neg))
    # per_level is indexed [level][channel][node]
    return GradeField.from_envelopes(ms.grid, np.transpose(per_level, (2, 0, 1)))


# ---------------------------------------------------------------------------
# shrinking


def _drop_level(ms: PictureFuzzyMultiset, k: int) -> PictureFuzzyMultiset:
    return PictureFuzzyMultiset(ms.grid, np.delete(ms.values, k, axis=1))


def _drop_node(ms: PictureFuzzyMultiset, i: int) -> PictureFuzzyMultiset:
    points = [x for j, x in enumerate(ms.grid.points) if j != i]
    return multiset_from_values(points, np.delete(ms.values, i, axis=0))


def shrink_instance(
    ms: PictureFuzzyMultiset,
    predicate: Callable[[PictureFuzzyMultiset], bool],
) -> PictureFuzzyMultiset:
    """Greedily drop levels and nodes while ``predicate`` keeps holding.

    The result is locally minimal: removing any single level or grid node
    makes the predicate fail.  Predicate errors count as failure."""

    def holds(candidate: PictureFuzzyMultiset) -> bool:
        try:
            return bool(predicate(candidate))
        except PfmsError:
            return False

    if not holds(ms):
        raise BadConfig("the predicate must hold on the starting instance")
    changed = True
    while changed:
        changed = False
        if ms.depth > 1:
            for k in range(ms.depth):
                candidate = _drop_level(ms, k)
                if holds(candidate):
                    ms = candidate
                    changed = True
                    break
            if changed:
                continue
        if ms.size > 1:
            for i in range(ms.size):
                candidate = _drop_node(ms, i)
                if holds(candidate):
                    ms = candidate
                    changed = True
                    break
    return ms


# ---------------------------------------------------------------------------
# suites


def _trial_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7_919 + 12_345) & ((1 << 63) - 1)


def hull_gap_fixture() -> tuple[PictureFuzzyMultiset, tuple[float, float], tuple[float, float], int]:
    """The canonical instance where a grade-side combination escapes the
    hull: a twin-peaked positive channel whose midpoint combination
    exceeds the envelope value at the blended coordinate."""
    ms = multiset_from_values(
        (0.0, 1.0, 2.0),
        [
            [[0.6, 0.1, 0.2]],
            [[0.1, 0.2, 0.1]],
            [[0.5, 0.1, 0.3]],
        ],
    )
    return ms, (0.0, 2.0), (0.5, 0.5), 1


def _config_dict(cfg: GeneratorConfig) -> dict:
    return {
        "seed": cfg.seed,
        "grid_size": cfg.grid_size,
        "depth": cfg.depth,
        "value_lattice": cfg.value_lattice,
        "convex_only": cfg.convex_only,
    }


def _suite_cut_equivalence(trials: int, seed: int, record) -> None:
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        m = 2 + idx % 15
        depth = 1 + idx % 4
        mode = idx % 4  # two random, one convex, one planted per cycle
        cfg = GeneratorConfig(
            seed=sub, grid_size=m, depth=depth, convex_only=(mode == 2)
        )
        ms = gen_pfms(cfg)
        if mode == 3 and m >= 3:
            ms = plant_dip(ms, seed=sub + 1)
        exact = is_convex_exact(ms)
        scan = cuts_all_convex(ms)
        if exact.convex != scan.convex:
            record(
                {
                    "trial": idx,
                    "kind": "cut-equivalence-mismatch",
                    "config": _config_dict(cfg),
                    "instance": instance_document(ms),
                    "exact_convex": exact.convex,
                    "cuts_convex": scan.convex,
                    "witness": exact.witness and exact.witness.to_dict(),
                }
            )


def _suite_oracle_equivalence(trials: int, seed: int, record) -> None:
    # Node counts are chosen so the integer grid sits exactly on the
    # oracle's 41-point lattice; planted defects have adjacent flanks and
    # margin DIP_DEPTH, so the fixed resolution cannot miss them.
    sizes = (2, 3, 5, 6, 9)
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        m = sizes[idx % len(sizes)]
        depth = 1 + idx % 3
        convex = m == 2 or idx % 2 == 0
        cfg = GeneratorConfig(
            seed=sub,
            grid_size=m,
            depth=depth,
            value_lattice=0.05,
            convex_only=convex,
        )
        ms = gen_pfms(cfg)
        if not convex:
            ms = plant_dip(ms, seed=sub ^ 0x5BD1E995)
        exact = is_convex_exact(ms).convex
        brute = oracle_convexity(ms, 41, 21)
        if exact != brute:
            record(
                {
                    "trial": idx,
                    "kind": "checker-oracle-mismatch",
                    "config": _config_dict(cfg),
                    "instance": instance_document(ms),
                    "exact_convex": exact,
                    "oracle_convex": brute,
                }
            )


def _convex_like(
    ms: PictureFuzzyMultiset, rng: random.Random
) -> PictureFuzzyMultiset:
    """A fresh convex instance on an existing grid."""
    return PictureFuzzyMultiset(ms.grid, _convex_values(rng, ms.size, ms.depth))


def _suite_intersection_closure(trials: int, seed: int, record) -> None:
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        cfg = GeneratorConfig(
            seed=sub,
            grid_size=2 + idx % 11,
            depth=1 + idx % 4,
            convex_only=True,
        )
        a = gen_pfms(cfg)
        b = _convex_like(a, random.Random(sub ^ 0x9E3779B9))
        meet = intersection(a, b)
        report = is_convex_exact(meet)
        if not report.convex:
            record(
                {
                    "trial": idx,
                    "kind": "intersection-not-convex",
                    "config": _config_dict(cfg),
                    "left": instance_document(a),
                    "right": instance_document(b),
                    "witness": report.witness.to_dict(),
                }
            )


def _suite_family_intersection(trials: int, seed: int, record) -> None:
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        size = 2 + idx % 7
        cfg = GeneratorConfig(
            seed=sub,
            grid_size=2 + idx % 9,
            depth=1 + idx % 3,
            convex_only=True,
        )
        first = gen_pfms(cfg)
        family = [first]
        for member in range(1, size):
            family.append(
                _convex_like(first, random.Random(sub ^ (0xABCD + member)))
            )
        meet = family[0]
        for member in family[1:]:
            meet = intersection(meet, member)
        report = is_convex_exact(meet)
        if not report.convex:
            record(
                {
                    "trial": idx,
                    "kind": "family-intersection-not-convex",
                    "config": _config_dict(cfg),
                    "family_size": size,
                    "members": [instance_document(ms) for ms in family],
                    "witness": report.witness.to_dict(),
                }
            )


def _suite_jensen(trials: int, seed: int, record) -> None:
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        cfg = GeneratorConfig(
            seed=sub,
            grid_size=3 + idx % 10,
            depth=1 + idx % 4,
            convex_only=True,
        )
        ms = gen_pfms(cfg)
        rng = random.Random(sub ^ 0x2545F491)
        lo, hi = ms.grid.lo, ms.grid.hi
        for draw in range(10):
            n = 1 + rng.randrange(6)
            points = [rng.uniform(lo, hi) for _ in range(n)]
            raw = [rng.random() + 1e-9 for _ in range(n)]
            total = math.fsum(raw)
            weights = [v / total for v in raw]
            level = 1 + rng.randrange(ms.depth)
            report = jensen_check(ms, points, weights, level)
            if not report.ok:
                record(
                    {
                        "trial": idx,
                        "kind": "jensen-failed-on-convex",
                        "config": _config_dict(cfg),
                        "instance": instance_document(ms),
                        "draw": draw,
                        "points": points,
                        "weights": weights,
                        "level": level,
                        "slacks": list(report.slacks),
                    }
                )
        planted = plant_dip(ms, seed=sub ^ 0x27D4EB2F)
        witness = is_convex_exact(planted).witness
        report = jensen_check(
            planted,
            [witness.x, witness.y],
            [1.0 - witness.lam, witness.lam],
            witness.level,
        )
        slack = report.slacks[CHANNELS.index(witness.channel)]
        if slack >= -5.0 * TOL_CMP:
            record(
                {
                    "trial": idx,
                    "kind": "jensen-witness-not-failing",
                    "config": _config_dict(cfg),
                    "instance": instance_document(planted),
                    "witness": witness.to_dict(),
                    "slack": slack,
                }
            )


def _hull_law_violation(
    ms: PictureFuzzyMultiset, field: GradeField
) -> str | None:
    for level in range(1, ms.depth + 1):
        for channel in CHANNELS:
            original = ms.channel_nodes(channel, level)
            hull = field.channel_nodes(channel, level)
            if channel == "negative":
                if any(h > v for h, v in zip(hull, original)):
                    return f"negative hull above input at level {level}"
                if antiunimodal_minorant(hull) != hull:
                    return f"negative hull not anti-unimodal/idempotent at level {level}"
            else:
                if any(h < v for h, v in zip(hull, original)):
                    return f"{channel} hull below input at level {level}"
                if unimodal_majorant(hull) != hull:
                    return f"{channel} hull not unimodal/idempotent at level {level}"
    return None


def _suite_hull_properties(trials: int, seed: int, record) -> None:
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        if idx % 2 == 0:
            cfg = GeneratorConfig(
                seed=sub,
                grid_size=2 + (idx // 2) % 6,
                depth=1 + idx % 3,
                value_lattice=0.05,
                convex_only=False,
            )
            ms = gen_pfms(cfg)
            field = convex_hull(ms)
            brute = oracle_hull(ms, 0.05)
            if field != brute:
                record(
                    {
                        "trial": idx,
                        "kind": "hull-oracle-mismatch",
                        "config": _config_dict(cfg),
                        "instance": instance_document(ms),
                    }
                )
                continue
        else:
            cfg = GeneratorConfig(
                seed=sub,
                grid_size=2 + idx % 15,
                depth=1 + idx % 4,
                convex_only=True,
            )
            ms = gen_pfms(cfg)
            field = convex_hull(ms)
            if not np.array_equal(field.values, ms.values):
                record(
                    {
                        "trial": idx,
                        "kind": "hull-not-identity-on-convex",
                        "config": _config_dict(cfg),
                        "instance": instance_document(ms),
                    }
                )
                continue
        flaw = _hull_law_violation(ms, field)
        if flaw is not None:
            record(
                {
                    "trial": idx,
                    "kind": "hull-law-violation",
                    "config": _config_dict(cfg),
                    "instance": instance_document(ms),
                    "law": flaw,
                }
            )


def _membership_gap(
    ms: PictureFuzzyMultiset,
    points: Sequence[float],
    weights: Sequence[float],
    level: int,
) -> dict | None:
    """First channel where the grade-side combination escapes the hull."""
    field = convex_hull(ms)
    combo = hull_membership_test(ms, points, weights, level)
    z = math.fsum(w * x for w, x in zip(weights, points))
    for channel in CHANNELS:
        combined = combo.channel(channel)
        envelope = field.channel_at(channel, level, z)
        if channel == "negative":
            escaped = combined < envelope - TOL_CMP
        else:
            escaped = combined > envelope + TOL_CMP
        if escaped:
            return {
                "channel": channel,
                "combination": combined,
                "envelope": envelope,
                "point": z,
            }
    return None


def _suite_hull_theorem_discrepancy(trials: int, seed: int, record) -> None:
    # The final hull statement reads as if every convex combination of
    # grades stays inside the hull; this suite documents that it does not.
    # Counterexamples are expected, shrunk, and reported.
    for idx in range(trials):
        if idx == 0:
            ms, points, weights, level = hull_gap_fixture()
            cfg_info = {"fixture": "hull-gap-canonical"}
        else:
            sub = _trial_seed(seed, idx)
            cfg = GeneratorConfig(
                seed=sub,
                grid_size=3 + idx % 8,
                depth=1 + idx % 3,
                convex_only=idx % 2 == 0,
            )
            ms = gen_pfms(cfg)
            rng = random.Random(sub ^ 0x94D049BB)
            n = 2 + rng.randrange(3)
            points = [rng.uniform(ms.grid.lo, ms.grid.hi) for _ in range(n)]
            raw = [rng.random() + 1e-9 for _ in range(n)]
            total = math.fsum(raw)
            weights = [v / total for v in raw]
            level = 1 + rng.randrange(ms.depth)
            cfg_info = _config_dict(cfg)
        gap = _membership_gap(ms, points, weights, level)
        if gap is None:
            continue
        shrunk = shrink_instance(
            ms, lambda cand: _membership_gap(cand, points, weights, level) is not None
        )
        final_gap = _membership_gap(shrunk, points, weights, level)
        record(
            {
                "trial": idx,
                "kind": "hull-membership-gap",
                "config": cfg_info,
                "instance": instance_document(shrunk),
                "points": list(points),
                "weights": list(weights),
                "level": level,
                "channel": final_gap["channel"],
                "combination": final_gap["combination"],
                "envelope": final_gap["envelope"],
                "blend_coordinate": final_gap["point"],
            }
        )


def _level_slice(ms: PictureFuzzyMultiset, level: int) -> PictureFuzzyMultiset:
    return PictureFuzzyMultiset(ms.grid, ms.values[:, level - 1 : level])


def _level_multisets_equal(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> bool:
    for sa, sb in zip(a.values.tolist(), b.values.tolist()):
        if sorted(sa) != sorted(sb):
            return False
    return True


def _suite_algebra_laws(trials: int, seed: int, record) -> None:
    for idx in range(trials):
        sub = _trial_seed(seed, idx)
        cfg = GeneratorConfig(seed=sub, grid_size=2 + idx % 4, depth=1 + idx % 2)
        a = gen_pfms(cfg)
        rng = random.Random(sub ^ 0x85EBCA6B)
        b = PictureFuzzyMultiset(a.grid, _random_values(rng, a.size, a.depth))
        c = PictureFuzzyMultiset(a.grid, _random_values(rng, a.size, a.depth))
        lam = rng.random()
        problems: list[str] = []
        if union(a, b) != union(b, a):
            problems.append("union not commutative")
        if intersection(a, b) != intersection(b, a):
            problems.append("intersection not commutative")
        if union(union(a, b), c) != union(a, union(b, c)):
            problems.append("union not associative")
        if intersection(intersection(a, b), c) != intersection(a, intersection(b, c)):
            problems.append("intersection not associative")
        if union(a, a) != a or intersection(a, a) != a:
            problems.append("idempotence failed")
        if not _level_multisets_equal(complement(complement(a)), a):
            problems.append("double complement changed level contents")
        if convex_combination(a, b, 1.0) != a:
            problems.append("combination at weight 1 is not the first operand")
        if convex_combination(a, b, 0.0) != b:
            problems.append("combination at weight 0 is not the second operand")
        mix_ab = convex_combination(a, b, lam)
        mix_ba = convex_combination(b, a, 1.0 - lam)
        if not equals(mix_ab, mix_ba):
            problems.append("combination not symmetric under weight reversal")
        for level in range(1, a.depth + 1):
            a1 = _level_slice(a, level)
            b1 = _level_slice(b, level)
            if complement(union(a1, b1)) != intersection(complement(a1), complement(b1)):
                problems.append(f"single-level duality failed at level {level}")
                break
        if problems:
            record(
                {
                    "trial": idx,
                    "kind": "algebra-law-violation",
                    "config": _config_dict(cfg),
                    "left": instance_document(a),
                    "right": instance_document(b),
                    "third": instance_document(c),
                    "lambda": lam,
                    "problems": problems,
                }
            )


_SUITES: dict[str, Callable[[int, int, Callable[[dict], None]], None]] = {
    "cut-equivalence": _suite_cut_equivalence,
    "intersection-closure": _suite_intersection_closure,
    "family-intersection": _suite_family_intersection,
    "jensen": _suite_jensen,
    "hull-properties": _suite_hull_properties,
    "hull-theorem-discrepancy": _suite_hull_theorem_discrepancy,
    "algebra-laws": _suite_algebra_laws,
    "oracle-equivalence": _suite_oracle_equivalence,
}

SUITE_NAMES = tuple(_SUITES)


@dataclass(frozen=True, slots=True)
class SuiteResult:
    """Outcome of one suite run.

    Every suite expects zero failures except hull-theorem-discrepancy,
    which exists to document counterexamples and therefore expects at
    least one."""

    suite: str
    seed: int
    trials: int
    expect_failures: bool
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        if self.expect_failures:
            return bool(self.failures)
        return not self.failures

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "expect_failures": self.expect_failures,
            "failure_count": len(self.failures),
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2)


def run_suite(name: str, trials: int, seed: int = 0) -> SuiteResult:
    """Run a named suite for a number of independently seeded trials."""
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}"
        )
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise BadConfig(f"trials must be a positive integer, got {trials!r}")
    failures: list[dict] = []
    _SUITES[name](trials, seed, failures.append)
    return SuiteResult(
        suite=name,
        seed=seed,
        trials=trials,
        expect_failures=name == "hull-theorem-discrepancy",
        failures=tuple(failures),
    )
