"""Seeded instance generators, brute-force oracles and verification suites.

Everything here is deterministic: a generator config fully determines its
instance, and every suite is a function of one trial, run on a sub-seed
that ``run_suite`` derives from the suite seed and the trial index, so
re-runs produce byte-identical reports.  A suite yields one
(kind, config, detail) per failure, and ``run_suite`` adds ``trial``,
``kind`` and ``config`` to the detail to make each report record.

The oracles are deliberately written against different machinery than the
exact checkers they validate: convexity is brute-forced by testing the
segment inequalities for every pair of points of a uniform coordinate
lattice at every weight of a uniform lambda grid, each blended coordinate
read off one finer lattice that numpy interpolates once per channel and
level; hull envelopes are found by an exhaustive search over (node,
candidate value, rising or falling) states rather than by the
running-maximum construction; the hull-properties suite tests unimodality
with its own scalar scan; and the cut scan decides convexity from
threshold cuts instead of node shapes.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    CHANNELS,
    TOL_CMP,
    PfmsError,
    PictureFuzzyMultiset,
    TooLarge,
    _is_real,
    _shown,
    multiset_from_values,
)
from .algebra import complement, convex_combination, equals, intersection, union
from .convexity import (
    GradeField,
    convex_hull,
    hull_membership_test,
    is_convex_exact,
    jensen_check,
)
from .fileio import instance_document


class BadConfig(PfmsError):
    """A generator or oracle parameter is out of its supported range."""


class UnknownSuite(PfmsError):
    """No suite is registered under the requested name."""


DIP_DEPTH = 0.3  # planted defects are this deep, far beyond TOL_CMP
_MAX_GRID_SIZE = 64  # largest grid the generators build and the cut scan accepts
_ORACLE_POINTS, _ORACLE_WEIGHTS = 41, 21  # oracle_convexity's lattice and weights k/20
_ORACLE_STEP = 0.05  # the value lattice of oracle_hull's instances
_MAX_TRIALS = 100_000  # largest trial count run_suite accepts
# per channel, the sign under which it reads "larger is better": the oracles
# mirror the negative channel with it rather than import core.CHANNEL_SIGNS,
# so that they share no code with the checks they test
_SIGNS = (1.0, 1.0, -1.0)


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
        for name in ("seed", "grid_size", "depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadConfig(f"{name} must be an integer, got {value!r}")
        step = self.value_lattice
        if step is not None and not _is_real(step):
            raise BadConfig(f"value_lattice must be an int or a float, got {step!r}")
        if not 1 <= self.grid_size <= _MAX_GRID_SIZE:
            raise BadConfig(
                f"grid_size {_shown(self.grid_size)} outside 1..{_MAX_GRID_SIZE}"
            )
        if not 1 <= self.depth <= 8:
            raise BadConfig(f"depth {_shown(self.depth)} outside 1..8")
        if self.value_lattice is not None and not (
            0.0 < self.value_lattice <= 1.0
        ):
            raise BadConfig(
                f"value_lattice step {_shown(self.value_lattice)} outside (0, 1]"
            )


# ---------------------------------------------------------------------------
# profiles


def _profile(
    rng: random.Random,
    m: int,
    draw: Callable[[float, float], float],
    apex: Callable[[float], float],
    cap: float,
    valley: bool = False,
) -> list[float]:
    """``m`` values turning at node ``rng.randrange(m)``, which takes the
    value ``apex(cap)``; the others come from ``draw`` (``rng.uniform``, or
    ``rng.randint`` with int bounds), left of the turn first.  A ramp rises
    to its apex and then falls, within [0, apex]: quasi-concave by
    construction.  A valley falls to it and then rises, within [apex, cap]:
    quasi-convex."""
    turn = rng.randrange(m)
    top = apex(cap)
    lo, hi = (top, cap) if valley else (0, top)
    left = sorted((draw(lo, hi) for _ in range(turn)), reverse=valley)
    right = sorted((draw(lo, hi) for _ in range(m - turn - 1)), reverse=not valley)
    return [*left, top, *right]


# ---------------------------------------------------------------------------
# value tables, indexed [point][level] -> [positive, neutral, negative]


def _convex_values(rng: random.Random, m: int, depth: int) -> np.ndarray:
    # One positive-channel shape scaled by nonincreasing level multipliers
    # keeps both the per-level unimodality and the cross-level order; the
    # free channels get fresh profiles per level.
    draw = rng.uniform
    peak = lambda cap: draw(0.2, 1.0) * cap
    trough = lambda cap: draw(0.0, 0.4) * cap
    base = _profile(rng, m, draw, peak, 1.0)
    mults = sorted((draw(0.3, 1.0) for _ in range(depth)), reverse=True)
    neu = [_profile(rng, m, draw, peak, draw(0.2, 1.0)) for _ in range(depth)]
    neg = [_profile(rng, m, draw, trough, draw(0.2, 1.0), valley=True) for _ in range(depth)]
    values = np.stack([np.outer(base, mults), np.transpose(neu), np.transpose(neg)], -1)
    worst = ((values[..., 0] + values[..., 1]) + values[..., 2]).max()
    # One global factor: per-node factors would bend the shapes.
    return values * (1.0 / worst) if worst > 1.0 else values


def _convex_lattice_values(
    rng: random.Random, m: int, depth: int, step: float
) -> np.ndarray:
    # Channel caps 0.5/0.3/0.2 keep every node sum at or below one without
    # any rescaling, so the values stay exact lattice multiples.  The
    # profiles count steps, in ints.
    draw, apex = rng.randint, functools.partial(rng.randint, 0)
    k_pos, k_neu, k_neg = (int(cap / step + 1e-9) for cap in (0.5, 0.3, 0.2))
    pos = _profile(rng, m, draw, apex, k_pos)
    neu = [_profile(rng, m, draw, apex, k_neu) for _ in range(depth)]
    neg = [_profile(rng, m, draw, apex, k_neg, valley=True) for _ in range(depth)]
    pos = np.broadcast_to(np.array(pos)[:, None], (m, depth))
    return np.stack([pos, np.transpose(neu), np.transpose(neg)], -1) * step


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
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadConfig(f"seed must be an integer, got {_shown(seed)}")
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


def oracle_convexity(ms: PictureFuzzyMultiset) -> bool:
    """Brute-force the segment inequalities on a uniform coordinate lattice.

    Checks every pair of _ORACLE_POINTS lattice coordinates against every
    blend weight on a uniform grid of _ORACLE_WEIGHTS weights, all
    channels and levels, using numpy's interpolation rather than the
    package evaluator.  With the lattice lo + i*h and weights k/K, the
    blend of points i and j at weight k/K is point (K - k)*i + k*j of the
    K times finer lattice, so each channel is interpolated once on that
    finer lattice and every blend and lattice value is gathered from it
    by index."""
    if ms.size == 1:
        return True
    xs = np.asarray(ms.grid.points)
    steps, ks = _ORACLE_WEIGHTS - 1, np.arange(_ORACLE_WEIGHTS)
    fine = np.linspace(ms.grid.lo, ms.grid.hi, (_ORACLE_POINTS - 1) * steps + 1)
    # blend[k, p] is the fine index (K - k)*i + k*j of the blend of pair
    # p = (i, j), i < j, at weight k/K: j and i at weight 1 - k/K give the
    # same index, and a point blended with itself is itself
    i, j = np.triu_indices(_ORACLE_POINTS, 1)
    blend = (steps - ks)[:, None] * i + ks[:, None] * j
    for level in range(1, ms.depth + 1):
        for channel, sign in zip(CHANNELS, _SIGNS):
            nodes = sign * np.asarray(ms.channel_nodes(channel, level))
            at_fine = np.interp(fine, xs, nodes)
            at_lattice = at_fine[::steps]
            at_blend = at_fine.take(blend)
            # a pair fails when its worst blend does
            bound = np.minimum(at_lattice[i], at_lattice[j])
            if np.any(at_blend.min(axis=0) < bound - TOL_CMP):
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


def _gap_inside(pieces: list[tuple[float, float]], lo: float, hi: float) -> bool:
    """Whether two consecutive pieces, sorted and with nondecreasing ends,
    leave a gap inside [lo, hi]."""
    return any(lo <= end < start <= hi for (_, end), (start, _) in zip(pieces, pieces[1:]))


def cuts_all_convex(ms: PictureFuzzyMultiset) -> bool:
    """Whether every threshold cut, at every level, is a single interval.

    Piecewise-linear channels only change the shape of a cut at node
    values, so the cuts at the node values of each channel cover all
    thresholds.  Full threshold triples reduce to one active channel:
    intervals are closed under intersection, so some triple yields a
    disconnected cut exactly when some single channel does.  A cut at
    ``u`` falls apart where one of its pieces starts after the previous
    one ends; as every decider does, the split counts only when the cut
    at ``u - TOL_CMP`` leaves a gap between the first and the last piece
    too, that is when some node dips more than TOL_CMP below both flanks.
    The scan solves one cut per node value, quadratic in the grid size,
    so grids beyond the generators' own limit of 64 points are refused."""
    if ms.size > _MAX_GRID_SIZE:
        raise TooLarge(
            f"cut scan handles at most {_MAX_GRID_SIZE} grid points, got {ms.size}"
        )
    xs = ms.grid.points
    for rows in ms.values.transpose(1, 2, 0).tolist():  # level by level
        # the negative channel's lower cuts are upper cuts of -v
        for sign, nodes in zip(_SIGNS, rows):
            signed = [sign * v for v in nodes]
            for u in set(signed):
                pieces = _upper_region(xs, signed, u)
                lo, hi = pieces[0][0], pieces[-1][1]
                if _gap_inside(pieces, lo, hi) and _gap_inside(
                    _upper_region(xs, signed, u - TOL_CMP), lo, hi
                ):
                    return False
    return True


def _least_unimodal_by_search(values: Sequence[float]) -> tuple[float, ...]:
    """Pointwise minimum over every unimodal majorant drawn from the
    input's own values, found by an exhaustive search over states.

    A state is (node, candidate value, rising or falling).  A forward pass
    collects the states that some dominating sequence reaches, rising with
    nondecreasing values and then falling with nonincreasing ones; a
    backward pass keeps those from which the last node is reachable.  The
    surviving states at a node are exactly the values that some complete
    unimodal majorant takes there.  Candidate entries are the input's own
    values: the least majorant only ever takes values already present, so
    the restricted search still contains it, and the pointwise minimum over
    all unimodal majorants is exactly the least one."""
    candidates = sorted(set(values))
    fits = [[c for c in candidates if c >= v] for v in values]
    # a step exists from some state of a set when its least (or greatest)
    # value allows it; empty sets allow none
    rising, falling = [set(fits[0])], [set()]
    for fit in fits[1:]:
        low = min(rising[-1], default=math.inf)
        high = max(rising[-1] | falling[-1], default=-math.inf)
        rising.append({c for c in fit if c >= low})
        falling.append({c for c in fit if c <= high})
    alive_up, alive_down = rising[-1], falling[-1]
    least = [min(alive_up | alive_down)]
    for node in range(len(values) - 2, -1, -1):
        high = max(alive_up, default=-math.inf)
        low = min(alive_down, default=math.inf)
        alive_up = {c for c in rising[node] if c <= high or c >= low}
        alive_down = {c for c in falling[node] if c >= low}
        least.append(min(alive_up | alive_down))
    return tuple(reversed(least))


def oracle_hull(ms: PictureFuzzyMultiset) -> GradeField:
    """Brute-force hull for small instances on the _ORACLE_STEP lattice.

    Searches every unimodal majorant (and, mirrored, every anti-unimodal
    minorant) over the input's own values, node by node, instead of using
    the envelope construction.  Refuses grids beyond seven points and
    values off the lattice."""
    if ms.size > 7:
        raise TooLarge(f"oracle handles at most 7 grid points, got {ms.size}")
    for level in range(1, ms.depth + 1):
        for channel in CHANNELS:
            for v in ms.channel_nodes(channel, level):
                if abs(v - round(v / _ORACLE_STEP) * _ORACLE_STEP) > 1e-9:
                    raise BadConfig(
                        f"{channel} value {v!r} is not a multiple of {_ORACLE_STEP!r}"
                    )
    # rows[level][channel] holds the signed node values
    rows = (ms.values * _SIGNS).transpose(1, 2, 0).tolist()
    envelopes = [[_least_unimodal_by_search(row) for row in level] for level in rows]
    return GradeField.from_envelopes(ms.grid, np.transpose(envelopes, (2, 0, 1)) * _SIGNS)


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
    while True:  # the first smaller candidate that holds, levels first
        levels = (_drop_level(ms, k) for k in (range(ms.depth) if ms.depth > 1 else ()))
        nodes = (_drop_node(ms, i) for i in (range(ms.size) if ms.size > 1 else ()))
        smaller = next(filter(holds, chain(levels, nodes)), None)
        if smaller is None:
            return ms
        ms = smaller


# ---------------------------------------------------------------------------
# suites


_Failure = tuple[str, GeneratorConfig | dict, dict]  # (kind, config, detail)


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


def _suite_cut_equivalence(idx: int, sub: int) -> Iterator[_Failure]:
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
    if exact.convex != scan:
        yield "cut-equivalence-mismatch", cfg, {
            "instance": instance_document(ms),
            "exact_convex": exact.convex,
            "cuts_convex": scan,
            "witness": exact.witness and exact.witness.to_dict(),
        }


def _suite_oracle_equivalence(idx: int, sub: int) -> Iterator[_Failure]:
    # Node counts are chosen so the integer grid sits exactly on the
    # oracle's 41-point lattice; planted defects have adjacent flanks and
    # margin DIP_DEPTH, so the fixed resolution cannot miss them.
    sizes = (2, 3, 5, 6, 9)
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
    brute = oracle_convexity(ms)
    if exact != brute:
        yield "checker-oracle-mismatch", cfg, {
            "instance": instance_document(ms),
            "exact_convex": exact,
            "oracle_convex": brute,
        }


def _convex_like(
    ms: PictureFuzzyMultiset, rng: random.Random
) -> PictureFuzzyMultiset:
    """A fresh convex instance on an existing grid."""
    return PictureFuzzyMultiset(ms.grid, _convex_values(rng, ms.size, ms.depth))


def _suite_intersection_closure(idx: int, sub: int) -> Iterator[_Failure]:
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
        yield "intersection-not-convex", cfg, {
            "left": instance_document(a),
            "right": instance_document(b),
            "witness": report.witness.to_dict(),
        }


def _suite_family_intersection(idx: int, sub: int) -> Iterator[_Failure]:
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
        yield "family-intersection-not-convex", cfg, {
            "family_size": size,
            "members": [instance_document(ms) for ms in family],
            "witness": report.witness.to_dict(),
        }


def _random_combination(
    rng: random.Random, ms: PictureFuzzyMultiset, n: int
) -> tuple[list[float], list[float], int]:
    """``n`` points on the grid's span, positive weights summing to one,
    and a level of ``ms``, drawn from ``rng`` in that order."""
    points = [rng.uniform(ms.grid.lo, ms.grid.hi) for _ in range(n)]
    raw = [rng.random() + 1e-9 for _ in range(n)]
    total = math.fsum(raw)
    weights = [v / total for v in raw]
    level = 1 + rng.randrange(ms.depth)
    return points, weights, level


def _suite_jensen(idx: int, sub: int) -> Iterator[_Failure]:
    cfg = GeneratorConfig(
        seed=sub,
        grid_size=3 + idx % 10,
        depth=1 + idx % 4,
        convex_only=True,
    )
    ms = gen_pfms(cfg)
    rng = random.Random(sub ^ 0x2545F491)
    for draw in range(10):
        points, weights, level = _random_combination(rng, ms, 1 + rng.randrange(6))
        report = jensen_check(ms, points, weights, level)
        if not report.ok:
            yield "jensen-failed-on-convex", cfg, {
                "instance": instance_document(ms),
                "draw": draw,
                "points": points,
                "weights": weights,
                "level": level,
                "slacks": list(report.slacks),
            }
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
        yield "jensen-witness-not-failing", cfg, {
            "instance": instance_document(planted),
            "witness": witness.to_dict(),
            "slack": slack,
        }


def _dips(values: Sequence[float]) -> bool:
    """Whether some node sits more than TOL_CMP below the running maximum
    on each side of it: not unimodal, up to TOL_CMP as every decider
    counts a dip.  Before the first peak the running maximum from the
    right is the peak's value, so the one from the left is the smaller
    there, and after it the one from the right."""
    peak = values.index(max(values))
    for side in (values[:peak], values[:peak:-1]):
        top = -math.inf
        for v in side:
            if top - v > TOL_CMP:
                return True
            top = max(top, v)
    return False


def _hull_law_violation(
    ms: PictureFuzzyMultiset, field: GradeField
) -> str | None:
    for level in range(1, ms.depth + 1):
        for channel, sign in zip(CHANNELS, _SIGNS):
            original = [sign * v for v in ms.channel_nodes(channel, level)]
            hull = [sign * h for h in field.channel_nodes(channel, level)]
            side, shape = ("below", "unimodal") if sign > 0 else ("above", "anti-unimodal")
            if any(h < v for h, v in zip(hull, original)):
                return f"{channel} hull {side} input at level {level}"
            if _dips(hull):
                return f"{channel} hull not {shape}/idempotent at level {level}"
    return None


def _suite_hull_properties(idx: int, sub: int) -> Iterator[_Failure]:
    # Even trials match small lattice hulls to the oracle, then check the
    # laws; odd ones check the identity on convex inputs, then the laws on a
    # planted continuous one (a hull equal to a convex input obeys them).
    odd = idx % 2 == 1
    cfg = GeneratorConfig(
        seed=sub,
        grid_size=2 + idx % 15 if odd else 2 + (idx // 2) % 6,
        depth=1 + idx % 4 if odd else 1 + idx % 3,
        value_lattice=None if odd else 0.05,
        convex_only=odd,
    )
    ms = gen_pfms(cfg)
    field = convex_hull(ms)
    if not odd and field != oracle_hull(ms):
        yield "hull-oracle-mismatch", cfg, {"instance": instance_document(ms)}
        return
    if odd:
        if not np.array_equal(field.values, ms.values):
            yield "hull-not-identity-on-convex", cfg, {"instance": instance_document(ms)}
            return
        if ms.size < 3:  # no node to plant a dip at
            return
        ms = plant_dip(ms, seed=sub ^ 0x165667B1)
        field = convex_hull(ms)
    flaw = _hull_law_violation(ms, field)
    if flaw is not None:
        yield "hull-law-violation", cfg, {"instance": instance_document(ms), "law": flaw}


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
    for channel, sign in zip(CHANNELS, _SIGNS):
        combined = combo.channel(channel)
        envelope = field.channel_at(channel, level, z)
        if sign * combined > sign * envelope + TOL_CMP:
            return {
                "channel": channel,
                "combination": combined,
                "envelope": envelope,
                "blend_coordinate": z,
            }
    return None


def _suite_hull_theorem_discrepancy(idx: int, sub: int) -> Iterator[_Failure]:
    # The final hull statement reads as if every convex combination of
    # grades stays inside the hull; this suite documents that it does not.
    # Counterexamples are expected, shrunk, and reported.
    if idx == 0:
        ms, points, weights, level = hull_gap_fixture()
        cfg = {"fixture": "hull-gap-canonical"}
    else:
        cfg = GeneratorConfig(
            seed=sub,
            grid_size=3 + idx % 8,
            depth=1 + idx % 3,
            convex_only=idx % 2 == 0,
        )
        ms = gen_pfms(cfg)
        rng = random.Random(sub ^ 0x94D049BB)
        points, weights, level = _random_combination(rng, ms, 2 + rng.randrange(3))
    gap = functools.partial(_membership_gap, points=points, weights=weights, level=level)
    if gap(ms) is None:
        return
    shrunk = shrink_instance(ms, lambda cand: gap(cand) is not None)
    yield "hull-membership-gap", cfg, {
        "instance": instance_document(shrunk),
        "points": list(points),
        "weights": list(weights),
        "level": level,
        **gap(shrunk),
    }


def _level_slice(ms: PictureFuzzyMultiset, level: int) -> PictureFuzzyMultiset:
    return PictureFuzzyMultiset(ms.grid, ms.values[:, level - 1 : level])


def _level_multisets_equal(a: PictureFuzzyMultiset, b: PictureFuzzyMultiset) -> bool:
    for sa, sb in zip(a.values.tolist(), b.values.tolist()):
        if sorted(sa) != sorted(sb):
            return False
    return True


def _suite_algebra_laws(idx: int, sub: int) -> Iterator[_Failure]:
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
        yield "algebra-law-violation", cfg, {
            "left": instance_document(a),
            "right": instance_document(b),
            "third": instance_document(c),
            "lambda": lam,
            "problems": problems,
        }


_SUITES: dict[str, Callable[[int, int], Iterator[_Failure]]] = {
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
        raise BadConfig(
            f"trials must be a positive integer, got {_shown(trials)}"
        )
    if trials > _MAX_TRIALS:
        raise TooLarge(
            f"trials must be at most {_MAX_TRIALS}, got {_shown(trials, str)}"
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadConfig(f"seed must be an integer, got {_shown(seed)}")
    try:
        str(seed)  # the report prints it
    except ValueError:
        raise BadConfig(f"seed must have few enough digits to print, got {_shown(seed)}") from None
    failures = [
        {
            "trial": idx,
            "kind": kind,
            "config": config if isinstance(config, dict) else asdict(config),
            **detail,
        }
        for idx in range(trials)
        for kind, config, detail in _SUITES[name](idx, _trial_seed(seed, idx))
    ]
    return SuiteResult(
        suite=name,
        seed=seed,
        trials=trials,
        expect_failures=name == "hull-theorem-discrepancy",
        failures=tuple(failures),
    )
