"""The four workloads: ingest, analyze, suites and cli.

Each workload is a closed loop: one client sends a request, waits for the
result, checks it outside the timed region and then sends the next.  A
request is one call into a pfms module (or, for ``cli``, one cold
``python -m pfms.cli`` process).  Requests come in cycles; each cycle
holds every request kind once, so every rate below is the rate over one
fixed cycle, however many requests fitted into the run:

    rate = work of one cycle / sum over request kinds of (median time per
           unit of work of that kind x its work in one cycle)

Request times are wall times rescaled by the host's current speed (see
``speed.py``).  A workload keeps sending cycles until its time is up, and always
finishes its first cycle.  The workload a run is named after gets the
run's full time at full size; the other three run as probes for
0.4 of that time (``PROBE_SHARE`` in run.py), at a smaller size except for
cli, so that every run exercises every layer.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import gen
from spans import Tracer
from speed import SpeedClock
from spec import CLI_COMMANDS, SUITE_MIX

from pfms.algebra import complement, convex_combination, intersection, union
from pfms.convexity import (
    convex_hull,
    cut,
    is_convex_exact,
    is_convex_sampled,
    jensen_check,
)
from pfms.core import multiset_from_values
from pfms.fileio import emit_instance, parse_instance
from pfms.lab import run_suite

CANONICAL_GAP_RECORD = {
    "blend_coordinate": 1.0,
    "channel": "positive",
    "combination": 0.55,
    "config": {"fixture": "hull-gap-canonical"},
    "envelope": 0.5,
    "instance": {
        "depth": 1,
        "domain": [0.0, 1.0, 2.0],
        "elements": [[[0.6, 0.1, 0.2]], [[0.1, 0.2, 0.1]], [[0.5, 0.1, 0.3]]],
        "format_version": "1",
    },
    "kind": "hull-membership-gap",
    "level": 1,
    "points": [0.0, 2.0],
    "trial": 0,
    "weights": [0.5, 0.5],
}


class Workload:
    """Request accounting shared by the four workloads."""

    name = ""

    def __init__(self, seed: int, full: bool, tracer, clock, workdir: Path) -> None:
        self.seed = seed
        self.full = full
        self.tracer = tracer
        self.clock = clock
        self.traced = isinstance(tracer, Tracer)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cost: dict = defaultdict(list)  # seconds per unit of work, per request
        self.layer: dict[str, float] = {}  # per-layer metrics not taken from spans

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def fail(self, span: str, message: str) -> None:
        self.failed += 1
        self.tracer.fail(span)
        if len(self.errors) < 5:
            self.errors.append(f"{self.name}: {span}: {message}")

    def call(self, span: str, work: float, fn, key=None, request: str | None = None):
        """Time one request.  Returns (ok, result); exceptions count as
        failed operations."""
        self.attempted += 1
        rid = request or f"{self.name}-{self.attempted}"
        gc.collect()
        before = self.clock.factor()
        start = time.perf_counter()
        try:
            with self.tracer.span(f"bench.{self.name}", rid, before):
                with self.tracer.span(span, rid, before, work):
                    result = fn()
        except Exception as exc:  # a failed operation, reported and counted
            self.fail(span, repr(exc))
            return False, None
        elapsed = (time.perf_counter() - start) * (before + self.clock.factor()) / 2
        key = span if key is None else key
        self.cost[key].append(elapsed / work)
        return True, result

    def json_floor(self, key: str, fn) -> None:
        """In the traced pass, time the stdlib JSON call that bounds a
        fileio call on the same text or document."""
        if self.traced:
            start = time.perf_counter()
            fn()
            self.layer[key] = self.layer.get(key, 0.0) + time.perf_counter() - start

    def check(self, span: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(span, f"wrong output: {what}")

    def rate(self, cycle: dict) -> float:
        """Work per second over one fixed cycle of request kinds, taking
        the median cost per unit of work of each kind."""
        if any(not self.cost[k] for k in cycle):
            return 0.0
        seconds = sum(w * statistics.median(self.cost[k]) for k, w in cycle.items())
        return sum(cycle.values()) / seconds

    whole_cycles = False  # True: stop only between cycles

    def drive(self, seconds: float) -> None:
        """Send cycles until ``seconds`` have passed; finish the first."""
        start = time.perf_counter()
        index = 0
        while True:
            for _ in self.cycle(index):
                if (index > 0 and not self.whole_cycles
                        and time.perf_counter() - start >= seconds):
                    return
            index += 1
            if time.perf_counter() - start >= seconds:
                return

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int):
        raise NotImplementedError

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Ingest(Workload):
    """The write path on large files: m = 10^5, depth 2 (10^4 as a probe)."""

    name = "ingest"
    depth = 2

    def setup(self) -> None:
        self.insts = None  # free the previous set-up before building anew
        m = 100_000 if self.full else 10_000
        rng = self.rng(1)
        grid = gen.make_grid(rng, m)
        self.insts = [gen.instance(rng, grid, self.depth) for _ in range(2)]
        self.texts = []
        for i, inst in enumerate(self.insts):
            path = self.workdir / f"ingest-{i}.json"
            path.write_text(gen.document_text(inst), encoding="utf-8")
            self.texts.append(path.read_text(encoding="utf-8"))
        self.lists = [(grid.tolist(), inst.values.tolist()) for inst in self.insts]
        self.triples = self.insts[0].triples
        self.cycle_work = {
            "fileio.parse_instance": self.triples,
            "core.multiset_from_values": self.triples,
            "algebra.union": 2 * self.triples,
            "algebra.intersection": 2 * self.triples,
            "algebra.complement": self.triples,
            "algebra.convex_combination": 2 * self.triples,
            "fileio.emit_instance": self.triples,
        }

    def cycle(self, index: int):
        n = self.triples
        first, second = self.insts[index % 2], self.insts[1 - index % 2]
        grid, va, vb = first.grid, first.values, second.values

        span = "fileio.parse_instance"
        text = self.texts[index % 2]
        ok, a = self.call(span, n, lambda: parse_instance(text))
        if not ok:
            return
        self.check(span, checks.matches(a, grid, va), "parse differs from generator")
        self.json_floor("json_loads_s", lambda: json.loads(text))
        yield

        span = "core.multiset_from_values"
        points, values = self.lists[1 - index % 2]
        ok, b = self.call(span, n, lambda: multiset_from_values(points, values))
        if not ok:
            return
        self.check(span, checks.matches(b, grid, vb), "values differ from input")
        yield

        lam = float(self.rng(1, index).random())
        binary = (
            ("algebra.union", lambda: union(a, b), checks.union(va, vb)),
            ("algebra.intersection", lambda: intersection(a, b), checks.intersection(va, vb)),
            ("algebra.complement", lambda: complement(a), checks.complement(va)),
            ("algebra.convex_combination", lambda: convex_combination(a, b, lam),
             checks.blend(va, vb, lam)),
        )
        for span, fn, expected in binary:
            work = n if span == "algebra.complement" else 2 * n
            ok, out = self.call(span, work, fn)
            if ok:
                self.check(span, checks.matches(out, grid, expected), "differs from numpy")
            out = None
            yield

        span = "fileio.emit_instance"
        ok, text = self.call(span, n, lambda: emit_instance(a))
        if ok:
            self.check(span, checks.document_matches(json.loads(text), grid, va),
                       "emitted document differs from generator")
            if self.traced:
                doc = {"format_version": "1", "domain": grid.tolist(),
                       "depth": self.depth, "elements": va.tolist()}
                self.json_floor("json_dumps_s",
                                lambda: json.dumps(doc, separators=(",", ":")))
        yield

    def metrics(self) -> dict[str, float]:
        return {"ingest.triples_per_s": self.rate(self.cycle_work)}


# ---------------------------------------------------------------------------


class Analyze(Workload):
    """The read path on instances parsed during set-up: m = 2*10^4
    (2*10^3 as a probe), depths 1, 2, 4 and 8, half convex and half with
    one planted dip."""

    name = "analyze"
    shapes = ((1, True), (2, False), (4, False), (8, True))
    pairs, lambdas = 200, 21
    jensen_calls, eval_batches, eval_batch = 10, 4, 500
    bulk = ("is_convex_exact", "convex_hull", "cut")
    point = ("is_convex_sampled", "jensen_check", "evaluate")

    def setup(self) -> None:
        self.models = None
        m = 20_000 if self.full else 2_000
        rng = self.rng(2)
        grid = gen.make_grid(rng, m)
        self.insts = [gen.instance(rng, grid, d, convex) for d, convex in self.shapes]
        self.models = []
        for inst in self.insts:
            text = gen.document_text(inst)
            span = "fileio.parse_instance"
            ok, ms = self.call(span, inst.triples, lambda: parse_instance(text),
                               key="setup", request="setup")
            if ok:
                self.check(span, checks.matches(ms, inst.grid, inst.values),
                           "parse differs from generator")
            self.json_floor("json_loads_s", lambda: json.loads(text))
            self.models.append(ms)
        # Work per cycle by request kind.  The cost per unit of work of a
        # kind is pooled over the four instances, so each median has four
        # times as many samples.
        self.cycle_work = defaultdict(int)
        for inst in self.insts:
            self.cycle_work["is_convex_exact"] += inst.triples
            self.cycle_work["convex_hull"] += inst.triples
            self.cycle_work["cut"] += inst.size
            self.cycle_work["is_convex_sampled"] += self.pairs * inst.depth * (self.lambdas + 2)
            self.cycle_work["jensen_check"] += self.jensen_calls * 5  # 2-6 points, mean 4, + 1
            self.cycle_work["evaluate"] += self.eval_batches * self.eval_batch
        self.detected = self.planted_samples = 0

    def cycle(self, index: int):
        rng = self.rng(2, index)
        requests = []
        for i in range(len(self.insts)):
            requests += [("is_convex_exact", i), ("convex_hull", i), ("cut", i),
                         ("is_convex_sampled", i)]
            requests += [("jensen_check", i)] * self.jensen_calls
            requests += [("evaluate", i)] * self.eval_batches
        for j in rng.permutation(len(requests)):
            kind, i = requests[j]
            self.request(rng, kind, i)
            yield

    def request(self, rng: np.random.Generator, kind: str, i: int) -> None:
        inst, ms = self.insts[i], self.models[i]
        if ms is None:  # its parse already counted as a failed operation
            return
        grid, values = inst.grid, inst.values
        key = kind
        level = int(rng.integers(1, inst.depth + 1))
        if kind == "is_convex_exact":
            span = "convexity.is_convex_exact"
            ok, report = self.call(span, inst.triples, lambda: is_convex_exact(ms), key)
            if ok:
                self.check(span, report.convex == inst.convex
                           and (report.witness is None) == inst.convex, "wrong verdict")
        elif kind == "convex_hull":
            span = "convexity.convex_hull"
            ok, field = self.call(span, inst.triples, lambda: convex_hull(ms), key)
            if ok:
                self.check(span, checks.hull_matches(field, values), "hull differs")
        elif kind == "cut":
            span = "convexity.cut"
            r, s, t = (float(rng.uniform(0, hi)) for hi in (
                gen.POSITIVE_CAP, gen.NEUTRAL_CAP, gen.NEGATIVE_CAP))
            ok, region = self.call(span, inst.size, lambda: cut(ms, (r, s, t), level), key)
            if ok:
                self.check(span, checks.cut_matches(region.intervals, grid, values,
                                                    level, r, s, t), "cut nodes differ")
        elif kind == "is_convex_sampled":
            span = "convexity.is_convex_sampled"
            sample_seed = int(rng.integers(2**31))
            work = self.pairs * inst.depth * (self.lambdas + 2)
            ok, report = self.call(span, work, lambda: is_convex_sampled(
                ms, self.pairs, self.lambdas, sample_seed), key)
            if ok:
                if inst.convex:
                    self.check(span, report.convex, "convex instance called non-convex")
                else:
                    self.planted_samples += 1
                    self.detected += not report.convex
                if not report.convex:
                    self.check(span, checks.witness_holds(report.witness, grid, values),
                               "witness does not re-check")
        elif kind == "jensen_check":
            span = "convexity.jensen_check"
            n = int(rng.integers(2, 7))
            points = [float(x) for x in rng.uniform(grid[0], grid[-1], n)]
            raw = rng.random(n) + 1e-3
            total = math.fsum(raw)
            weights = [float(w) / total for w in raw]
            ok, report = self.call(span, n + 1, lambda: jensen_check(
                ms, points, weights, level), key)
            if ok:
                self.check(span, checks.jensen_matches(report, grid, values, inst.convex,
                                                       points, weights, level),
                           "jensen report differs")
        else:
            span = "core.evaluate"
            xs = [float(x) for x in rng.uniform(grid[0], grid[-1], self.eval_batch)]
            ok, triples = self.call(span, self.eval_batch,
                                    lambda: [ms.evaluate(x, level) for x in xs], key)
            if ok:
                self.check(span, checks.evaluate_matches(triples, grid, values, xs, level),
                           "evaluate differs from np.interp")

    def _rate(self, kinds) -> float:
        return self.rate({k: self.cycle_work[k] for k in kinds})

    def metrics(self) -> dict[str, float]:
        self.layer["sampled_detect_ratio"] = self.detected / max(1, self.planted_samples)
        self.layer["sampled_detect_base"] = self.planted_samples
        return {
            "analyze.bulk_triples_per_s": self._rate(self.bulk),
            "analyze.point_evals_per_s": self._rate(self.point),
        }


# ---------------------------------------------------------------------------


class Suites(Workload):
    """All eight suites at the acceptance-run trial counts.  Each suite's
    trials run as ten calls of a tenth of them, interleaved across suites,
    so that every suite has ten timings per cycle to take a median from; a
    probe's cycle is one call per suite of a twentieth of them.  Suite
    seeds come from the workload seed."""

    name = "suites"
    chunks = 10

    def setup(self) -> None:
        share = self.chunks if self.full else 2 * self.chunks
        self.chunk = {name: trials // share for name, trials in SUITE_MIX.items()}
        self.counterexamples = 0
        for suite in self.chunk:  # warm-up: the first run of a suite is slower
            run_suite(suite, 2, self.seed)

    def cycle(self, index: int):
        for c in range(self.chunks if self.full else 1):
            for k, (suite, trials) in enumerate(self.chunk.items()):
                suite_seed = (self.seed * 7919 + index * 1009 + c * 101 + k) % 2**31
                span = f"lab.{suite}"
                ok, result = self.call(span, trials,
                                       lambda: run_suite(suite, trials, suite_seed))
                if ok:
                    if suite == "hull-theorem-discrepancy":
                        good = (result.passed and len(result.failures) >= 1
                                and result.failures[0] == CANONICAL_GAP_RECORD)
                        if index == 0:
                            self.counterexamples += len(result.failures)
                    else:
                        good = result.passed and len(result.failures) == 0
                    self.check(span, good, f"suite {suite} seed {suite_seed} did not pass")
                yield

    def metrics(self) -> dict[str, float]:
        self.layer["counterexamples"] = self.counterexamples
        return {"suites.trials_per_s": self.rate({f"lab.{s}": t for s, t in self.chunk.items()})}


# ---------------------------------------------------------------------------


INTERPRETER_S = 0.06  # start-up of a bare interpreter on the baseline host


class Cli(Workload):
    """One cold ``python -m pfms.cli`` process at a time on small files
    (m = 64, depth 2), the same as a probe.  Process times are rescaled
    by the start-up time of a bare interpreter (see speed.py)."""

    name = "cli"
    m, depth = 64, 2
    whole_cycles = True  # the median is taken over whole cycles of commands
    suite_names = tuple(SUITE_MIX)

    def __init__(self, *args, root: Path, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Cold processes still get a bytecode cache, as an installed package
        # has one; keeping it under the benchmark's output directory makes
        # the timing independent of PYTHONDONTWRITEBYTECODE and of whether
        # site-packages ships .pyc files, and writes nothing elsewhere.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.workdir.parent / "pycache")
        self.env = env
        self.clock = SpeedClock(lambda: self.spawn(["-c", "pass"]), INTERPRETER_S)
        self.samples: list[float] = []
        self.per_command: dict[str, list[float]] = defaultdict(list)

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], env=self.env, cwd=self.workdir,
            capture_output=True, text=True, timeout=120,
        )

    def setup(self) -> None:
        rng = self.rng(3)
        grid = gen.make_grid(rng, self.m)
        self.files = {}
        for label, convex in (("a", True), ("b", True), ("p", False)):
            inst = gen.instance(rng, grid, self.depth, convex)
            path = self.workdir / f"cli-{label}.json"
            path.write_text(gen.document_text(inst), encoding="utf-8")
            self.files[label] = (path.name, inst)
        # warm-up: the first process writes the bytecode cache
        self.spawn(["-m", "pfms.cli", "validate", self.files["a"][0]])

    def cycle(self, index: int):
        rng = self.rng(3, index)
        for command in CLI_COMMANDS:
            self.run_command(rng, command)
            yield

    def run_command(self, rng: np.random.Generator, command: str) -> None:
        label = ("a", "b", "p")[int(rng.integers(3))]
        convex_label = ("a", "b")[int(rng.integers(2))]
        path, inst = self.files[label]
        level = int(rng.integers(1, self.depth + 1))
        if command == "validate":
            argv = ["validate", path]
        elif command == "check-convex":
            argv = ["check-convex", path]
        elif command == "cut":
            r, s, t = (float(rng.uniform(0, hi)) for hi in (
                gen.POSITIVE_CAP, gen.NEUTRAL_CAP, gen.NEGATIVE_CAP))
            argv = ["cut", path, "--r", repr(r), "--s", repr(s), "--t", repr(t),
                    "--level", str(level)]
        elif command == "hull":
            argv = ["hull", path]
        elif command == "op-union":
            argv = ["op", "union", self.files["a"][0], self.files["b"][0]]
        elif command == "jensen":
            path, inst = self.files[convex_label]
            n = int(rng.integers(2, 7))
            points = [float(x) for x in rng.uniform(inst.grid[0], inst.grid[-1], n)]
            raw = rng.random(n) + 1e-3
            weights = [float(w) / math.fsum(raw) for w in raw]
            # the ``=`` form keeps a leading minus sign from reading as a flag
            argv = ["jensen", path, "--points=" + ",".join(map(repr, points)),
                    "--weights=" + ",".join(map(repr, weights)), "--level", str(level)]
        else:
            suite = self.suite_names[int(rng.integers(len(self.suite_names)))]
            argv = ["suite", "--name", suite, "--trials", "5",
                    "--seed", str(int(rng.integers(2**31)))]
        span = f"cli.{command}"
        ok, proc = self.call(span, 1, lambda: self.spawn(["-m", "pfms.cli", *argv]),
                             key="cli")
        if not ok:
            return
        elapsed_ms = 1000.0 * self.cost["cli"][-1]  # one unit of work per process
        self.samples.append(elapsed_ms)
        self.per_command[command].append(elapsed_ms)
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            self.fail(span, f"stdout is not JSON (exit {proc.returncode})")
            return
        expected_code = 0
        if command == "validate":
            good = out.get("valid") is True and out.get("points") == self.m
        elif command == "check-convex":
            expected_code = 0 if inst.convex else 1
            good = out.get("convex") is inst.convex
        elif command == "cut":
            good = checks.cut_matches([tuple(p) for p in out["intervals"]], inst.grid,
                                      inst.values, level, r, s, t)
        elif command == "hull":
            env, valid = checks.hull(inst.values)
            good = checks.same_bits(out["values"], env) and bool(
                np.array_equal(np.asarray(out["valid"], dtype=bool), valid))
        elif command == "op-union":
            a, b = self.files["a"][1], self.files["b"][1]
            good = checks.document_matches(out, a.grid, checks.union(a.values, b.values))
        elif command == "jensen":
            good = out.get("ok") is True
        else:
            good = out.get("passed") is True
        self.check(span, good and proc.returncode == expected_code,
                   f"exit {proc.returncode}, output {proc.stdout[:200]!r}")

    def import_facts(self) -> None:
        """Import cost of ``pfms.cli`` and what it loads (traced pass)."""
        def median_ms(argv: list[str]) -> float:  # wall time, not rescaled
            return 1000.0 * statistics.median(
                self.clock.time(lambda: self.spawn(argv))[2] for _ in range(5))

        self.layer["import_ms"] = median_ms(["-c", "import pfms.cli"])
        probe = (
            "import json, sys; before = set(sys.modules); import pfms.cli; "
            "print(json.dumps([len(set(sys.modules) - before), 'numpy' in sys.modules]))"
        )
        added, numpy_loaded = json.loads(self.spawn(["-c", probe]).stdout)
        self.layer["import_modules"] = added
        self.layer["numpy_on_import"] = int(numpy_loaded)

    def metrics(self) -> dict[str, float]:
        ordered = sorted(self.samples)
        n = len(ordered)
        rank = max(0, n - 11)  # ten samples lie beyond this one
        self.layer["latency_tail_pct"] = 100.0 * (rank + 1) / max(1, n)
        self.layer["latency_samples"] = n
        self.layer["interpreter_ms"] = 1000.0 * statistics.median(self.clock.history)
        for command, times in self.per_command.items():
            self.layer[f"{command}.p50_ms"] = statistics.median(times)
        return {
            "cli.latency_p50_ms": statistics.median(ordered) if ordered else 0.0,
            "cli.latency_tail_ms": ordered[rank] if ordered else 0.0,
        }


PHASES = (Ingest, Analyze, Suites, Cli)
