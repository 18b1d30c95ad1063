"""Benchmark for pfms: four workloads, eight end-to-end metrics.

Run from the root of a source checkout (pfms is imported from ``src``):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--workload`` names the workload that gets the full ``--seconds``
budget at full size; the other three run as smaller probes for
``PROBE_SHARE`` of it each, so every run exercises every layer and prints
every metric.  The phases run
in the order ingest, analyze, suites, cli, each set up ``SETUP_REPEATS``
times right before it runs (``setup_s`` sums the per-phase medians), so
the peak resident memory read after ingest belongs to a process that has
run only ingest.  Loads are closed-loop with one client and no threads.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics.  With ``--trace 1`` the same run is made twice, once
untraced and once with spans around every call into pfms, and the last
line holds the per-layer metrics from the traced pass, including the
tracing overhead on each end-to-end metric.  Results, machine facts and
spans are also written under ``perfbench/out/``.

Every time the benchmark reports, end-to-end and per-layer, is a wall
time rescaled by the host's speed on a fixed reference routine measured
next to it (``speed.py``), because the shared hosts it runs on drift in
speed by up to 1.5x over tens of seconds.  The median rescaling factor of
each pass is kept in the result file, so wall times can be recovered.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
PROBE_SHARE = 0.4  # of --seconds, for each workload the run is not named after


def machine_facts() -> dict:
    import numpy

    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    mem_kb = next(
        (int(line.split()[1]) for line in read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        0,
    )
    commit = None
    head = read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        commit = read(str(ROOT / ".git" / head[5:])).strip() or None
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def run_pass(args, tracer, clock, workdir: Path) -> dict:
    """Set up and run the four phases once; return their summaries."""
    from workloads import PHASES, Cli

    setup_s = 0.0
    summary = {"workloads": {}, "metrics": {}, "layer": {}, "errors": [],
               "attempted": 0, "failed": 0}
    for phase in PHASES:
        full = phase.name == args.workload
        extra = {"root": ROOT} if phase is Cli else {}
        wl = phase(args.seed, full, tracer, clock, workdir, **extra)
        times = [clock.time(wl.setup)[1] for _ in range(SETUP_REPEATS)]
        setup_s += statistics.median(times)
        wl.drive(args.seconds if full else args.seconds * PROBE_SHARE)
        if phase is Cli and wl.traced:
            wl.import_facts()
        summary["metrics"].update(wl.metrics())
        if phase.name == "ingest":
            # ru_maxrss is in KiB on Linux
            summary["metrics"]["ingest.peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        summary["layer"].update({f"{wl.name}.{k}": v for k, v in wl.layer.items()})
        summary["workloads"][wl.name] = {
            "mode": "full" if full else "probe",
            "attempted": wl.attempted,
            "failed": wl.failed,
            "setup_s": times,
        }
        summary["attempted"] += wl.attempted
        summary["failed"] += wl.failed
        summary["errors"] += wl.errors
        del wl
    summary["metrics"]["setup_s"] = setup_s
    summary["speed_factor"] = clock.median_factor()
    return summary


def per_layer(tracer, traced: dict, untraced: dict) -> dict[str, float]:
    """Every per-layer metric in spec.per_layer() order."""
    import spec

    values: dict[str, float] = {}
    functions = (
        spec.FILEIO + ("core.multiset_from_values", "core.evaluate") + spec.ALGEBRA
        + spec.CONVEXITY_BULK + spec.CONVEXITY_POINT
        + tuple(f"lab.{s}" for s in spec.SUITE_MIX)
        + tuple(f"cli.{c}" for c in spec.CLI_COMMANDS)
    )
    for name in functions:
        busy = tracer.busy(name)
        rate = tracer.work[name] / busy if busy > 0 else 0.0
        values[f"{name}.calls"] = tracer.calls(name)
        values[f"{name}.busy_s"] = busy
        for unit in ("triples_per_s", "evals_per_s", "trials_per_s"):
            values[f"{name}.{unit}"] = rate
        values[f"{name}.failed"] = tracer.failed[name]
    values["core.evaluate.calls"] = tracer.work["core.evaluate"]  # one span per batch
    values["bench.speed_factor"] = traced["speed_factor"]
    self_times = tracer.self_times()
    for layer in spec.LAYERS + ("bench",):
        prefix = layer + "."
        values[f"{layer}.calls"] = sum(1 for s in tracer.spans if s["name"].startswith(prefix))
        values[f"{layer}.self_s"] = self_times.get(layer, 0.0)
        values[f"{layer}.failed"] = sum(
            n for k, n in tracer.failed.items() if k.startswith(prefix))

    layer = traced["layer"]
    loads = layer.get("ingest.json_loads_s", 0.0) + layer.get("analyze.json_loads_s", 0.0)
    dumps = layer.get("ingest.json_dumps_s", 0.0)
    values["fileio.parse_over_json_floor"] = (
        tracer.busy("fileio.parse_instance") / loads if loads else 0.0)
    values["fileio.emit_over_json_floor"] = (
        tracer.busy("fileio.emit_instance") / dumps if dumps else 0.0)
    values["convexity.sampled_detect_ratio"] = layer["analyze.sampled_detect_ratio"]
    values["convexity.sampled_detect_base"] = layer["analyze.sampled_detect_base"]
    values["lab.hull-theorem-discrepancy.counterexamples"] = layer["suites.counterexamples"]
    for key, value in layer.items():
        if key.startswith("cli."):
            values[key] = value

    for name, _, better, _ in spec.END_TO_END:
        if name == "ingest.peak_rss_mb":
            continue  # one process holds both passes, so its peak is shared
        before, after = untraced["metrics"][name], traced["metrics"][name]
        ratio = after / before if better == "lower" else before / after
        values[f"trace.overhead.{name}"] = 100.0 * (ratio - 1.0)

    return {name: values[name] for name, _, _ in spec.per_layer()}


def main(argv: list[str] | None = None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pfms  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import pfms from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from spans import NoTracer, Tracer
    from speed import SpeedClock

    # One CPU for the benchmark and every process it starts: the speed
    # reference (speed.py) then times the core that runs the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        untraced = run_pass(args, NoTracer(), SpeedClock(), workdir)
        passes = [untraced]
        if args.trace:
            tracer = Tracer()
            traced = run_pass(args, tracer, SpeedClock(), workdir)
            passes.append(traced)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    if args.trace:
        units.update({name: unit for name, unit, _ in spec.per_layer()})
        values = per_layer(tracer, traced, untraced)
    else:
        values = {name: untraced["metrics"][name] for name, _, _, _ in spec.END_TO_END}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    facts = machine_facts()

    print(f"machine: {json.dumps(facts)}")
    for p in passes:
        for name, w in p["workloads"].items():
            print(f"workload {name} ({w['mode']}): attempted {w['attempted']}, "
                  f"failed {w['failed']}")
    for error in untraced["errors"] + (passes[1]["errors"] if args.trace else []):
        print(f"failure: {error}")
    for name, _, _, _ in spec.END_TO_END:
        line = f"{name} = {untraced['metrics'][name]:.6g} {units[name]}"
        if name == "cli.latency_tail_ms":
            layer = untraced["layer"]
            line += (f" (p{layer['cli.latency_tail_pct']:.1f} of "
                     f"{layer['cli.latency_samples']} samples)")
        print(line)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "attempted": attempted,
        "failed": failed, "metrics": metrics,
        "passes": [{k: p[k] for k in ("workloads", "metrics", "speed_factor", "errors")}
                   for p in passes],
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
