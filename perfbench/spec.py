"""Names, units and directions of every metric the benchmark reports.

This is the one list that ``run.py`` reports and ``BENCHMARK.json``
declares.  Running this file prints the ``end_to_end`` and ``per_layer``
entries as they appear in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json

WORKLOADS = ("ingest", "analyze", "suites", "cli")

# name, unit, better, bound (share of the parent's median).  Timings get the
# largest bound allowed: even after rescaling by host speed (speed.py),
# ten runs on a shared 2-core host spread by up to a fifth on some metrics.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ingest.triples_per_s", "triples/s", "higher", 0.25),
    ("ingest.peak_rss_mb", "MB", "lower", 0.1),
    ("analyze.bulk_triples_per_s", "triples/s", "higher", 0.25),
    ("analyze.point_evals_per_s", "evals/s", "higher", 0.25),
    ("suites.trials_per_s", "trials/s", "higher", 0.25),
    ("cli.latency_p50_ms", "ms", "lower", 0.25),
    ("cli.latency_tail_ms", "ms", "lower", 0.25),
)

# Traced functions, named as their spans are.  ``calls`` is reported only
# where a later change is expected to alter how often the function runs
# per request.
FILEIO = ("fileio.parse_instance", "fileio.emit_instance")
ALGEBRA = tuple(
    f"algebra.{op}"
    for op in ("union", "intersection", "complement", "convex_combination")
)
CONVEXITY_BULK = tuple(
    f"convexity.{f}" for f in ("is_convex_exact", "cut", "convex_hull")
)
CONVEXITY_POINT = tuple(
    f"convexity.{f}" for f in ("is_convex_sampled", "jensen_check")
)
SUITE_MIX = {
    "cut-equivalence": 500,
    "oracle-equivalence": 1000,
    "intersection-closure": 500,
    "family-intersection": 200,
    "jensen": 300,
    "hull-properties": 1000,
    "algebra-laws": 1000,
    "hull-theorem-discrepancy": 100,
}
CLI_COMMANDS = (
    "validate", "check-convex", "cut", "hull", "op-union", "jensen", "suite",
)
LAYERS = ("fileio", "core", "algebra", "convexity", "lab", "cli")


def per_layer() -> list[tuple[str, str, str]]:
    out: list[tuple[str, str, str]] = []

    def traced(name: str, rate: str | None, unit: str, calls: bool) -> None:
        if calls:
            out.append((f"{name}.calls", "count", "higher"))
        out.append((f"{name}.busy_s", "s", "lower"))
        if rate:
            out.append((f"{name}.{rate}", unit, "higher"))
        out.append((f"{name}.failed", "count", "lower"))

    def layer(name: str) -> None:
        out.append((f"{name}.calls", "count", "higher"))
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.failed", "count", "lower"))

    for name in FILEIO:
        traced(name, "triples_per_s", "triples/s", True)
    out.append(("fileio.parse_over_json_floor", "ratio", "lower"))
    out.append(("fileio.emit_over_json_floor", "ratio", "lower"))
    layer("fileio")
    traced("core.multiset_from_values", "triples_per_s", "triples/s", True)
    traced("core.evaluate", None, "", True)
    layer("core")
    for name in ALGEBRA:
        traced(name, "triples_per_s", "triples/s", False)
    layer("algebra")
    for name in CONVEXITY_BULK:
        traced(name, "triples_per_s", "triples/s", False)
    for name in CONVEXITY_POINT:
        traced(name, "evals_per_s", "evals/s", False)
    out.append(("convexity.sampled_detect_ratio", "ratio", "higher"))
    out.append(("convexity.sampled_detect_base", "count", "higher"))
    layer("convexity")
    for suite in SUITE_MIX:
        traced(f"lab.{suite}", "trials_per_s", "trials/s", False)
    out.append(("lab.hull-theorem-discrepancy.counterexamples", "count", "higher"))
    layer("lab")
    out.append(("cli.interpreter_ms", "ms", "lower"))
    out.append(("cli.import_ms", "ms", "lower"))
    out.append(("cli.import_modules", "count", "lower"))
    out.append(("cli.numpy_on_import", "count", "lower"))
    for command in CLI_COMMANDS:
        out.append((f"cli.{command}.p50_ms", "ms", "lower"))
        out.append((f"cli.{command}.failed", "count", "lower"))
    out.append(("cli.latency_tail_pct", "pct", "higher"))
    out.append(("cli.latency_samples", "count", "higher"))
    layer("cli")
    out.append(("bench.self_s", "s", "lower"))
    out.append(("bench.speed_factor", "ratio", "higher"))
    for name, _, _, _ in END_TO_END:
        if name != "ingest.peak_rss_mb":
            out.append((f"trace.overhead.{name}", "%", "lower"))
    return out


def benchmark_fragment() -> dict:
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_fragment(), indent=2))
