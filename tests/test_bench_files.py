"""Consistency of the checked-in benchmark records, BENCH_*.json at the
repository root: paired parent/change runs of perfbench, summarised per
round, workload and end-to-end metric."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {w["name"] for w in spec["workloads"]}


def _metrics(bench):
    for rnd in bench["rounds"]:
        for workload, runs in rnd["workloads"].items():
            for name, metric in runs["metrics"].items():
                yield f"{rnd['name']}/{workload}/{name}", metric


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.fixture(params=BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def bench(request):
    return json.loads(request.param.read_text())


def test_commits_are_full_hashes(bench):
    for key in ("parent_commit", "change_commit"):
        assert re.fullmatch(r"[0-9a-f]{40}", bench[key]), key


def test_claim_names_a_declared_metric_and_workload(bench):
    metrics, workloads = _declared()
    assert bench["claim"]["metric"] in metrics
    assert bench["claim"]["workload"] in workloads


def test_rounds_report_declared_metrics_and_workloads(bench):
    metrics, workloads = _declared()
    assert bench["rounds"]
    for rnd in bench["rounds"]:
        assert set(rnd["workloads"]) <= workloads
        for runs in rnd["workloads"].values():
            assert set(runs["metrics"]) <= metrics


def test_ratio_is_change_median_over_parent_median(bench):
    # The ratio is rounded to 3 decimals from the unrounded medians, and the
    # medians are stored to 4 significant figures, each off by at most 5e-4
    # of itself; so the stored ratio may differ from the quotient of the
    # stored medians by half a unit of its last decimal plus 1e-3 of itself.
    for key, m in _metrics(bench):
        quotient = m["change_median"] / m["parent_median"]
        assert abs(m["ratio"] - quotient) <= 5e-4 + 1e-3 * m["ratio"], key


def test_pairs_won_at_most_pairs(bench):
    for key, m in _metrics(bench):
        assert 0 <= m["pairs_won"] <= m["pairs"], key


def test_quartiles_bracket_the_medians(bench):
    for key, m in _metrics(bench):
        for side in ("parent", "change"):
            low, high = m[f"{side}_quartiles"]
            assert low <= m[f"{side}_median"] <= high, (key, side)
