"""The summary math of tools/pairs.py on synthetic run records; nothing
is run or exported."""

import importlib.util
import json
from pathlib import Path

import pytest

import test_bench_files

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _record(value: float, failed: int = 0) -> dict:
    """A run's last stdout line in which every end-to-end metric reads ``value``."""
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in END_TO_END}}


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"seed": 900 + i, "first": pairs.first_side(i),
             "parent": _record(p), "change": _record(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_sides_alternate_from_the_parent():
    assert [pairs.first_side(i) for i in range(5)] == [
        "parent", "change", "parent", "change", "parent"]


def test_medians_quartiles_and_ratio():
    # parent 1..10, change 2x: inclusive quartiles of 1..10 are 3.25 and 7.75
    m = pairs.summarise_metric(_pairs(range(1, 11), range(2, 21, 2)), "setup_s", "lower")
    assert m["parent_median"] == 5.5 and m["parent_quartiles"] == [3.25, 7.75]
    assert m["change_median"] == 11.0 and m["change_quartiles"] == [6.5, 15.5]
    assert m["ratio"] == 2.0 and m["pairs"] == 10
    assert m["unit"] == "s" and m["better"] == "lower"


def test_ratio_comes_from_unrounded_medians():
    # stored to 4 significant figures the medians read 1.000 and 1.002, a
    # quotient of 1.002; the unrounded quotient is 1.0014996
    m = pairs.summarise_metric(_pairs([1.0004], [1.0019]), "setup_s", "lower")
    assert m["parent_median"] == 1.0 and m["change_median"] == 1.002
    assert m["ratio"] == 1.001
    m = pairs.summarise_metric(_pairs([1_234_567.0], [2_345_678.0]), "setup_s", "lower")
    assert m["parent_median"] == 1_235_000.0 and m["change_median"] == 2_346_000.0
    assert m["ratio"] == round(2_345_678.0 / 1_234_567.0, 3)


@pytest.mark.parametrize("better, won", [("higher", 2), ("lower", 1)])
def test_pairs_won_follow_the_direction_and_ties_count_for_neither(better, won):
    m = pairs.summarise_metric(_pairs([1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 2.5, 4.5]),
                               "setup_s", better)
    assert m["pairs_won"] == won


def test_medians_split_by_the_side_run_first():
    # pairs 0 and 2 ran the parent first, pairs 1 and 3 the change
    m = pairs.summarise_metric(_pairs([1.0, 10.0, 3.0, 30.0], [2.0, 20.0, 4.0, 40.0]),
                               "setup_s", "lower")
    assert m["medians_by_first_side"] == {
        "parent_first": {"parent": 2.0, "change": 3.0},
        "change_first": {"parent": 20.0, "change": 30.0},
    }


def test_one_pair_is_its_own_quartiles():
    m = pairs.summarise_metric(_pairs([3.0], [4.0]), "setup_s", "lower")
    assert m["parent_quartiles"] == [3.0, 3.0] and m["change_quartiles"] == [4.0, 4.0]
    assert list(m["medians_by_first_side"]) == ["parent_first"]


def test_workload_counts_failures_and_correctness():
    runs = _pairs([1.0, 2.0], [1.0, 2.0])
    entry = pairs.summarise_workload(runs, END_TO_END)
    assert entry["correct"] and entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"] == {"parent": 200, "change": 200}
    assert entry["seeds"] == [900, 901] and entry["first_side"] == ["parent", "change"]
    assert list(entry["metrics"]) == [m["name"] for m in END_TO_END]
    runs[1]["change"] = _record(2.0, failed=3)
    entry = pairs.summarise_workload(runs, END_TO_END)
    assert not entry["correct"] and entry["failed"] == {"parent": 0, "change": 3}
    assert "correct: false" in pairs.table("suites", entry)


def test_bench_document_passes_the_bench_file_checks():
    round_ = {"name": "final", "code": "synthetic",
              "workloads": {"ingest": pairs.summarise_workload(
                  _pairs([1.0, 3.0, 2.0, 5.0], [1.2, 2.9, 2.4, 5.5]), END_TO_END)}}
    commits = {"parent": "a" * 40, "change": "b" * 40}
    claim = {"metric": "ingest.triples_per_s", "workload": "ingest", "issue_target": ""}
    machine = {"nproc": 2, "cpu_model": "x", "mem_total_mb": 1, "python": "3", "numpy": "2",
               "git_commit": None}
    bench = pairs.bench_document(commits, claim, machine, 8.0, round_)
    assert "git_commit" not in bench["machine"]
    for check in (test_bench_files.test_commits_are_full_hashes,
                  test_bench_files.test_claim_names_a_declared_metric_and_workload,
                  test_bench_files.test_rounds_report_declared_metrics_and_workloads,
                  test_bench_files.test_ratio_is_change_median_over_parent_median,
                  test_bench_files.test_pairs_won_at_most_pairs,
                  test_bench_files.test_quartiles_bracket_the_medians):
        check(bench)
