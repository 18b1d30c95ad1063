"""Paired benchmark runs of two commits, summarised as a BENCH_<n>.json.

Run from anywhere inside the repository:

    python3 tools/pairs.py --base HEAD~1 --scratch /tmp/pairs \\
        --workload ingest --first-seed 32301 --out BENCH_32.json

Both commits are exported with ``git archive`` into ``--scratch``
(``parent/`` and ``change/``), and the change tree's ``perfbench/`` is
copied into the parent's export, so both sides run the same benchmark
code.  Each workload then runs ``--pairs`` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one seed per pair (the k-th workload named takes ``--first-seed`` + 100k,
+1, ...), the parent running first in even pairs and the change first in
odd ones.  For every end-to-end
metric the tool prints each side's median and inclusive quartiles, the
ratio of the medians, the pairs the change won (ties count for neither;
the direction is BENCHMARK.json's ``better``) and the medians over the
pairs each side ran first in, since a run can favour the side that runs
second.  Each run's last stdout line is also appended to
``<scratch>/runs.jsonl``.

With ``--out`` the summary is written as one round of a bench file; a
file that already holds rounds for the same two commits gains one more
(name it with ``--round``).  The exit status is 1 when any run fails an operation or does not read
``correct: true``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

WHAT = (
    "Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
    "--seed S --seconds {seconds:g} --trace 0`, one pair per seed, the side run first "
    "alternating from pair to pair, both sides run from trees exported with git "
    "archive with identical perfbench/ (tools/pairs.py). Each run reports every "
    "end-to-end metric: the named workload at full size, the other three as probes. "
    "Medians and quartiles (inclusive method) are over the pairs of a round, stored "
    "to 4 significant figures; ratio is change median / parent median from the "
    "unrounded medians; pairs_won counts pairs where the change is better in the "
    "metric's direction, ties counting for neither; medians_by_first_side holds the "
    "medians over the pairs each side ran first in. Single-host trajectory: compare "
    "only with files from the same machine."
)


def first_side(pair: int) -> str:
    """The side that runs first in pair number ``pair``, counting from 0."""
    return SIDES[pair % 2]


def _sig4(x: float) -> float:
    return float(f"{x:.4g}")


def _quartiles(xs: list[float]) -> list[float]:
    """Lower and upper quartiles, inclusive method; one value is its own."""
    if len(xs) == 1:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def summarise_metric(pairs: list[dict], name: str, better: str) -> dict:
    """Summary of one metric over ``pairs``, each a dict with ``first`` (a
    side) and, per side, the record that run printed last."""
    value = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
    medians = {s: statistics.median(value[s]) for s in SIDES}
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
    by_first = {}
    for first in SIDES:
        picked = [p for p in pairs if p["first"] == first]
        if picked:
            by_first[f"{first}_first"] = {
                s: _sig4(statistics.median(p[s]["metrics"][name]["value"] for p in picked))
                for s in SIDES
            }
    return {
        "unit": pairs[0]["change"]["metrics"][name]["unit"],
        "better": better,
        "parent_median": _sig4(medians["parent"]),
        "parent_quartiles": [_sig4(q) for q in _quartiles(value["parent"])],
        "change_median": _sig4(medians["change"]),
        "change_quartiles": [_sig4(q) for q in _quartiles(value["change"])],
        "ratio": round(medians["change"] / medians["parent"], 3),
        "pairs_won": won,
        "pairs": len(pairs),
        "medians_by_first_side": by_first,
    }


def summarise_workload(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's entry in a bench round, from its pairs of records."""
    return {
        "seeds": [p["seed"] for p in pairs],
        "first_side": [p["first"] for p in pairs],
        "correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in SIDES),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "metrics": {m["name"]: summarise_metric(pairs, m["name"], m["better"])
                    for m in end_to_end},
    }


def table(workload: str, entry: dict) -> str:
    """The printed summary of one workload's entry."""
    seeds = entry["seeds"]
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won",
             "parent iqr/median", "medians (parent / change) by the side run first")]
    for name, m in entry["metrics"].items():
        p_lo, p_hi = m["parent_quartiles"]
        c_lo, c_hi = m["change_quartiles"]
        rows.append((
            name,
            f"{m['parent_median']:.4g} [{p_lo:.4g}, {p_hi:.4g}]",
            f"{m['change_median']:.4g} [{c_lo:.4g}, {c_hi:.4g}]",
            f"{m['ratio']:.3f}",
            f"{m['pairs_won']}/{m['pairs']}",
            f"{(p_hi - p_lo) / m['parent_median']:.3f}",
            "  ".join(f"{k}: {v['parent']:.4g} / {v['change']:.4g}"
                      for k, v in m["medians_by_first_side"].items()),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        [f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
         f"correct: {str(entry['correct']).lower()}, failed {entry['failed']}"]
        + ["  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
           for row in rows]
    )


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commits: dict[str, str], scratch: Path) -> dict[str, Path]:
    """Export each side's commit under ``scratch``, the parent with the
    change's perfbench/."""
    trees = {}
    for side, commit in commits.items():
        tree = scratch / side
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        trees[side] = tree
    shutil.rmtree(trees["parent"] / "perfbench")
    shutil.copytree(trees["change"] / "perfbench", trees["parent"] / "perfbench")
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its last stdout line and its machine line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.splitlines()
    machine = next(json.loads(line[len("machine: "):]) for line in lines
                   if line.startswith("machine: "))
    return json.loads(lines[-1]), machine


def bench_document(commits: dict[str, str], claim: dict, machine: dict, seconds: float,
                   round_: dict) -> dict:
    return {
        "what": WHAT.format(seconds=seconds),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "claim": claim,
        "machine": {k: machine[k] for k in ("nproc", "cpu_model", "mem_total_mb",
                                            "python", "numpy")},
        "rounds": [round_],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent side's commit")
    parser.add_argument("--change", default="HEAD", help="the change side's commit")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the two exports and runs.jsonl")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run pairs of; repeat for several")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", type=Path, help="bench file to write or add a round to")
    parser.add_argument("--round", default="final", help="the round's name in --out")
    parser.add_argument("--code", default="", help="what code the round ran, for --out")
    parser.add_argument("--claim-metric", help="the claimed end-to-end metric, for --out")
    parser.add_argument("--claim-workload", help="the workload it is claimed on")
    parser.add_argument("--claim-target", default="", help="the target the claim must meet")
    args = parser.parse_args(argv)
    if not 1 <= args.pairs <= 100:
        parser.error("--pairs must lie in 1..100, as workloads' seeds lie 100 apart")
    bench = None
    if args.out and args.out.exists():
        bench = json.loads(args.out.read_text(encoding="utf-8"))
        if any(r["name"] == args.round for r in bench["rounds"]):
            parser.error(f"{args.out} already has a round named {args.round!r}")
    elif args.out and not (args.claim_metric and args.claim_workload):
        parser.error("a new bench file needs --claim-metric and --claim-workload")

    commits = {"parent": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
               "change": _git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    if bench and (bench["parent_commit"], bench["change_commit"]) != (commits["parent"],
                                                                      commits["change"]):
        parser.error(f"{args.out} compares other commits")
    args.scratch.mkdir(parents=True, exist_ok=True)
    trees = export(commits, args.scratch)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, machine = {}, None
    with open(args.scratch / "runs.jsonl", "a", encoding="utf-8") as log:
        for w_index, workload in enumerate(args.workload):
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + 100 * w_index + i
                pair = {"seed": seed, "first": first_side(i)}
                order = SIDES if pair["first"] == "parent" else SIDES[::-1]
                for side in order:
                    pair[side], machine = run_once(trees[side], workload, seed, args.seconds)
                    log.write(json.dumps({"workload": workload, "seed": seed, "side": side,
                                          "commit": commits[side], **pair[side]}) + "\n")
                    log.flush()
                pairs.append(pair)
            workloads[workload] = summarise_workload(pairs, spec["end_to_end"])
            print(table(workload, workloads[workload]), flush=True)

    if args.out:
        round_ = {"name": args.round, "code": args.code, "workloads": workloads}
        if bench is None:
            claim = {"metric": args.claim_metric, "workload": args.claim_workload,
                     "issue_target": args.claim_target}
            bench = bench_document(commits, claim, machine, args.seconds, round_)
        else:
            bench["rounds"].append(round_)
        args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
