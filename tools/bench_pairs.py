#!/usr/bin/env python3
"""Paired benchmark runs: a parent checkout against this tree, alternating.

    python3 tools/bench_pairs.py --parent ../lmmt-parent --claim betti-ladder \\
        --target "about 0.141 -> <= 0.123 s" --pairs 10 --seed 3 --seconds 25

For each pair index p = 0..pairs-1 and each workload in turn, one
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs in
each tree, parent first when p is even and this tree first when p is odd:
one process per run, one run at a time, each tree's own ``perfbench`` on its
own ``src``.  Every run compiles from source, whatever bytecode either tree
holds: ``PYTHONPYCACHEPREFIX`` points at an empty directory and
``PYTHONDONTWRITEBYTECODE=1`` keeps it empty.  A tree with ``__pycache__``
against one without reads about 50 ms less ``setup_s``, as perfbench's
set-up re-imports ``lmmt``.

The record, ``BENCH_<claim>.json`` at this tree's root, holds,
per workload and end-to-end metric of ``BENCHMARK.json``: each side's median
and quartiles, the pairs this tree wins and ties, the ratio of the medians
and every run's value; the jobs failed and attempted; and both sides'
``src_sha256`` as perfbench prints them.  The claim, ``wall_s`` on
``--claim``'s workload, is met when this tree wins at least 9 of 10 pairs
and the medians differ by more than the parent's interquartile range.
Without ``--claim`` the runs only check for regressions: the record has
``"claim": null`` and is written to ``BENCH_pairs.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
METRIC = "wall_s"  # the claimed end-to-end metric
RULE = ("change wins >= 9 of >= 10 alternating pairs and the medians differ by more than "
        "the parent's interquartile range")


def run_once(tree: Path, workload: str, seed: int, seconds: float, no_cache: str) -> dict:
    """One untraced perfbench run in tree, reading bytecode from the empty
    directory no_cache only: its result line plus its env stamp."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=10 * seconds + 300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": no_cache})
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} on {workload}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {**json.loads(lines[-1]), "env": env}


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: List[float], change: List[float], lower: bool) -> dict:
    """Both sides' summaries, wins and ties by pair, and every run."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return {"parent": summary(parent), "change": summary(change), "change_wins": wins,
            "ties": ties, "pairs": len(parent),
            "median_ratio": statistics.median(change) / statistics.median(parent),
            "runs_parent": parent, "runs_change": change}


def claim_met(row: dict) -> bool:
    parent, change = row["parent"], row["change"]
    return (10 * row["change_wins"] >= 9 * row["pairs"] and row["pairs"] >= 10
            and abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--claim", choices=names, help="the claimed workload, if any")
    ap.add_argument("--target", default="", help="the claim's expected move, as text")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        ap.error(f"no perfbench/run.py under {parent}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: Dict[str, Dict[str, List[dict]]] = {w: {"parent": [], "change": []}
                                               for w in args.workloads}
    with tempfile.TemporaryDirectory() as no_cache:
        for p in range(args.pairs):
            for w in args.workloads:
                for side in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
                    tree = parent if side == "parent" else ROOT
                    result = run_once(tree, w, args.seed, args.seconds, no_cache)
                    runs[w][side].append(result)
                    print(f"pair {p} {w:<16} {side:<6} {METRIC} "
                          f"{result['metrics'][METRIC]['value']:.6g}", flush=True)

    workloads = {}
    for w, sides in runs.items():
        row = {m: compare(*([r["metrics"][m]["value"] for r in sides[s]]
                            for s in ("parent", "change")), lower=better[m] == "lower")
               for m in better}
        for key in ("failed", "attempted"):
            row[key] = {s: sum(r[key] for r in sides[s]) for s in sides}
        row["correct"] = {s: all(r["correct"] for r in sides[s]) for s in sides}
        workloads[w] = row
    first = {s: runs[args.workloads[0]][s][0]["env"] for s in ("parent", "change")}
    record = {
        "claim": {
            "workload": args.claim, "metric": METRIC, "better": better[METRIC],
            "target": args.target, "rule": RULE,
            "met": claim_met(workloads[args.claim][METRIC]) if args.claim in workloads else None,
        } if args.claim else None,
        "harness": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": f"{args.pairs} per workload; parent first on even pairs, change first on odd "
                 "pairs; one process per run; the workloads interleaved within each pair index",
        "parent_commit": first["parent"]["git_sha"],
        "host": {"nproc": first["change"]["nproc"], "python": platform.python_version(),
                 "bytecode": "none: every run compiles from source",
                 "note": "times are perfbench's probe-scaled values"},
        "src_sha256": {s: first[s]["src_sha256"] for s in ("parent", "change")},
        "src_sha256_note": "perfbench's src_digest of the benched trees",
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.claim or 'pairs'}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w, row in workloads.items():
        cells = "  ".join(f"{m} {row[m]['parent']['median']:.5g} -> "
                          f"{row[m]['change']['median']:.5g} "
                          f"({row[m]['change_wins']}/{row[m]['pairs']})" for m in better)
        print(f"{w:<16} {cells}")
    met = f"claim met: {record['claim']['met']}; " if args.claim else ""
    print(f"{met}wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
