#!/usr/bin/env python3
"""Run workloads in fresh processes and summarise every metric.

    python3 perfbench/report.py                                # all workloads, seed 1
    python3 perfbench/report.py --workloads diag-ext --seeds 1,2,3,4,5
    python3 perfbench/report.py --workloads diag-ext --seeds 1,1,1,1,1

Runs ``run.py`` once per (workload, seed) for BENCHMARK.json's
``run_seconds``, one after another, each in its own process.  For each workload it prints every metric of BENCHMARK.json by
name and unit: the median over the runs, the quartiles and their spread
(q3 - q1) / median next to the metric's bound, and fail_frac over all jobs
attempted.  Every run's result line is also kept in
``perfbench/results/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run failed: {' '.join(cmd)} (exit {proc.returncode})\n{proc.stderr[-3000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarise(workload: str, seeds, results, spec: dict, trace: int) -> None:
    ok = [r for r in results if r is not None]
    attempted = sum(r["attempted"] for r in ok)
    failed = sum(r["failed"] for r in ok)
    print(f"== {workload}: {len(ok)}/{len(results)} runs, seeds {','.join(map(str, seeds))}; "
          f"fail_frac {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
    if not ok:
        return
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"  {'metric':<36} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in ok]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(m["name"])
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"  {m['name']:<36} {m['unit']:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{spread:>7.4f} {bound if bound is not None else '-':>6}{flag}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names),
                    help="comma list (default: all of BENCHMARK.json)")
    ap.add_argument("--seeds", default="1", help="comma list; repeats allowed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    seeds = [int(s) for s in args.seeds.split(",")]

    record = {}
    for workload in workloads:
        results = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
        record[workload] = [{"seed": s, "result": r} for s, r in zip(seeds, results)]
        summarise(workload, seeds, results, spec, args.trace)
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / "report.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(e["result"] and e["result"]["correct"]
                    for runs in record.values() for e in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
