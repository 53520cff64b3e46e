#!/usr/bin/env python3
"""Write the job lists and reference outputs of the fixed workloads.

    python3 perfbench/make_expected.py

For betti-ladder, verify-paper and quadratic-field this writes
``perfbench/expected/<workload>.json``: each job's label, CLI argv, exit code
and parsed JSON payload, as the lmmt in this checkout produces them, with the
commit they came from.  The committed references are the outputs of the
commit they name; regenerating them at a later commit would let a changed
answer pass as correct.
"""

from __future__ import annotations

import importlib
import json
import sys

from run import EXPECTED, SRC, git_sha, parse_payload, run_job


def filiform(n: int) -> str:
    """L_n: de^1 = de^2 = 0, de^k = e^1 ^ e^(k-1) for k = 3..n."""
    pair = lambda j: f"1{j}" if j < 10 else f"[1,{j}]"
    return ",".join(["0", "0"] + [pair(k - 1) for k in range(3, n + 1)])


def job_lists(liealg, claims):
    su3_su2 = liealg.builtin("su3").direct_sum(liealg.builtin("su2"))
    return {
        "betti-ladder": [(f"filiform-{n}", ["--json", "betti", filiform(n)])
                         for n in (11, 12, 13)],
        "verify-paper": [(c.id, ["--json", "verify-paper", "--filter", c.id])
                         for c in sorted(claims.CLAIMS, key=lambda c: c.id)],
        "quadratic-field": [
            ("su3", ["--json", "betti", "builtin:su3"]),
            ("su3+su2", ["--json", "betti", json.dumps(su3_su2.to_json())]),
            ("psu3-stable", ["--json", "stable", "--form", "psu3"]),
        ],
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("lmmt.cli")
    lists = job_lists(importlib.import_module("lmmt.liealg"),
                      importlib.import_module("lmmt.claims"))
    EXPECTED.mkdir(exist_ok=True)
    for workload, jobs in lists.items():
        entries = []
        for label, argv in jobs:
            rc, out, err = run_job(cli, argv)
            payload = parse_payload(out)
            if rc != 0 or payload is None:
                print(f"error: {workload}/{label} exited {rc}: {err}", file=sys.stderr)
                return 1
            if workload == "verify-paper" and not (
                    payload["passed"] and len(payload["claims"]) == 1):
                print(f"error: claim {label} does not pass", file=sys.stderr)
                return 1
            entries.append({"label": label, "argv": argv, "exit_code": rc, "payload": payload})
            print(f"{workload:16} {label}")
        doc = {"workload": workload, "generated_at": git_sha(), "jobs": entries}
        (EXPECTED / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
