"""Smoke test of the benchmark harness: one short traced betti-ladder run.

The traced run fails when an entry point it wraps is renamed or no longer
called (its per-layer count reads 0), and every job's payload is checked
against the recorded reference, so this catches both before a full
benchmark run does.  It takes a few seconds.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_betti_ladder_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "betti-ladder",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
