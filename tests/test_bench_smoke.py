"""Smoke tests of the benchmark harness: a short traced and a short
untraced run of every workload.  The untraced betti-ladder run is the way
the benchmark measures betti on filiform L_11..L_13, whose rank queries run
the fraction-free integer pass.

A traced run fails when an entry point it wraps is renamed or no longer
called (its per-layer count reads 0); each workload's traced run checks
every entry point the harness requires of it.  Every job's payload is checked
against the recorded reference (for verify-paper, every claim payload), so
this catches both before a full benchmark run does.  The quadratic-field
run is the exact payload check of elimination over Q(sqrt 3): the su3 and
su3+su2 Betti tables and the psu3 stabiliser.  The diag-ext runs check
Betti tables of algebras with an inner diagonal torus, which betti builds
on the weight-zero block only, against a closed form; the traced one also
checks that the block build still reaches lie_L, wedge and the elimination.
Each takes a few seconds.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True


def test_traced_betti_ladder_run():
    _run("betti-ladder", "1")


def test_untraced_betti_ladder_run():
    _run("betti-ladder", "0")


def test_traced_verify_paper_run():
    _run("verify-paper", "1")


def test_untraced_verify_paper_run():
    _run("verify-paper", "0")


def test_untraced_quadratic_field_run():
    _run("quadratic-field", "0")


def test_traced_quadratic_field_run():
    _run("quadratic-field", "1")


def test_untraced_diag_ext_run():
    _run("diag-ext", "0")


def test_traced_diag_ext_run():
    _run("diag-ext", "1")
