#!/usr/bin/env python3
"""Byte-for-byte CLI comparison: a parent checkout against this tree.

    python3 tools/cli_battery.py --parent ../lmmt-parent

One fixed list of ``lmmt`` calls runs in each tree: one subprocess per tree,
on that tree's own ``src``, calls ``lmmt.cli.main`` in process once per
case and records its stdout, its stderr and its exit code.  The list holds
the jobs of the three ``perfbench/expected`` files (read only) and
``verify-paper``; ``parse``, ``betti``, ``trivial``, ``lie-kernel``,
``mm-solve``, ``verify-34``, ``hs-page``, ``invariant-cohomology`` and
``orbit-check`` on each algebra of the claim registry's CATALOG and
NILPOTENT lists and on the small builtins; ``betti``, ``trivial``,
``lie-kernel`` and ``mm-solve`` on filiform L_8..L_11, n+(sl_5) and an
algebra with constants 2 and -3; ``betti`` on the ``diag-ext`` inputs of
seeds 1..3 (``perfbench/run.py``'s generator, imported read only);
``invariant-cohomology``, ``hs-page`` and ``verify-34`` on two solvable
algebras over Q(sqrt 2), and codimension-2 E2 pages on L_8 and n+(sl_4);
``search34`` for m = 1..3, the builtin forms and four JSON forms at the
corners of the contraction matrix, and split and degree errors.  Each call
past the job lists runs once as it is and once with ``--json``.  Every case
that differs is printed, and the exit code is 1 on any difference, 0 when
there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lmmt.claims import CATALOG, NILPOTENT  # noqa: E402
from lmmt.liealg import builtin, parse_salamon  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import diag_eigenvalues, diag_salamon  # noqa: E402  (read only)

BUILTINS = ["su2", "su3", "heisenberg", "borel:3", "nplus:3", "nplus:4", "abelian:3"]
# the CE build's int path: filiform L_8..L_11, n+(sl_5), and the constants 2 and -3
INT_BUILD = ([",".join(["0", "0"] + [f"[1,{i}]" for i in range(2, n)]) for n in range(8, 12)]
             + ["builtin:nplus:5", "0,0,2.12,-3.13"])
FORMS = ["g2", "spin7", "psu3", "cvol6", "symplectic(2,4)", "symplectic(3,6)"]
# a 0-form, an n-form on R^5, a 3-form on R^7 whose contraction kernel is
# span(e_6, e_7), and a 3-form over Q(sqrt 3)
JSON_FORMS = [json.dumps(f) for f in (
    {"n": 3, "degree": 0, "terms": {"": "2"}},
    {"n": 5, "degree": 5, "terms": {"1,2,3,4,5": "-3"}},
    {"n": 7, "degree": 3, "terms": {"1,2,3": "1", "1,4,5": "-2"}},
    {"n": 6, "degree": 3, "terms": {"1,2,3": "1+sqrt(3)", "1,4,5": "sqrt(3)", "2,4,6": "1/2",
                                    "3,5,6": "-1"}},
)]
# solvable algebras over Q(sqrt 2), each with an ideal containing g' (codimension 1, then 2)
SQRT2_SPLITS = [
    ('{"dim":3,"brackets":[{"i":1,"j":2,"c":{"2":"sqrt(2)"}},{"i":1,"j":3,"c":{"3":"1"}}]}', "2,3"),
    ('{"dim":4,"brackets":[{"i":1,"j":3,"c":{"3":"sqrt(2)"}},{"i":1,"j":4,"c":{"4":"-sqrt(2)"}},'
     '{"i":2,"j":3,"c":{"3":"1"}},{"i":2,"j":4,"c":{"4":"1"}}]}', "3,4"),
]

# runs in each tree's subprocess: the cases on stdin, the records on stdout
RUNNER = r"""
import contextlib, io, json, sys
import lmmt.cli
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lmmt.cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # a traceback: recorded, so it differs or matches too
            code = f"raised {type(exc).__name__}: {exc}"
    records.append([out.getvalue(), err.getvalue(), code])
json.dump({"module": lmmt.cli.__file__, "records": records}, sys.stdout)
"""


def _per_algebra(name: str) -> List[List[str]]:
    """The calls on one algebra, named as the CLI reads it."""
    n = (builtin(name[8:]) if name.startswith("builtin:") else parse_salamon(name)).n

    def span(lo: int, hi: int) -> str:
        return ",".join(map(str, range(lo, hi + 1)))

    cases = [["parse", name], ["betti", name], ["trivial", name],
             ["trivial", name, "--degrees", "1,2"], ["trivial", name, "--degrees", "5,0,3"],
             ["verify-34", name]]
    cases += [["lie-kernel", name, "--degree", str(k)] for k in (1, 2, 3)]
    cases += [["mm-solve", name, "--degree", str(k)] for k in (3, 4)]
    # codimension 1 (two ways) and 2; an invalid split is a case too
    for ideal in (span(2, n), span(1, n - 1), span(3, n)):
        cases += [["hs-page", name, "--ideal", ideal, "--level", str(level)] for level in (1, 2)]
    cases += [["invariant-cohomology", name, "--ideal", span(2, n), "--degree", str(q)]
              for q in (1, 2)]
    cases.append(["invariant-cohomology", name, "--ideal", span(3, n), "--degree", "2"])
    cases.append(["orbit-check", name, "--form", f"symplectic(1,{n})"])
    cases.append(["orbit-check", name, "--form",
                  json.dumps({"n": n, "degree": 3, "terms": {"1,2,3": "1"}})])
    return cases


def cases() -> List[List[str]]:
    """The fixed list of argv lists."""
    expected = ROOT / "perfbench" / "expected"
    jobs = [job["argv"] for w in ("betti-ladder", "quadratic-field", "verify-paper")
            for job in json.loads((expected / f"{w}.json").read_text())["jobs"]]
    calls = [["verify-paper"]]
    for name in CATALOG + NILPOTENT + [f"builtin:{b}" for b in BUILTINS]:
        calls += _per_algebra(name)
    for name in INT_BUILD:
        calls += [["betti", name], ["trivial", name]]
        calls += [["lie-kernel", name, "--degree", str(k)] for k in (1, 2, 3)]
        calls += [["mm-solve", name, "--degree", str(k)] for k in (3, 4)]
    calls += [["betti", diag_salamon(lams)] for seed in (1, 2, 3) for lams in diag_eigenvalues(seed)]
    for name, ideal in SQRT2_SPLITS:
        calls += [["invariant-cohomology", name, "--ideal", ideal, "--degree", str(q)]
                  for q in (1, 2)]
        calls += [["hs-page", name, "--ideal", ideal, "--level", str(level)] for level in (1, 2)]
        calls.append(["verify-34", name])
    # codimension-2 E2 pages up to q = 5 on L_8 and n+(sl_4)
    calls += [["hs-page", name, "--ideal", ideal, "--level", "2", "--max-q", "5"]
              for name, ideal in ((INT_BUILD[0], "3,4,5,6,7,8"), ("builtin:nplus:4", "2,3,4,5"))]
    calls += [["search34", "--m", str(m)] for m in (1, 2, 3)]
    calls += [["search34", "--m", "2", "--eig-range", "-1..2"], ["search34", "--m", "-1"]]
    calls += [[cmd, "--form", form] for form in FORMS
              for cmd in ("stabilizer", "stable", "nondeg", "normal-form")]
    calls += [[cmd, "--form", form] for form in JSON_FORMS
              for cmd in ("stabilizer", "stable", "nondeg")]
    calls += [["stable", "--form", "psu3", "--field", "sqrt=3"],
              ["stable", "--form", "psu3", "--field", "sqrt=2"],
              ["orbit-check", "builtin:su3", "--form", "psu3", "--field", "sqrt=3"]]
    calls += [["construct-nondeg", str(r), str(n)] for r, n in ((3, 7), (4, 8), (3, 4), (5, 9))]
    calls += [["identities", w] for w in ("g2metric", "spin7vol", "spin7bivector", "spin7split")]
    calls += [["kunneth", "builtin:su2", "0,0,12"], ["cartan-check", "0,0,12,13", "--samples", "5"]]
    # split and degree errors
    calls += [["hs-page", "0,0,12,13"], ["hs-page", "0,0,12,13", "--ideal", "0,2"],
              ["hs-page", "0,0,12,13", "--ideal", "2,2,3"],
              ["hs-page", "0,0,12,13", "--ideal", "4"],
              ["hs-page", "0,0,12,13", "--ideal", "2,3,4", "--max-q", "-1"],
              ["hs-page", "0,0,12,13", "--ideal", "2,3,4", "--level", "3"],
              ["invariant-cohomology", "0,0,12,13", "--ideal", "1,2,3,4,5", "--degree", "1"],
              ["invariant-cohomology", "0,0,12,13", "--ideal", "2,3,4", "--degree", "-1"],
              ["lie-kernel", "0,0,12", "--degree", "-1"], ["lie-kernel", "0,0,12", "--degree", "9"],
              ["mm-solve", "0,0,12", "--degree", "0"], ["mm-solve", "0,0,12", "--degree", "4"],
              ["trivial", "0,0,12", "--degrees", "-1,3"], ["trivial", "0,0,12", "--degrees", "x"]]
    return jobs + [argv for call in calls for argv in (call, ["--json"] + call)]


def run_tree(tree: Path, argvs: List[List[str]]) -> List[list]:
    """The (stdout, stderr, exit code) of every case, run in tree."""
    src = tree / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER], cwd=tree, input=json.dumps(argvs),
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"the battery failed in {tree}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{tree} ran lmmt from {out['module']}, not from its src")
    return out["records"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "lmmt" / "cli.py").is_file():
        ap.error(f"no src/lmmt/cli.py under {parent}")
    argvs = cases()
    before, after = run_tree(parent, argvs), run_tree(ROOT, argvs)
    differ = 0
    for call, old, new in zip(argvs, before, after):
        if old != new:
            differ += 1
            parts = [what for what, x, y in zip(("stdout", "stderr", "exit code"), old, new)
                     if x != y]
            print(f"DIFFERS ({', '.join(parts)}): lmmt {' '.join(call)}")
    print(f"{len(argvs)} cases, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
