"""Command-line interface.

Exit codes: 0 success, 1 algebra validation failure (Jacobi/Leibniz),
2 input error (unparsable, or out of the command's domain), 3 falsified claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .claims import run_claims
from .cohomology import (
    betti,
    cartan_identity_check,
    cocycle_basis,
    is_trivial,
    kunneth_check,
    lie_kernel,
    random_cartan_pair,
)
from .exterior import KForm
from .forms import (
    analyze,
    builtin_form,
    construct_nondegenerate,
    holonomy_identities,
    stabilizer_algebra,
    two_form_normal_form,
    weak_nondegenerate,
)
from .liealg import (
    JacobiError,
    LeibnizError,
    LieAlgebra,
    SalamonSyntaxError,
    builtin,
    parse_salamon,
    structural_report,
)
from .multimoment import (Cocycle, PDualElement, orbit_stab_condition, solutions_to_json,
                          solve_multimoments)
from .scalars import FieldError
from .spectral import IdealSplit, hs_page, invariant_cohomology, search_34_extensions, verify_34_structure


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"bad --param {pair!r}, expected name=value", 2)
        name, value = pair.split("=", 1)
        try:
            out[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad rational in --param {pair!r}", 2)
    return out


def _load_algebra(src: str, params: Dict[str, Fraction]) -> LieAlgebra:
    try:
        if src.startswith("builtin:"):
            return builtin(src.split(":", 1)[1])
        if src.startswith("@"):
            with open(src[1:]) as fh:
                return LieAlgebra.from_json(json.load(fh))
        if src.lstrip().startswith("{"):
            return LieAlgebra.from_json(json.loads(src))
        return parse_salamon(src, params)
    except JacobiError:
        raise
    except (SalamonSyntaxError, ValueError, OSError, KeyError) as exc:
        raise CliError(f"cannot read algebra: {exc}", 2)


def _load_form(src: str, sqrt: Optional[int]) -> KForm:
    try:
        if src.startswith("@"):
            with open(src[1:]) as fh:
                return KForm.from_json(json.load(fh))
        if src.lstrip().startswith("{"):
            return KForm.from_json(json.loads(src))
        return builtin_form(src, sqrt=sqrt)
    except FieldError:
        raise
    except (ValueError, OSError, KeyError) as exc:
        raise CliError(f"cannot read form: {exc}", 2)


def _parse_field(spec_str: Optional[str]) -> Optional[int]:
    if spec_str is None:
        return None
    if not spec_str.startswith("sqrt="):
        raise CliError("--field expects sqrt=<d>", 2)
    try:
        return int(spec_str.split("=", 1)[1])
    except ValueError:
        raise CliError("--field expects an integer d", 2)


def _parse_ideal(spec_str: Optional[str]) -> List[int]:
    if not spec_str:
        raise CliError("--ideal is required here (comma list of indices)", 2)
    try:
        return [int(x) for x in spec_str.split(",")]
    except ValueError:
        raise CliError(f"bad --ideal {spec_str!r}", 2)


def _emit(args, payload: Dict[str, object], human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(human)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call of each process and not at
    import.  Parsing leaves it unchanged: each ``parse_args`` returns a fresh
    Namespace, and argparse looks up sys.stdout/sys.stderr as it prints."""
    top = argparse.ArgumentParser(prog="lmmt", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        p.add_argument("--field", metavar="sqrt=D")
        return p

    p = cmd("parse", help="parse an algebra and report its structure")
    p.add_argument("algebra")
    p = cmd("betti", help="Betti numbers")
    p.add_argument("algebra")
    p = cmd("trivial", help="vanishing of chosen Betti numbers")
    p.add_argument("algebra")
    p.add_argument("--degrees", default="3,4")
    p = cmd("lie-kernel", help="kernel of the bracket-extension map")
    p.add_argument("algebra")
    p.add_argument("--degree", type=int, required=True)
    p = cmd("kunneth", help="Betti numbers of a direct sum vs convolution")
    p.add_argument("algebra")
    p.add_argument("algebra2")
    p = cmd("cartan-check", help="randomized extended Cartan identity check")
    p.add_argument("algebra")
    p.add_argument("--samples", type=int, default=25)
    p = cmd("mm-solve", help="solve for multi-moment maps over a cocycle basis")
    p.add_argument("algebra")
    p.add_argument("--degree", type=int, required=True)
    p = cmd("orbit-check", help="stabiliser vs contraction kernel of a class")
    p.add_argument("algebra")
    p.add_argument("--form", required=True, help="representative as JSON or @file")
    p = cmd("invariant-cohomology", help="H^q(k) and its invariant part")
    p.add_argument("algebra")
    p.add_argument("--ideal")
    p.add_argument("--degree", type=int, required=True)
    p = cmd("hs-page", help="spectral page of an ideal split")
    p.add_argument("algebra")
    p.add_argument("--ideal")
    p.add_argument("--level", type=int, default=2, choices=(1, 2))
    p.add_argument("--max-q", type=int, default=4)
    p = cmd("verify-34", help="structure-theorem verdicts for (3,4)-triviality")
    p.add_argument("algebra")
    p = cmd("search34", help="enumerate diagonal abelian extensions")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eig-range", default="-3..3")
    p = cmd("stabilizer", help="stabiliser algebra of a form")
    p.add_argument("--form", required=True)
    p = cmd("stable", help="orbit-dimension stability analysis")
    p.add_argument("--form", required=True)
    p = cmd("nondeg", help="weak non-degeneracy of a form")
    p.add_argument("--form", required=True)
    p = cmd("normal-form", help="Darboux normal form of a two-form")
    p.add_argument("--form", required=True)
    p = cmd("construct-nondeg", help="build a weakly non-degenerate form")
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p = cmd("identities", help="special-holonomy pointwise identities")
    p.add_argument("which", choices=("g2metric", "spin7vol", "spin7bivector", "spin7split"))
    p = cmd("verify-paper", help="run the full claim registry")
    p.add_argument("--filter")
    return top


def _dispatch(args) -> int:
    params = _parse_params(getattr(args, "param", None))
    sqrt = _parse_field(getattr(args, "field", None))
    cmdname = args.command
    if getattr(args, "degree", 0) < 0:  # lie-kernel, mm-solve, invariant-cohomology
        raise CliError(f"--degree must be non-negative, got {args.degree}", 2)

    if cmdname == "parse":
        g = _load_algebra(args.algebra, params)
        rep = structural_report(g)
        payload = {"algebra": g.to_json(), "salamon": g.to_salamon(),
                   "structure": rep.to_json()}
        _emit(args, payload,
              f"dim {g.n}: {g.to_salamon()}\n"
              f"solvable={rep.solvable} nilpotent={rep.nilpotent} "
              f"unimodular={rep.unimodular} codim g'={rep.codim_derived}")
        return 0

    if cmdname == "betti":
        g = _load_algebra(args.algebra, params)
        rep = betti(g)
        _emit(args, rep.to_json(), f"betti {rep.betti}")
        return 0

    if cmdname == "trivial":
        g = _load_algebra(args.algebra, params)
        try:
            degrees = [int(x) for x in args.degrees.split(",")]
        except ValueError:
            raise CliError(f"bad --degrees {args.degrees!r}", 2)
        verdict, witness = is_trivial(g, degrees)
        payload = {"trivial": verdict}
        if witness is not None:
            payload["witness"] = witness.to_json()
        _emit(args, payload, str(verdict).lower())
        return 0

    if cmdname == "lie-kernel":
        g = _load_algebra(args.algebra, params)
        basis = lie_kernel(g, args.degree)
        payload = {"degree": args.degree, "dim": len(basis),
                   "basis": [v.to_json() for v in basis]}
        _emit(args, payload, f"dim {len(basis)}")
        return 0

    if cmdname == "kunneth":
        g = _load_algebra(args.algebra, params)
        h = _load_algebra(args.algebra2, params)
        ok = kunneth_check(g, h)
        _emit(args, {"agrees": ok}, str(ok).lower())
        return 0 if ok else 3

    if cmdname == "cartan-check":
        if args.samples < 1:
            raise CliError(f"--samples must be at least 1, got {args.samples}", 2)
        g = _load_algebra(args.algebra, params)
        rng = random.Random(0)
        ok = all(cartan_identity_check(g, *random_cartan_pair(g, rng))
                 for _ in range(args.samples))
        _emit(args, {"samples": args.samples, "ok": ok}, str(ok).lower())
        return 0 if ok else 3

    if cmdname == "mm-solve":
        g = _load_algebra(args.algebra, params)
        cocycles = cocycle_basis(g, args.degree)
        sols = solve_multimoments(g, [Cocycle(args.degree, z) for z in cocycles])
        results = [{"psi": z.to_json(), **sol}
                   for z, sol in zip(cocycles, solutions_to_json(sols))]
        payload = {"degree": args.degree, "solutions": results}
        _emit(args, payload,
              "\n".join(f"{r['status']}" for r in results) or "empty cocycle space")
        return 0

    if cmdname == "orbit-check":
        g = _load_algebra(args.algebra, params)
        form = _load_form(args.form, sqrt)
        rep = orbit_stab_condition(g, PDualElement(form.degree, form))
        _emit(args, rep.to_json(),
              f"stab dim {len(rep.stab_basis)}, ker dim {len(rep.ker_basis)}, "
              f"holds={rep.holds}")
        return 0

    if cmdname == "invariant-cohomology":
        g = _load_algebra(args.algebra, params)
        split = IdealSplit.from_indices(g, _parse_ideal(args.ideal))
        inv = invariant_cohomology(split, args.degree)
        _emit(args, inv.to_json(),
              f"dim H^{args.degree}(k) = {inv.dim_H}, invariant {inv.dim_invariant}")
        return 0

    if cmdname == "hs-page":
        g = _load_algebra(args.algebra, params)
        split = IdealSplit.from_indices(g, _parse_ideal(args.ideal))
        page = hs_page(split, args.level, args.max_q)
        human = "\n".join(
            f"E{page.level}^{{{p},{q}}} = {v}" for (p, q), v in sorted(page.table.items())
        )
        _emit(args, page.to_json(), human)
        return 0

    if cmdname == "verify-34":
        g = _load_algebra(args.algebra, params)
        verdict = verify_34_structure(g)
        _emit(args, verdict.to_json(),
              f"direct={verdict.direct} structural={verdict.structural} "
              f"agrees={verdict.agrees}")
        return 0 if verdict.agrees else 3

    if cmdname == "search34":
        try:
            lo, hi = args.eig_range.split("..")
            rng_pair = (int(lo), int(hi))
        except ValueError:
            raise CliError(f"bad --eig-range {args.eig_range!r}, expected a..b", 2)
        if args.m < 0:
            raise CliError(f"--m must be non-negative, got {args.m}", 2)
        results = search_34_extensions(args.m, rng_pair)
        _emit(args, {"results": results},
              "\n".join(f"{r['algebra']}  agrees={r['agrees']}" for r in results)
              or "no admissible extensions")
        return 0

    if cmdname in ("stabilizer", "stable", "nondeg", "normal-form"):
        form = _load_form(args.form, sqrt)
        if cmdname == "stabilizer":
            basis = stabilizer_algebra(form)
            _emit(args, {"dim": len(basis)}, f"dim {len(basis)}")
            return 0
        if cmdname == "stable":
            a = analyze(form)
            _emit(args, a.to_json(),
                  f"stabilizer {a.stabilizer_dim}, orbit {a.orbit_dim}, "
                  f"stable={a.stable}")
            return 0
        if cmdname == "nondeg":
            ok = weak_nondegenerate(form)
            _emit(args, {"weakly_nondegenerate": ok}, str(ok).lower())
            return 0
        res = two_form_normal_form(form)
        _emit(args, res.to_json(), f"rank {2 * res.k}")
        return 0

    if cmdname == "construct-nondeg":
        form = construct_nondegenerate(args.r, args.n)
        if form is None:
            _emit(args, {"possible": False}, "impossible")
            return 0
        _emit(args, {"possible": True, "form": form.to_json()}, str(form))
        return 0

    if cmdname == "identities":
        out = holonomy_identities(args.which)
        _emit(args, out, f"ok={out['ok']}")
        return 0 if out["ok"] else 3

    if cmdname == "verify-paper":
        results = run_claims(args.filter)
        if not results:
            raise CliError(f"no claim matches --filter {args.filter!r}", 2)
        failed = [r for r in results if not r["ok"]]
        if args.json:
            print(json.dumps({"claims": results, "passed": not failed},
                             indent=2, default=str))
        else:
            for r in results:
                mark = "PASS" if r["ok"] else "FAIL"
                print(f"[{mark}] {r['id']}: {r['title']}")
                if not r["ok"]:
                    print(f"       computed: {r['computed']}")
                    print(f"       expected: {r['expected']}")
            print(f"{len(results) - len(failed)}/{len(results)} claims pass")
        return 0 if not failed else 3

    raise CliError(f"unknown command {cmdname!r}", 2)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (JacobiError, LeibnizError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # bad input the library rejects: FieldError, SalamonSyntaxError,
        # SplitError, DegreeError, or a degree/dimension out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
