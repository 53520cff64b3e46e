"""Command-line interface.

Exit codes: 0 success, 1 algebra validation failure (Jacobi/Leibniz),
2 input error (unparsable, or out of the command's domain), 3 falsified claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

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
from .exterior import KForm, parse_int
from .forms import (
    analyze,
    builtin_form,
    construct_nondegenerate,
    holonomy_identities,
    stabilizer_algebra,
    two_form_normal_form,
    weak_nondegenerate,
)
from .liealg import (PARAM_NAME, JacobiError, LeibnizError, LieAlgebra, builtin, parse_salamon,
                     structural_report)
from .multimoment import (Cocycle, PDualElement, orbit_stab_condition, solutions_to_json,
                          solve_multimoments)
from .scalars import RATIONAL, FieldError
from .spectral import IdealSplit, hs_page, invariant_cohomology, search_34_extensions, verify_34_structure


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- inputs ----------------------------------------------------------------


def _integer(text: str) -> int:
    """argparse type of an integer argument: parse_int's grammar."""
    try:
        return parse_int(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _ints(text: str, option: str) -> List[int]:
    """A comma list of integers in parse_int's grammar."""
    try:
        return [parse_int(x, option) for x in text.split(",")]
    except ValueError:
        raise CliError(f"bad {option} {text!r}", 2)


def _read(src: str, what: str, from_json: Callable, from_name: Callable, keep: type):
    """The input src: "@file" and inline JSON through from_json, any other
    text through from_name.  An error of type keep propagates as it is; any
    other unreadable input is a CliError naming what was read."""
    try:
        if src.startswith("@"):
            with open(src[1:]) as fh:
                return from_json(json.load(fh))
        if src.lstrip().startswith("{"):
            return from_json(json.loads(src))
        return from_name(src)
    except keep:
        raise
    except (ValueError, OSError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise CliError(f"cannot read {what}: {exc}", 2)


def _algebra(args, src: Optional[str] = None) -> LieAlgebra:
    """The algebra args.algebra (or src) names, Salamon text read with the
    --param bindings; a Jacobi failure keeps its exit code 1."""
    params: Dict[str, Fraction] = {}
    for pair in args.param or []:
        name, eq, value = pair.partition("=")
        if not eq or not re.fullmatch(PARAM_NAME, name):
            raise CliError(f"bad --param {pair!r}, expected name=value, name {PARAM_NAME}", 2)
        try:
            if not re.fullmatch(rf"[+-]?{RATIONAL}", value):
                raise ValueError(value)
            params[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad rational in --param {pair!r}", 2)
    return _read(args.algebra if src is None else src, "algebra", LieAlgebra.from_json,
                 lambda s: builtin(s[8:]) if s.startswith("builtin:") else parse_salamon(s, params),
                 JacobiError)


def _form(args) -> KForm:
    """The form --form names, a builtin one over the --field; a FieldError is
    printed as it is."""
    sqrt = None
    if args.field is not None:
        if not args.field.startswith("sqrt="):
            raise CliError("--field expects sqrt=<d>", 2)
        try:
            sqrt = parse_int(args.field[5:], "d")
        except ValueError:
            raise CliError("--field expects an integer d", 2)
    return _read(args.form, "form", KForm.from_json, lambda s: builtin_form(s, sqrt=sqrt),
                 FieldError)


def _degree(args) -> int:
    if args.degree < 0:
        raise CliError(f"--degree must be non-negative, got {args.degree}", 2)
    return args.degree


def _ideal(args) -> List[int]:
    if not args.ideal:
        raise CliError("--ideal is required here (comma list of indices)", 2)
    return _ints(args.ideal, "--ideal")


def _emit(args, payload: Dict[str, object], human: str, ok: bool = True) -> int:
    """Print payload (with --json) or human; the exit code, 3 if not ok."""
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(human)
    return 0 if ok else 3


# -- commands --------------------------------------------------------------

# (name, summary, extra arguments, number of algebra positionals, reads --form, handler)
_COMMANDS: List[Tuple[str, str, tuple, int, bool, Callable]] = []


def _arg(*names, **kwargs) -> tuple:
    """The arguments of one add_argument call."""
    return names, kwargs


def _command(name: str, summary: str, *arguments: tuple, algebras: int = 0, form: bool = False):
    """Register the decorated handler as subcommand name.  It takes the
    algebra positional(s) and --param when algebras > 0, --form and --field
    when form is set, then the arguments given as _arg(...)."""
    def register(run: Callable) -> Callable:
        _COMMANDS.append((name, summary, arguments, algebras, form, run))
        return run
    return register


_DEGREE = _arg("--degree", type=_integer, required=True)
_IDEAL = _arg("--ideal")


@_command("parse", "parse an algebra and report its structure", algebras=1)
def _parse(args) -> int:
    g = _algebra(args)
    rep = structural_report(g)
    payload = {"algebra": g.to_json(), "salamon": g.to_salamon(), "structure": rep.to_json()}
    return _emit(args, payload,
                 f"dim {g.n}: {g.to_salamon()}\n"
                 f"solvable={rep.solvable} nilpotent={rep.nilpotent} "
                 f"unimodular={rep.unimodular} codim g'={rep.codim_derived}")


@_command("betti", "Betti numbers", algebras=1)
def _betti(args) -> int:
    rep = betti(_algebra(args))
    return _emit(args, rep.to_json(), f"betti {rep.betti}")


@_command("trivial", "vanishing of chosen Betti numbers", _arg("--degrees", default="3,4"),
          algebras=1)
def _trivial(args) -> int:
    g = _algebra(args)
    verdict, witness = is_trivial(g, _ints(args.degrees, "--degrees"))
    payload = {"trivial": verdict}
    if witness is not None:
        payload["witness"] = witness.to_json()
    return _emit(args, payload, str(verdict).lower())


@_command("lie-kernel", "kernel of the bracket-extension map", _DEGREE, algebras=1)
def _lie_kernel(args) -> int:
    degree = _degree(args)
    basis = lie_kernel(_algebra(args), degree)
    payload = {"degree": degree, "dim": len(basis), "basis": [v.to_json() for v in basis]}
    return _emit(args, payload, f"dim {len(basis)}")


@_command("kunneth", "Betti numbers of a direct sum vs convolution", algebras=2)
def _kunneth(args) -> int:
    ok = kunneth_check(_algebra(args), _algebra(args, args.algebra2))
    return _emit(args, {"agrees": ok}, str(ok).lower(), ok)


@_command("cartan-check", "randomized extended Cartan identity check",
          _arg("--samples", type=_integer, default=25), algebras=1)
def _cartan_check(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}", 2)
    g = _algebra(args)
    rng = random.Random(0)
    ok = all(cartan_identity_check(g, *random_cartan_pair(g, rng)) for _ in range(args.samples))
    return _emit(args, {"samples": args.samples, "ok": ok}, str(ok).lower(), ok)


@_command("mm-solve", "solve for multi-moment maps over a cocycle basis", _DEGREE, algebras=1)
def _mm_solve(args) -> int:
    degree = _degree(args)
    g = _algebra(args)
    cocycles = cocycle_basis(g, degree)
    sols = solve_multimoments(g, [Cocycle(degree, z) for z in cocycles])
    results = [{"psi": z.to_json(), **sol} for z, sol in zip(cocycles, solutions_to_json(sols))]
    return _emit(args, {"degree": degree, "solutions": results},
                 "\n".join(f"{r['status']}" for r in results) or "empty cocycle space")


@_command("orbit-check", "stabiliser vs contraction kernel of a class", algebras=1, form=True)
def _orbit_check(args) -> int:
    g = _algebra(args)
    form = _form(args)
    rep = orbit_stab_condition(g, PDualElement(form.degree, form))
    return _emit(args, rep.to_json(), f"stab dim {len(rep.stab_basis)}, "
                 f"ker dim {len(rep.ker_basis)}, holds={rep.holds}")


@_command("invariant-cohomology", "H^q(k) and its invariant part", _IDEAL, _DEGREE, algebras=1)
def _invariant_cohomology(args) -> int:
    degree = _degree(args)
    inv = invariant_cohomology(IdealSplit.from_indices(_algebra(args), _ideal(args)), degree)
    return _emit(args, inv.to_json(),
                 f"dim H^{degree}(k) = {inv.dim_H}, invariant {inv.dim_invariant}")


@_command("hs-page", "spectral page of an ideal split", _IDEAL,
          _arg("--level", type=_integer, default=2, choices=(1, 2)),
          _arg("--max-q", type=_integer, default=4), algebras=1)
def _hs_page(args) -> int:
    page = hs_page(IdealSplit.from_indices(_algebra(args), _ideal(args)), args.level, args.max_q)
    return _emit(args, page.to_json(), "\n".join(
        f"E{page.level}^{{{p},{q}}} = {v}" for (p, q), v in sorted(page.table.items())))


@_command("verify-34", "structure-theorem verdicts for (3,4)-triviality", algebras=1)
def _verify_34(args) -> int:
    verdict = verify_34_structure(_algebra(args))
    return _emit(args, verdict.to_json(), f"direct={verdict.direct} "
                 f"structural={verdict.structural} agrees={verdict.agrees}", verdict.agrees)


@_command("search34", "enumerate diagonal abelian extensions",
          _arg("--m", type=_integer, required=True), _arg("--eig-range", default="-3..3"))
def _search34(args) -> int:
    try:
        lo, hi = (parse_int(x, "--eig-range") for x in args.eig_range.split(".."))
    except ValueError:
        raise CliError(f"bad --eig-range {args.eig_range!r}, expected a..b", 2)
    if args.m < 0:
        raise CliError(f"--m must be non-negative, got {args.m}", 2)
    results = search_34_extensions(args.m, (lo, hi))
    return _emit(args, {"results": results},
                 "\n".join(f"{r['algebra']}  agrees={r['agrees']}" for r in results)
                 or "no admissible extensions")


@_command("stabilizer", "stabiliser algebra of a form", form=True)
def _stabilizer(args) -> int:
    basis = stabilizer_algebra(_form(args))
    return _emit(args, {"dim": len(basis)}, f"dim {len(basis)}")


@_command("stable", "orbit-dimension stability analysis", form=True)
def _stable(args) -> int:
    a = analyze(_form(args))
    return _emit(args, a.to_json(),
                 f"stabilizer {a.stabilizer_dim}, orbit {a.orbit_dim}, stable={a.stable}")


@_command("nondeg", "weak non-degeneracy of a form", form=True)
def _nondeg(args) -> int:
    ok = weak_nondegenerate(_form(args))
    return _emit(args, {"weakly_nondegenerate": ok}, str(ok).lower())


@_command("normal-form", "Darboux normal form of a two-form", form=True)
def _normal_form(args) -> int:
    res = two_form_normal_form(_form(args))
    return _emit(args, res.to_json(), f"rank {2 * res.k}")


@_command("construct-nondeg", "build a weakly non-degenerate form",
          _arg("r", type=_integer), _arg("n", type=_integer))
def _construct_nondeg(args) -> int:
    form = construct_nondegenerate(args.r, args.n)
    if form is None:
        return _emit(args, {"possible": False}, "impossible")
    return _emit(args, {"possible": True, "form": form.to_json()}, str(form))


@_command("identities", "special-holonomy pointwise identities",
          _arg("which", choices=("g2metric", "spin7vol", "spin7bivector", "spin7split")))
def _identities(args) -> int:
    out = holonomy_identities(args.which)
    return _emit(args, out, f"ok={out['ok']}", out["ok"])


@_command("verify-paper", "run the full claim registry", _arg("--filter"))
def _verify_paper(args) -> int:
    results = run_claims(args.filter)
    if not results:
        raise CliError(f"no claim matches --filter {args.filter!r}", 2)
    failed = [r for r in results if not r["ok"]]
    if args.json:
        print(json.dumps({"claims": results, "passed": not failed}, indent=2, default=str))
    else:
        for r in results:
            print(f"[{'PASS' if r['ok'] else 'FAIL'}] {r['id']}: {r['title']}")
            if not r["ok"]:
                print(f"       computed: {r['computed']}")
                print(f"       expected: {r['expected']}")
        print(f"{len(results) - len(failed)}/{len(results)} claims pass")
    return 0 if not failed else 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call of each process and not at
    import.  Parsing leaves it unchanged: each ``parse_args`` returns a fresh
    Namespace, and argparse looks up sys.stdout/sys.stderr as it prints."""
    top = argparse.ArgumentParser(prog="lmmt", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit JSON output")
    sub = top.add_subparsers(dest="command", required=True)
    for name, summary, arguments, algebras, form, run in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        if algebras:
            p.add_argument("--param", action="append", metavar="NAME=VALUE")
        if form:
            p.add_argument("--field", metavar="sqrt=D")
            p.add_argument("--form", required=True, help="a builtin form, JSON or @file")
        for dest in ("algebra", "algebra2")[:algebras]:
            p.add_argument(dest)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(run=run)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
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
