"""Registry of verifiable claims backing the acceptance checklist."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .cohomology import (
    betti,
    cartan_identity_check,
    cocycle_basis,
    ce_differential,
    d_form,
    direct_betti,
    is_exact,
    is_trivial,
    kunneth_check,
    lie_derivative,
    lie_kernel,
    random_cartan_pair,
)
from .exterior import KVector, basis_masks, contract
from .forms import (
    analyze,
    builtin_form,
    construct_nondegenerate,
    fully_nondeg_admissible,
    holonomy_identities,
    stability_admissible,
    weak_nondegenerate,
)
from .liealg import builtin, parse_salamon
from .linalg import Matrix
from .multimoment import Cocycle, solve_multimoment, solve_multimoments, triple_form
from .scalars import ONE
from .spectral import (
    IdealSplit,
    abelian_eigen_criterion,
    diagonal_extension,
    invariant_cohomology,
    verify_34_structure,
)

CATALOG = [
    "0,12,2.13",
    "0,12,13,14,1.15",
    "0,0,13+24,14",
    "0,0,13+24,14-23,2.15",
    "0,0,13+24,14,2.15",
    "0,12,3.13,4.14+23,5.15+24,6.16+25,7.17+34+26",
    "0,0,13+23,14,15,16,-4.17-27",
]

UNIMODULAR7 = CATALOG[-1]

NILPOTENT = [
    "0,0,12",
    "0,0,12,13",
    "0,0,0,0,12+34",
    "0,0,12,13,14",
    "0,0,12,13,14,15",
]


@dataclass
class Claim:
    id: str
    title: str
    run: Callable[[], Dict[str, object]]


def _result(ok: bool, computed, expected) -> Dict[str, object]:
    return {"ok": bool(ok), "computed": computed, "expected": expected}


# -- claim bodies ----------------------------------------------------------


def claim_stabilizers() -> Dict[str, object]:
    computed = {}
    for name, (stab, orbit, stable) in {
        "g2": (14, 35, True),
        "spin7": (21, 43, False),
        "psu3": (8, 56, True),
    }.items():
        a = analyze(builtin_form(name))
        computed[name] = (a.stabilizer_dim, a.orbit_dim, a.stable)
    expected = {"g2": (14, 35, True), "spin7": (21, 43, False), "psu3": (8, 56, True)}
    return _result(computed == expected, computed, expected)


def claim_volume_identities() -> Dict[str, object]:
    out = {w: holonomy_identities(w)["ok"] for w in
           ("g2metric", "spin7vol", "spin7bivector", "spin7split")}
    return _result(all(out.values()), out, {k: True for k in out})


def claim_su2() -> Dict[str, object]:
    g = builtin("su2")
    b = betti(g).betti
    lk2, lk3 = len(lie_kernel(g, 2)), len(lie_kernel(g, 3))
    gamma = triple_form(g, Matrix.identity(3).to_rows())
    closed = d_form(g, gamma).is_zero()
    nonexact = not is_exact(g, gamma)
    computed = {"betti": b, "lk": (lk2, lk3), "closed": closed, "nonexact": nonexact}
    ok = b == [1, 0, 0, 1] and (lk2, lk3) == (0, 1) and closed and nonexact
    return _result(ok, computed, {"betti": [1, 0, 0, 1], "lk": (0, 1),
                                  "closed": True, "nonexact": True})


def claim_catalog_trivial() -> Dict[str, object]:
    computed = {}
    ok = True
    for s in CATALOG:
        g = parse_salamon(s)
        trivial, _ = is_trivial(g, (3, 4))
        computed[s] = trivial
        ok = ok and trivial
    b = betti(parse_salamon(UNIMODULAR7)).betti
    computed["unimodular b1,b7"] = (b[1], b[7])
    ok = ok and (b[1], b[7]) == (2, 1)
    return _result(ok, computed, "all trivial; unimodular b1=2, b7=1")


def claim_betti_table() -> Dict[str, object]:
    sets = {
        4: {(1, 0, 0, 0), (2, 1, 0, 0)},
        5: {(1, 0, 0, 0, 0), (2, 1, 0, 0, 0)},
    }
    computed = {}
    ok = True
    for s in CATALOG:
        g = parse_salamon(s)
        if g.n not in sets:
            continue
        sig = tuple(betti(g).betti[1:])
        computed[s] = sig
        ok = ok and sig in sets[g.n]
    return _result(ok, computed, "signatures land in the catalogued sets")


def claim_kunneth() -> Dict[str, object]:
    su2 = builtin("su2")
    aff = parse_salamon("0,12")
    cases = [
        (su2, su2, 2),
        (builtin("abelian:1"), su2, 1),
        (aff, aff, 0),
    ]
    computed = []
    ok = True
    for h1, h2, want_b3 in cases:
        g = h1.direct_sum(h2)
        b = direct_betti(g).betti  # not betti's own Kunneth split
        b1, b2 = betti(h1).betti, betti(h2).betti

        def at(v, k):
            return v[k] if k < len(v) else 0

        f3 = at(b1, 3) + at(b2, 3) + at(b1, 2) * at(b2, 1) + at(b1, 1) * at(b2, 2)
        f4 = (at(b1, 4) + at(b2, 4) + at(b1, 2) * at(b2, 2)
              + at(b1, 3) * at(b2, 1) + at(b1, 1) * at(b2, 3))
        good = (b[3] == f3 == want_b3
                and (g.n < 4 or b[4] == f4)
                and kunneth_check(h1, h2))
        computed.append({"b3": b[3], "formula_b3": f3, "expected_b3": want_b3})
        ok = ok and good
    return _result(ok, computed, "b3 = 2, 1, 0 and both formulas match")


def claim_structure_equivalence() -> Dict[str, object]:
    cases = CATALOG + ["0,12,0.13", "0,12,-1.13"]
    computed = {}
    ok = True
    for s in cases:
        v = verify_34_structure(parse_salamon(s))
        computed[s] = {"direct": v.direct, "structural": v.structural}
        ok = ok and v.agrees
    return _result(ok, computed, "direct and structural verdicts agree everywhere")


def claim_spectral_reconstruction() -> Dict[str, object]:
    computed = {}
    ok = True
    for s in CATALOG:
        g = parse_salamon(s)
        split = IdealSplit.from_indices(g, list(range(2, g.n + 1)))
        inv = {q: invariant_cohomology(split, q).dim_invariant for q in (2, 3, 4)}
        b = betti(g).betti
        b3ok = b[3] == inv[3] + inv[2]
        b4ok = g.n < 4 or b[4] == inv[4] + inv[3]
        computed[s] = {"b3": b[3], "sum": inv[3] + inv[2], "b4ok": b4ok}
        ok = ok and b3ok and b4ok
    return _result(ok, computed, "b3 and b4 reconstruct from invariant cohomology")


def claim_multimoment() -> Dict[str, object]:
    g = parse_salamon("0,12,13,14,1.15")
    sweep_ok = True
    cocycles = cocycle_basis(g, 4)
    for z, sol in zip(cocycles, solve_multimoments(g, [Cocycle(4, z) for z in cocycles])):
        round_trip = (sol.nu is not None
                      and d_form(g, sol.nu.representative) == z)
        sweep_ok = sweep_ok and sol.status == "unique" and round_trip
    su2 = builtin("su2")
    gamma = triple_form(su2, Matrix.identity(3).to_rows())
    sol = solve_multimoment(su2, Cocycle(3, gamma))
    h3 = betti(su2).betti[3]
    su2_ok = (sol.status == "no-existence"
              and sol.obstruction is not None
              and not is_exact(su2, sol.obstruction)
              and h3 == 1)
    computed = {"sweep_size": len(cocycles), "sweep_ok": sweep_ok, "su2_ok": su2_ok}
    return _result(sweep_ok and su2_ok, computed,
                   "unique solutions on the model algebra; su(2) obstructed")


def claim_properties() -> Dict[str, object]:
    rng = random.Random(20260826)
    algebras = [parse_salamon(s) for s in CATALOG] + [builtin("su2"), builtin("heisenberg")]
    checks = {}
    # L.L = 0 and d.d = 0 in every degree
    ok_ll = ok_dd = True
    for g in algebras:
        d1 = ce_differential(g, 0)
        for k in range(g.n + 1):
            for mask in basis_masks(g.n, k):
                q = KVector(g.n, k, {mask: ONE})
                if not g.lie_L(g.lie_L(q)).is_zero():
                    ok_ll = False
            if k + 1 <= g.n:
                d2 = ce_differential(g, k + 1)
                if (d2 @ d1).entries:
                    ok_dd = False
                d1 = d2
    checks["LL_zero"] = ok_ll
    checks["dd_zero"] = ok_dd
    checks["euler"] = all(
        sum((-1) ** k * b for k, b in enumerate(betti(g).betti)) == 0
        for g in algebras
    )
    # direct ranks of every degree, not betti's duality shortcut
    gu = parse_salamon(UNIMODULAR7)
    ru = [ce_differential(gu, k).rank() for k in range(gu.n)]
    checks["poincare"] = all(ru[k] == ru[gu.n - 1 - k] for k in range(gu.n))
    checks["dixmier"] = all(
        all(b >= 2 for b in betti(parse_salamon(s)).betti[1:-1])
        for s in NILPOTENT
    )
    cartan_ok = True
    for _ in range(40):
        g = rng.choice(algebras)
        p, a = random_cartan_pair(g, rng)
        cartan_ok = cartan_ok and cartan_identity_check(g, p, a)
    checks["cartan"] = cartan_ok
    # invariant closed forms: p . da - (-1)^s d(p . a) = -L(p) . a reduces to
    # d(p . a) = L(p) . a when da = 0 and s = 2
    inv_ok = True
    for g in algebras:
        for z in cocycle_basis(g, 3):
            invariant = all(
                lie_derivative(g, KVector.basis(g.n, [i]), z).is_zero()
                for i in range(1, g.n + 1)
            )
            if not invariant:
                continue
            for i in range(1, g.n + 1):
                for j in range(i + 1, g.n + 1):
                    p = KVector.basis(g.n, [i, j])
                    lhs = d_form(g, contract(p, z))
                    rhs = contract(g.lie_L(p), z)
                    if not (lhs - rhs).is_zero():
                        inv_ok = False
    checks["cartan_invariant"] = inv_ok
    return _result(all(checks.values()), checks, {k: True for k in checks})


def claim_criterion_oracle() -> Dict[str, object]:
    mismatches = []
    total = 0
    for m in range(1, 5):
        for tup in itertools.combinations_with_replacement(range(-3, 4), m):
            total += 1
            lam = [Fraction(t) for t in tup]
            crit = abelian_eigen_criterion(lam)
            g = diagonal_extension(lam)
            if crit != (betti(g).nonvanishing() is None):
                mismatches.append(tup)
    return _result(not mismatches,
                   {"checked": total, "mismatches": mismatches},
                   "criterion matches direct triviality on every tuple")


def claim_admissibility() -> Dict[str, object]:
    bad = []
    for n in range(0, 11):
        for r in range(0, n + 1):
            want = r != 0 and (
                r in (1, 2, n - 2, n - 1, n)
                or (r in (3, n - 3) and n in (6, 7, 8))
            )
            if stability_admissible(r, n) != want:
                bad.append(("stable", r, n))
            if r >= 3:
                want_f = r == n or (r, n) in ((3, 7), (4, 8))
                if fully_nondeg_admissible(r, n) != want_f:
                    bad.append(("fully", r, n))
                form = construct_nondegenerate(r, n)
                possible = n >= r and n != r + 1
                if (form is not None) != possible:
                    bad.append(("construct", r, n))
                elif form is not None and not weak_nondegenerate(form):
                    bad.append(("degenerate", r, n))
    return _result(not bad, {"violations": bad}, "tables and constructions agree")


CLAIMS: List[Claim] = [
    Claim("c01-stabilizers", "stabilizer dims / orbit dims / stability", claim_stabilizers),
    Claim("c02-volume-identities", "pointwise volume and metric identities", claim_volume_identities),
    Claim("c03-su2", "su(2) Betti, Lie kernels, Cartan three-form", claim_su2),
    Claim("c04-catalog-trivial", "(3,4)-trivial catalog and unimodular instance", claim_catalog_trivial),
    Claim("c05-betti-table", "dim 4/5 Betti signatures land in table sets", claim_betti_table),
    Claim("c06-kunneth", "direct sums against the Kunneth formulas", claim_kunneth),
    Claim("c07-structure-equiv", "direct vs structural triviality verdicts", claim_structure_equivalence),
    Claim("c08-spectral-reconstruction", "b3/b4 from invariant cohomology", claim_spectral_reconstruction),
    Claim("c09-multimoment", "multi-moment existence and uniqueness", claim_multimoment),
    Claim("c10-properties", "identity property suites", claim_properties),
    Claim("c11-criterion-oracle", "eigenvalue criterion vs direct triviality", claim_criterion_oracle),
    Claim("c12-admissibility", "stability and non-degeneracy tables", claim_admissibility),
]


def run_claims(filter_str: Optional[str] = None) -> List[Dict[str, object]]:
    out = []
    for claim in sorted(CLAIMS, key=lambda c: c.id):
        if filter_str and filter_str not in claim.id and filter_str not in claim.title:
            continue
        res = claim.run()
        res["id"] = claim.id
        res["title"] = claim.title
        out.append(res)
    return out
