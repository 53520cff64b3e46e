"""Distinguished constant-coefficient forms and their orbit analysis."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from .exterior import (
    KForm,
    KVector,
    basis_masks,
    contract,
    contraction_matrix,
    dim_lambda,
    hodge_star,
    indices_of,
    mask_of,
    volume_form,
    wedge_sign,
)
from .liealg import SU3_STRUCTURE
from .linalg import Matrix, Vector
from .scalars import ZERO, Elem, FieldError

_G2_TERMS = [
    ((1, 2, 3), 1), ((1, 4, 5), 1), ((1, 6, 7), 1), ((2, 4, 6), 1),
    ((2, 5, 7), -1), ((3, 4, 7), -1), ((3, 5, 6), -1),
]

_SPIN7_TERMS = [
    ((1, 2, 3, 4), 1), ((1, 2, 5, 6), 1), ((3, 4, 7, 8), 1),
    ((3, 4, 5, 6), 1), ((1, 2, 7, 8), 1), ((1, 3, 5, 7), 1),
    ((1, 3, 6, 8), -1), ((2, 4, 5, 7), -1), ((2, 4, 6, 8), 1),
    ((1, 4, 5, 8), -1), ((1, 4, 6, 7), -1), ((2, 3, 5, 8), -1),
    ((2, 3, 6, 7), -1), ((5, 6, 7, 8), 1),
]

_CVOL6_TERMS = [
    ((1, 3, 5), 1), ((1, 4, 6), -1), ((2, 3, 6), -1), ((2, 4, 5), -1),
]

_SYMPLECTIC_RE = re.compile(r"symplectic\(([0-9]+),([0-9]+)\)")


def builtin_form(name: str, sqrt: Optional[int] = None) -> KForm:
    """Model forms: g2, spin7, psu3, cvol6, symplectic(k,n)."""
    if name == "g2":
        return KForm.from_terms(7, _G2_TERMS)
    if name == "spin7":
        return KForm.from_terms(8, _SPIN7_TERMS)
    if name == "psu3":
        if sqrt not in (None, 3):
            raise FieldError("the psu3 form needs sqrt(3); got sqrt(%r)" % sqrt)
        return KForm.from_terms(8, SU3_STRUCTURE.items())
    if name == "cvol6":
        return KForm.from_terms(6, _CVOL6_TERMS)
    m = _SYMPLECTIC_RE.fullmatch(name)
    if m:
        k, n = int(m.group(1)), int(m.group(2))
        if 2 * k > n:
            raise ValueError(f"symplectic({k},{n}) needs n >= 2k")
        # degree 2 even with no terms: symplectic(0,n) is the zero two-form
        return KForm(n, 2, {mask_of((2 * i - 1, 2 * i)): 1 for i in range(1, k + 1)})
    raise ValueError(f"unknown builtin form {name!r}")


# -- degeneracy ------------------------------------------------------------


def contraction_kernel(alpha: KForm) -> Matrix:
    """Null space of v -> v . alpha, as the columns of a matrix; all of R^n
    for a 0-form, which has no slot to contract."""
    return contraction_matrix(alpha).kernel()


def weak_nondegenerate(alpha: KForm) -> bool:
    return contraction_matrix(alpha).rank() == alpha.n


def construct_nondegenerate(r: int, n: int) -> Optional[KForm]:
    """A weakly non-degenerate r-form on R^n, or None when impossible.

    Possible exactly for n >= r and n != r + 1.  For r > 3 it is the
    3-form on the first n - r + 3 coordinates wedged with e^{n-r+4}, ...,
    e^n in turn: each step splits off the last coordinate, (r, n) from
    (r - 1, n - 1).
    """
    if r < 3:
        raise ValueError("degree must be at least 3")
    if n < 0:
        raise ValueError(f"dimension {n} is negative")
    if n < r or n == r + 1:
        return None
    if r == n:
        return volume_form(n)
    if r == 3 and n % 2 == 1:
        omega = builtin_form(f"symplectic({(n - 1) // 2},{n})")
        return omega.wedge(KForm.basis(n, [n]))
    if r == 3:
        inner = construct_nondegenerate(3, n - 3)
        shifted = KForm(n, 3, {mask << 3: c for mask, c in inner.terms.items()})
        return KForm.basis(n, [1, 2, 3]) + shifted
    m = n - r + 3
    form = construct_nondegenerate(3, m)
    for k in range(m + 1, n + 1):
        form = KForm(k, form.degree, dict(form.terms)).wedge(KForm.basis(k, [k]))
    return form


# -- two-form normal form --------------------------------------------------


@dataclass
class NormalFormResult:
    k: int
    basis_change: Matrix  # columns are the new basis in old coordinates

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "basis_change": [
                [str(x) for x in self.basis_change.row(i)]
                for i in range(self.basis_change.rows)
            ],
        }


def two_form_normal_form(omega: KForm) -> NormalFormResult:
    """Darboux basis: omega pulls back to e12 + e34 + ... (k terms).

    Inductive pairing with lexicographically-first pivots, so the basis
    change is deterministic.
    """
    if omega.degree != 2:
        raise ValueError("normal form wants a two-form")
    n = omega.n
    pairs = [(indices_of(mask), c) for mask, c in omega.terms.items()]

    def ev(u: Vector, v: Vector) -> Elem:
        # omega(u, v) = sum over the terms c e^{ij} of c (u_i v_j - u_j v_i)
        return sum((c * (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]) for (i, j), c in pairs),
                   ZERO)

    working = Matrix.identity(n).to_rows()
    paired: List[Vector] = []
    while True:
        pivot = None
        for a in range(len(working)):
            for b in range(a + 1, len(working)):
                if ev(working[a], working[b]):
                    pivot = (a, b)
                    break
            if pivot:
                break
        if pivot is None:
            break
        a, b = pivot
        u = working[a]
        val = ev(u, working[b])
        v = [x / val for x in working[b]]
        rest = []
        for t, w in enumerate(working):
            if t in (a, b):
                continue
            wu, wv = ev(w, u), ev(w, v)
            rest.append(
                [w[i] - wv * u[i] + wu * v[i] for i in range(n)]
            )
        paired.extend([u, v])
        working = rest
    cols = paired + working
    change = Matrix.from_columns(cols, nrows=n)
    return NormalFormResult(len(paired) // 2, change)


# -- stabilizers and stability --------------------------------------------


def stabilizer_algebra(alpha: KForm) -> List[Matrix]:
    """Basis of the annihilating matrix algebra inside gl(n).  E_ab, sending
    e^a to e^b, acts as the derivation E_ab . alpha = e^b ^ (e_a .| alpha):
    column n(a - 1) + b - 1 spreads the contraction matrix's column a by e^b."""
    n, k = alpha.n, alpha.degree
    rests, row = basis_masks(n, k - 1), {m: t for t, m in enumerate(basis_masks(n, k))}
    system: Dict = {}
    for (r, a), x in contraction_matrix(alpha).entries.items():
        rest = rests[r]
        for b in range(n):
            bit = 1 << b
            if not rest & bit:
                system[(row[rest | bit], a * n + b)] = x if wedge_sign(bit, rest) > 0 else -x
    kernel = Matrix._of(len(row), n * n, system).kernel()
    entries: List[Dict] = [{} for _ in range(kernel.cols)]
    for (t, j), x in kernel.entries.items():
        # E_ab has matrix entry (b, a): it maps the vector e_a to e_b
        entries[j][(t % n, t // n)] = x
    return [Matrix(n, n, e) for e in entries]


@dataclass
class FormAnalysis:
    form: KForm
    kernel: Matrix  # the contraction kernel, as columns
    weakly_nondegenerate: bool
    stabilizer_dim: int
    orbit_dim: int
    stable: bool

    def to_json(self) -> dict:
        return {
            "n": self.form.n,
            "degree": self.form.degree,
            "kernel_dim": self.kernel.cols,
            "weakly_nondegenerate": self.weakly_nondegenerate,
            "stabilizer_dim": self.stabilizer_dim,
            "orbit_dim": self.orbit_dim,
            "stable": self.stable,
        }


def analyze(alpha: KForm) -> FormAnalysis:
    kernel = contraction_kernel(alpha)
    stab = len(stabilizer_algebra(alpha))
    n = alpha.n
    orbit = n * n - stab
    return FormAnalysis(
        form=alpha,
        kernel=kernel,
        weakly_nondegenerate=not kernel.cols,
        stabilizer_dim=stab,
        orbit_dim=orbit,
        stable=orbit == dim_lambda(n, alpha.degree),
    )


def stability_admissible(r: int, n: int) -> bool:
    """Degrees admitting stable forms on R^n."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if r == 0:
        return False
    if r in (1, 2, n - 2, n - 1, n):
        return True
    return r in (3, n - 3) and n in (6, 7, 8)


def fully_nondeg_admissible(r: int, n: int) -> bool:
    """Degrees r >= 3 admitting fully non-degenerate forms on R^n."""
    if r < 3:
        raise ValueError("degree must be at least 3")
    return r == n or (r, n) in ((3, 7), (4, 8))


# -- pointwise special-holonomy identities --------------------------------


def _shift_down(alpha: KForm) -> KForm:
    """Relabel indices 2..8 to 1..7 (index 1 must be absent)."""
    if any(mask & 1 for mask in alpha.terms):
        raise ValueError("form touches the split direction")
    return KForm(alpha.n - 1, alpha.degree, {m >> 1: c for m, c in alpha.terms.items()})


def holonomy_identities(which: str) -> Dict[str, object]:
    """Verdict and computed values for the model-form identities."""
    if which == "g2metric":
        phi = builtin_form("g2")
        hooks = KForm.from_matrix(7, 2, basis_masks(7, 2), contraction_matrix(phi))
        matrix = [[u.wedge(v).wedge(phi).terms.get((1 << 7) - 1, ZERO) for v in hooks]
                  for u in hooks]
        ok = all(c == (6 if i == j else 0) for i, r in enumerate(matrix) for j, c in enumerate(r))
        return {"ok": ok, "matrix": [[str(x) for x in r] for r in matrix]}
    if which == "spin7vol":
        big = builtin_form("spin7")
        sq = big.wedge(big)
        c = sq.terms.get((1 << 8) - 1, ZERO)
        return {"ok": c == 14, "coefficient": str(c)}
    if which == "spin7bivector":
        big = builtin_form("spin7")
        ok = True
        values = {}
        for i in range(1, 9):
            for j in range(i + 1, 9):
                om = contract(KVector.basis(8, [i, j]), big)
                c = om.wedge(om).wedge(big).terms.get((1 << 8) - 1, ZERO)
                values[f"{i},{j}"] = str(c)
                ok = ok and c == 6
        rank12 = 2 * two_form_normal_form(
            contract(KVector.basis(8, [1, 2]), big)
        ).k
        return {"ok": ok and rank12 == 6, "values": values, "rank_12": rank12}
    if which == "spin7split":
        big = builtin_form("spin7")
        phi = contract(KVector.basis(8, [1]), big)
        expected = KForm.from_terms(
            8,
            [
                ((2, 3, 4), 1), ((2, 5, 6), 1), ((2, 7, 8), 1),
                ((3, 5, 7), 1), ((3, 6, 8), -1), ((4, 5, 8), -1),
                ((4, 6, 7), -1),
            ],
        )
        rest = big - KForm.basis(8, [1]).wedge(phi)
        star = hodge_star(_shift_down(phi))
        ok = phi == expected and _shift_down(rest) == star
        return {"ok": ok, "phi": phi.to_json()}
    raise ValueError(f"unknown identity {which!r}")
