"""Algebraic multi-moment maps on the dual of the Lie kernel."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cohomology import ce_differential, coboundaries_and_cohomology, coboundary_matrix, d_form
from .exterior import DimensionMismatch, KForm, basis_masks, contraction_matrix, coordinate_matrix
from .liealg import LieAlgebra
from .linalg import Matrix, Vector
from .scalars import ZERO, Elem, FieldError, radicand, sc


@dataclass(frozen=True)
class PDualElement:
    """A class in degree-k forms modulo coboundaries, by representative."""

    degree: int
    representative: KForm

    def __post_init__(self):
        if self.representative.degree != self.degree:
            raise ValueError("representative degree mismatch")

    def to_json(self) -> dict:
        return {"degree": self.degree, "representative": self.representative.to_json()}


@dataclass(frozen=True)
class Cocycle:
    degree: int
    form: KForm

    def __post_init__(self):
        if self.form.degree != self.degree:
            raise ValueError("cocycle degree mismatch")

    @classmethod
    def checked(cls, g: LieAlgebra, form: KForm) -> "Cocycle":
        if not d_form(g, form).is_zero():
            raise ValueError("form is not closed")
        return cls(form.degree, form)


def d_P(g: LieAlgebra, beta: PDualElement) -> KForm:
    """The induced differential: d of any representative."""
    if beta.degree >= g.n:
        raise ValueError("degree out of range")
    return d_form(g, beta.representative)


@dataclass
class MultimomentSolution:
    status: str  # "unique" | "non-unique" | "no-existence"
    nu: Optional[PDualElement] = None
    kernel: List[PDualElement] = field(default_factory=list)
    obstruction: Optional[KForm] = None

    def to_json(self) -> dict:
        return self._json([k.to_json() for k in self.kernel])

    def _json(self, kernel: List[dict]) -> dict:
        """to_json with the kernel classes already serialised."""
        out: dict = {"status": self.status}
        if self.nu is not None:
            out["nu"] = self.nu.to_json()
        if kernel:
            out["kernel"] = kernel
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction.to_json()
        return out


def solve_multimoment(g: LieAlgebra, psi: Cocycle) -> MultimomentSolution:
    """Solve d_P(nu) = psi, reporting existence and uniqueness.

    When no solution exists the obstruction is the (nonzero) class of
    psi in degree-r cohomology; when the solution is not unique the
    affine solution set is a particular nu plus the span of the
    returned kernel classes, which are a basis of H^{r-1}.
    """
    return solve_multimoments(g, [psi])[0]


def solve_multimoments(g: LieAlgebra, psis: Sequence[Cocycle]) -> List[MultimomentSolution]:
    """``solve_multimoment`` for each of several cocycles of one degree r,
    from one elimination of [d | Z] (d on (r-1)-forms, Z the cocycles as
    columns) and, if any solution exists, one basis of H^{r-1}."""
    if not psis:
        return []
    r = psis[0].degree
    if any(psi.degree != r for psi in psis):
        raise ValueError("cocycles of different degrees")
    if not 1 <= r <= g.n:
        raise ValueError("degree out of range")
    rhs = coordinate_matrix([psi.form for psi in psis], basis_masks(g.n, r))
    masks = basis_masks(g.n, r - 1)
    d = ce_differential(g, r - 1)
    kernel: Optional[List[PDualElement]] = None
    out = []
    for psi, x in zip(psis, d.solve_columns(rhs)):
        if x is None:
            out.append(MultimomentSolution("no-existence", obstruction=psi.form))
            continue
        if kernel is None:
            kernel = [PDualElement(r - 1, z) for z in coboundaries_and_cohomology(g, r - 1, d)[1]]
        nu = PDualElement(r - 1, KForm._of(g.n, r - 1, {masks[j]: v for j, v in x.items()}))
        status = "unique" if not kernel else "non-unique"
        out.append(MultimomentSolution(status, nu=nu, kernel=list(kernel)))
    return out


def solutions_to_json(sols: Sequence[MultimomentSolution]) -> List[dict]:
    """``[sol.to_json() for sol in sols]``, serialising each kernel once:
    ``solve_multimoments`` hands every solvable cocycle the same H^{r-1}
    basis, which can run to thousands of forms."""
    shared: Dict[Tuple[int, ...], List[dict]] = {}
    out = []
    for sol in sols:
        key = tuple(map(id, sol.kernel))
        if key not in shared:
            shared[key] = [k.to_json() for k in sol.kernel]
        out.append(sol._json(shared[key]))
    return out


@dataclass
class OrbitStabReport:
    stab_basis: List[Vector]
    ker_basis: List[Vector]
    holds: bool

    def to_json(self) -> dict:
        return {
            "stab_dim": len(self.stab_basis),
            "ker_dim": len(self.ker_basis),
            "stab_basis": [[str(x) for x in v] for v in self.stab_basis],
            "ker_basis": [[str(x) for x in v] for v in self.ker_basis],
            "holds": self.holds,
        }


def orbit_stab_condition(g: LieAlgebra, beta: PDualElement) -> OrbitStabReport:
    """Compare the stabiliser of beta with the kernel of contraction.

    stab = {X : X . d(rep) is a coboundary}; ker = {X : X . d(rep) = 0}.
    Equality means the closed geometry is realised on the orbit.
    """
    n, k = g.n, beta.degree
    if beta.representative.n != n:
        raise DimensionMismatch(
            f"form is on R^{beta.representative.n}, the algebra has dimension {n}")
    form_field = radicand(beta.representative.terms.values(), "form coefficients")
    if form_field is not None and g.radicand not in (None, form_field):
        raise FieldError(f"the form is over Q(sqrt {form_field}), "
                         f"the algebra over Q(sqrt {g.radicand})")
    dbeta = d_P(g, beta)
    hook = contraction_matrix(dbeta)
    ker = hook.kernel_basis()
    # stab: the kernel of [hook | d] is {(X, -gamma) : X . d(rep) = d(gamma)},
    # and its basis is the RREF of the X parts (the first n rows)
    joint = hook.hstack(coboundary_matrix(g, k)).kernel()
    xs = Matrix(joint.cols, n, {(j, i): x for (i, j), x in joint.entries.items() if i < n})
    stab = [[row.get(j, ZERO) for j in range(n)] for row in xs.rref()[0]]
    return OrbitStabReport(stab, ker, len(stab) == len(ker))


def triple_form(g: LieAlgebra, inner: Sequence[Sequence]) -> KForm:
    """The 3-form (X, Y, Z) -> <[X, Y], Z> of an ad-invariant pairing."""
    n = g.n
    m = [[sc(x) for x in row] for row in inner]
    if len(m) != n or any(len(r) != n for r in m):
        raise ValueError("inner product has wrong shape")
    for i in range(n):
        for j in range(i, n):
            if m[i][j] != m[j][i]:
                raise ValueError("inner product not symmetric")

    # (i, j) -> [<[e_i, e_j], e_k> for k = 1..n] from the stored bracket (min(i, j), max(i, j))
    pairing: Dict[Tuple[int, int], List[Elem]] = {}
    for (i, j), br in g.brackets.items():
        row = [sum((c * m[q - 1][k] for q, c in br.items()), ZERO) for k in range(n)]
        pairing[(i, j)], pairing[(j, i)] = row, [-x for x in row]
    zero = [ZERO] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if pairing.get((i, j), zero)[k - 1] + pairing.get((i, k), zero)[j - 1]:
                    raise ValueError("inner product is not ad-invariant")
    terms = []
    for (i, j) in sorted(g.brackets):
        for k in range(j + 1, n + 1):
            c = pairing[(i, j)][k - 1]
            if c:
                terms.append(((i, j, k), c))
    return KForm.from_terms(n, terms) if terms else KForm.zero(n, 3)
