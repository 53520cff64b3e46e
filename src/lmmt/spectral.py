"""Hochschild-Serre machinery for ideals with small abelian quotient."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .cohomology import betti, ce_differential, coboundaries_and_cohomology, d_form
from .exterior import KForm, basis_masks, contraction_matrix, coordinate_matrix, dim_lambda
from .liealg import Brackets, LieAlgebra, structural_report
from .linalg import Matrix, extend_basis
from .scalars import ONE, Elem


class SplitError(ValueError):
    pass


def _coordinates(span: Matrix, vectors: Matrix) -> List[Dict[int, Elem]]:
    """``span.solve_columns(vectors)``: each column's coordinates on the
    pivot columns of ``span``; SplitError if one is outside that span."""
    xs = span.solve_columns(vectors)
    if any(x is None for x in xs):
        raise SplitError("vector escapes the chosen basis")
    return xs


@dataclass
class IdealSplit:
    """An ideal k of g containing g' together with a lifted complement: the
    columns of ``basis`` are a basis of g, the first m of them one of k.

    Both conditions, and that the columns span g, are read off ``adapted``,
    g in that basis, from one elimination.  With b_i the i-th column, k is
    an ideal when no bracket [b_i, b_j], i < j, with i <= m has a component
    past m, and then k holds g' when no bracket has one.  The ideal test
    comes first, to name the condition that broke."""

    g: LieAlgebra
    basis: Matrix
    m: int

    def __post_init__(self):
        n = self.g.n
        if (self.basis.rows, self.basis.cols) != (n, n):
            raise SplitError("ideal and complement do not span")
        adapted = self.adapted
        if not 0 <= self.m <= n:
            raise SplitError(f"ideal dimension {self.m} is outside 0..{n}")
        # the first index i of each bracket [b_i, b_j] with a component past m
        escaping = [i for (i, _), comp in adapted.brackets.items() if max(comp) > self.m]
        if any(i <= self.m for i in escaping):
            raise SplitError("subspace is not an ideal")
        if escaping:
            raise SplitError("quotient is not abelian: ideal misses g'")

    @classmethod
    def from_indices(cls, g: LieAlgebra, ideal: Sequence[int]) -> "IdealSplit":
        """The split whose ideal is spanned by e_i for i in ideal, in that
        order, and whose complement is the other e_i in increasing order."""
        seen = set()
        for i in ideal:
            if not 1 <= i <= g.n:
                raise SplitError(f"ideal index {i} is outside 1..{g.n}")
            if i in seen:
                raise SplitError(f"repeated index {i} in the ideal")
            seen.add(i)
        order = list(ideal) + [i for i in range(1, g.n + 1) if i not in seen]
        return cls(g, Matrix(g.n, g.n, {(i - 1, t): ONE for t, i in enumerate(order)}), len(seen))

    @property
    def codim(self) -> int:
        return self.g.n - self.m

    @functools.cached_property
    def adapted(self) -> LieAlgebra:
        """g in the basis ``basis``; the coordinates of all n(n-1)/2 brackets
        come from one elimination, which solves for the n unit vectors too:
        SplitError when one escapes, as then the basis does not span g."""
        g, n = self.g, self.g.n
        pairs = list(itertools.combinations(range(n), 2))
        xs = self.basis.solve_columns(
            g.bracket_columns(self.basis, self.basis, pairs).hstack(Matrix.identity(n)))
        if any(x is None for x in xs[len(pairs):]):
            raise SplitError("ideal and complement do not span")
        brackets: Brackets = {
            (i + 1, j + 1): {r + 1: x for r, x in xs[t].items()} for t, (i, j) in enumerate(pairs)}
        return LieAlgebra(n, brackets, validate=False)

    def ideal_algebra(self) -> LieAlgebra:
        return self.adapted.restrict(range(1, self.m + 1))


@dataclass
class InvariantCohomology:
    q: int
    dim_H: int
    dim_invariant: int
    operators: List[Matrix]
    invariant_basis: List[KForm]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "dim_H": self.dim_H,
            "dim_invariant": self.dim_invariant,
            "invariant_basis": [f.to_json() for f in self.invariant_basis],
        }


def invariant_cohomology(split: IdealSplit, q: int) -> InvariantCohomology:
    """H^q(k), the quotient action on it per A.[a] = [A . da], joint kernel.

    With a lifted to g on the same masks, A . da for every quotient
    direction A is a column of the contraction matrix of da, and its first
    C(m, q) rows, the masks below 2^m, are the restriction to k.  One solve of them all against [coboundaries |
    representatives] gives their coordinates on the representatives."""
    m, n = split.m, split.g.n
    gt, k = split.adapted, split.ideal_algebra()
    masks_q = basis_masks(m, q)
    bmat, h_reps = coboundaries_and_cohomology(k, q, ce_differential(k, q))
    dim_h, rows = len(h_reps), len(masks_q)
    reps = coordinate_matrix(h_reps, masks_q)
    acted: Dict[Tuple[int, int], Elem] = {}
    for c, rep in enumerate(h_reps):
        for (r, a), x in contraction_matrix(d_form(gt, KForm._of(n, q, rep.terms))).entries.items():
            if r < rows and a >= m:
                acted[(r, (a - m) * dim_h + c)] = x
    # the representatives are independent modulo the coboundaries, so they
    # are pivot columns of [B | reps]: representative r's at bmat.cols + r
    xs = _coordinates(bmat.hstack(reps), Matrix._of(rows, split.codim * dim_h, acted))
    ops = [Matrix(dim_h, dim_h, {(r, c): x for r in range(dim_h) for c in range(dim_h)
                                 if (x := xs[s * dim_h + c].get(bmat.cols + r))})
           for s in range(split.codim)]
    kernel = functools.reduce(Matrix.vstack, ops, Matrix.zero(0, dim_h)).kernel()
    inv_forms = KForm.from_matrix(m, q, masks_q, reps @ kernel)
    return InvariantCohomology(q, dim_h, kernel.cols, ops, inv_forms)


@dataclass
class SpectralPage:
    level: int
    table: Dict[Tuple[int, int], int]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "table": {f"{p},{q}": v for (p, q), v in sorted(self.table.items())},
        }


def hs_page(split: IdealSplit, level: int, max_q: int) -> SpectralPage:
    """E1 or E2 page of the ideal's spectral sequence, rows 0..max_q."""
    pa = split.codim
    if pa not in (1, 2):
        raise SplitError("quotient dimension must be 1 or 2")
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    if max_q < 0:
        raise ValueError(f"max_q must be non-negative, got {max_q}")
    if level == 1:
        # E1^{p,q} = Lambda^p (g/k)* (x) H^q(k), and H^q(k) = 0 past dim k
        b = betti(split.ideal_algebra()).betti + [0] * max_q
        return SpectralPage(1, {(p, q): dim_lambda(pa, p) * b[q]
                                for q in range(max_q + 1) for p in range(pa + 1)})
    table: Dict[Tuple[int, int], int] = {}
    for q in range(max_q + 1):
        inv = invariant_cohomology(split, q)
        if pa == 1:
            # one operator: kernel and cokernel have equal dimension
            table[(0, q)] = inv.dim_invariant
            table[(1, q)] = inv.dim_invariant
        else:
            # Koszul: v -> (A1 v, A2 v) has the invariant part as kernel, and
            # (u, w) -> A1 w - A2 u has the rank of [A1 | A2]
            a1, a2 = inv.operators
            v, top = inv.dim_H, a1.hstack(a2).rank()
            table[(0, q)] = inv.dim_invariant
            table[(1, q)] = (2 * v - top) - (v - inv.dim_invariant)
            table[(2, q)] = v - top
    return SpectralPage(level, table)


# -- structure-theorem verification ---------------------------------------


def _quotient_functional_ideals(g: LieAlgebra, dprime: Matrix) -> List[Matrix]:
    """Codimension-one ideals containing g', via a hyperplane grid on g/g';
    each is the matrix [g' | a basis of the hyperplane, lifted to g].

    The grid takes kernels of the dual quotient-basis functionals and of
    their pairwise sums and differences; full projective enumeration is
    impossible over the rationals, and these hyperplanes are the ones the
    structure arguments are sensitive to.
    """
    lift = extend_basis(dprime, Matrix.identity(g.n))  # quotient coordinates -> g
    p = lift.cols
    funcs = [Matrix(1, p, {(0, i): 1}) for i in range(p)] + [
        Matrix(1, p, {(0, i): 1, (0, j): s})
        for i in range(p) for j in range(i + 1, p) for s in (1, -1)
    ]
    return [dprime.hstack(lift @ f.kernel()) for f in funcs]


@dataclass
class StructureVerdict:
    direct: bool
    structural: bool
    codim: int
    per_ideal: List[Dict[str, object]]

    @property
    def agrees(self) -> bool:
        return self.direct == self.structural

    def to_json(self) -> dict:
        return {
            "direct": self.direct,
            "structural": self.structural,
            "codim": self.codim,
            "agrees": self.agrees,
            "ideals": self.per_ideal,
        }


def verify_34_structure(g: LieAlgebra) -> StructureVerdict:
    """Direct Betti test against the invariant-cohomology conditions.

    Codimension-one ideals containing g' (enumerated over the hyperplane
    grid) must have H^i(k)^g = 0 for i = 2, 3, 4; when g' itself has
    codimension two or more it must additionally satisfy the condition
    for i = 1.  Non-solvable algebras fail the structural side outright.
    """
    direct = betti(g).nonvanishing() is None
    srep = structural_report(g)
    per_ideal: List[Dict[str, object]] = []
    if not srep.solvable:
        return StructureVerdict(direct, False, srep.codim_derived, per_ideal)
    structural = True
    ideals = [(ideal, (2, 3, 4)) for ideal in _quotient_functional_ideals(g, srep.derived_basis)]
    if srep.codim_derived >= 2:
        ideals.append((srep.derived_basis, (1, 2, 3, 4)))
    for ideal, degrees in ideals:
        split = IdealSplit(g, ideal.hstack(extend_basis(ideal, Matrix.identity(g.n))), ideal.cols)
        dims = {
            i: invariant_cohomology(split, i).dim_invariant
            for i in degrees
            if i <= split.m
        }
        ok = all(v == 0 for v in dims.values())
        per_ideal.append({"dim": split.m, "invariant_dims": dims, "vanishes": ok})
        structural = structural and ok
    return StructureVerdict(direct, structural, srep.codim_derived, per_ideal)


# -- diagonal extensions of abelian algebras ------------------------------


def abelian_eigen_criterion(lambdas: Sequence[Fraction]) -> bool:
    """No 2, 3 or 4 eigenvalues at distinct indices may sum to zero."""
    vals = [Fraction(x) for x in lambdas]
    for size in (2, 3, 4):
        for combo in itertools.combinations(vals, size):
            if sum(combo) == 0:
                return False
    return True


def diagonal_extension(lambdas: Sequence[Fraction]) -> LieAlgebra:
    """Extend abelian R^m by the diagonal derivation; generator first."""
    m = len(lambdas)
    brackets: Brackets = {}
    for i, lam in enumerate(lambdas, start=2):
        c = -Fraction(lam)
        if c:
            brackets[(1, i)] = {i: c}
    return LieAlgebra(m + 1, brackets, validate=False)


def search_34_extensions(m: int, eig_range: Tuple[int, int]) -> List[Dict[str, object]]:
    """Enumerate diagonal extensions over an eigenvalue box.

    Each certificate cross-checks the eigenvalue criterion against the
    direct Betti computation on the built algebra."""
    lo, hi = eig_range
    out: List[Dict[str, object]] = []
    for tup in itertools.combinations_with_replacement(range(lo, hi + 1), m):
        lambdas = [Fraction(t) for t in tup]
        crit = abelian_eigen_criterion(lambdas)
        if not crit:
            continue
        g = diagonal_extension(lambdas)
        rep = betti(g)
        out.append(
            {
                "eigenvalues": [str(t) for t in tup],
                "algebra": g.to_salamon(),
                "criterion": crit,
                "betti": rep.betti,
                "agrees": crit == (rep.nonvanishing() is None),
            }
        )
    return out
