"""Chevalley-Eilenberg cohomology with invariant coefficients."""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .exterior import (DegreeError, DimensionMismatch, KForm, KVector, accumulate, basis_masks,
                       contract, coordinate_matrix, derivation, dim_lambda, indices_of, iter_masks)
from .liealg import LieAlgebra
from .linalg import Matrix, extend_basis, in_span, rank_and_release
from .scalars import ONE, ZERO, Elem, Scalar, shared


def ce_differential(g: LieAlgebra, k: int,
                    block: Optional[Tuple[Sequence[int], Sequence[int]]] = None) -> Matrix:
    """Matrix of d: degree-k forms -> degree-(k+1) forms, canonical bases.

    Dual to the bracket-extension map: the e^J-coefficient of d(e^I) is
    the e_I-coefficient of L(e_J).  block = (cols, rows) restricts the
    matrix to those degree-k and degree-(k+1) masks, in that order.
    """
    src, dst = block if block is not None else (basis_masks(g.n, k), basis_masks(g.n, k + 1))
    col_index = {m: i for i, m in enumerate(src)}
    entries: Dict[Tuple[int, int], Elem] = {}
    # a differential holds a few distinct values many times over
    seen: Dict[tuple, Elem] = {}
    for row, mj in enumerate(dst):
        image = g.lie_L(KVector._of(g.n, k + 1, {mj: ONE}))
        for mask, c in image.terms.items():
            col = col_index.get(mask)
            if col is not None:
                entries[(row, col)] = shared(seen, c)
    return Matrix._of(len(dst), len(src), entries)


def d_form(g: LieAlgebra, a: KForm) -> KForm:
    """d a, applied on the support of a straight from the structure constants.

    d is the derivation of degree 1 with d e^i = ``g.de[i]``; the cost
    grows with the number of terms of a, not with the C(n, k+1) rows of
    ce_differential(g, k), whose product with a it equals."""
    if a.n != g.n:
        raise DimensionMismatch(f"ambient dimensions differ: {a.n} vs {g.n}")
    return derivation(a, g.de, 1)


def lie_kernel(g: LieAlgebra, k: int) -> List[KVector]:
    """Basis of ker(L) on degree-k multivectors (domain degree); L there is
    the transpose of d on degree k - 1."""
    kernel = ce_differential(g, k - 1).transpose().kernel()
    return KVector.from_matrix(g.n, k, basis_masks(g.n, k), kernel)


@dataclass
class CohomologyReport:
    n: int
    betti: List[int]
    cocycle_dims: List[int]
    coboundary_dims: List[int]

    def nonvanishing(self, degrees: Sequence[int] = (3, 4)) -> Optional[int]:
        """The first listed degree k with b_k != 0, or None: the paper's
        (3,4)-triviality test at the default.  A degree above n names a zero
        group; a negative degree is a DegreeError."""
        if min(degrees, default=0) < 0:
            raise DegreeError(f"degree {min(degrees)} is negative")
        return next((k for k in degrees if k <= self.n and self.betti[k]), None)

    def to_json(self) -> dict:
        return {
            "dim": self.n,
            "betti": self.betti,
            "cocycles": self.cocycle_dims,
            "coboundaries": self.coboundary_dims,
        }


def _weight_codes(n: int, torus: Dict[int, Dict[int, Elem]]) -> List[int]:
    """One integer per basis index o, additive over masks, whose sum over a
    mask is 0 exactly when every w_t sums to 0 there.

    Each w_t(o) = a + b sqrt(d) gives the rational digits a and b; times the
    common denominator they are integers, and no sum of them over a mask
    exceeds s = the sum of their absolute values.  Base 2s + 1 then packs
    each joint weight into one integer without carries, exactly."""
    digits = []
    for o in range(1, n + 1):
        row = []
        for w in torus.values():
            x = w.get(o, ZERO)
            row += (x.a, x.b) if isinstance(x, Scalar) else (x, ZERO)
        digits.append(row)
    den = lcm(*(c.denominator for row in digits for c in row))
    digits = [[c.numerator * (den // c.denominator) for c in row] for row in digits]
    base = 2 * sum(abs(c) for row in digits for c in row) + 1
    return [sum(c * base ** j for j, c in enumerate(row)) for row in digits]


def _subset_codes(part: List[int]) -> List[int]:
    """The code of every subset of part, indexed by its mask over part."""
    out = [0]
    for c in part:
        out += [x + c for x in out]
    return out


def _weight_zero_masks(n: int, torus: Dict[int, Dict[int, Elem]]) -> List[List[int]]:
    """The masks of joint torus weight zero, by degree 0..n+1 (degree n+1 is
    empty: the rows of the degree-n block), each list increasing.

    Meet in the middle, in O(2^(n/2) + output) steps: a mask is H + L with L
    on the low h = n // 2 bits and H on the others, and as the weight codes
    are additive it has weight zero exactly when code(L) = -code(H).  The
    low subsets are hashed by code, in increasing order; the high subsets
    are walked in increasing order and each looks up its negated code.  A
    hit H + L sorts by H first and then by L, so every degree list comes out
    increasing."""
    codes = _weight_codes(n, torus)
    h = n // 2
    low: Dict[int, List[Tuple[int, int]]] = {}
    for mask, code in enumerate(_subset_codes(codes[:h])):
        low.setdefault(code, []).append((mask, mask.bit_count()))
    zero: List[List[int]] = [[] for _ in range(n + 2)]
    for high, code in enumerate(_subset_codes(codes[h:])):
        hits = low.get(-code)
        if hits:
            top, deg = high << h, high.bit_count()
            for mask, k in hits:
                zero[deg + k].append(top | mask)
    return zero


def _masks_by_weight(n: int, codes: Sequence[int]) -> Iterator[Dict[int, array]]:
    """For k = 0, 1, ..., n + 1 in turn: {weight code: the degree-k masks of
    that joint torus weight, increasing}, from the ``_weight_codes`` of the
    torus, a mask's code looked up in two halves as in ``_weight_zero_masks``.
    The masks are kept as 64-bit words in arrays, not as int objects: 8 bytes
    a mask."""
    h = n // 2
    low, high = _subset_codes(codes[:h]), _subset_codes(codes[h:])
    cut = (1 << h) - 1
    for k in range(n + 2):
        out: Dict[int, array] = {}
        for m in iter_masks(n, k):
            code = low[m & cut] + high[m >> h]
            if code in out:
                out[code].append(m)
            else:
                out[code] = array("Q", (m,))
        yield out


def _convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Coefficients of the product of the polynomials sum a_i t^i and sum b_j t^j."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _report(n: int, ranks: Sequence[int]) -> CohomologyReport:
    """The report from r_k = rank of d on k-forms, k = 0..n."""
    cocycles = [dim_lambda(n, k) - ranks[k] for k in range(n + 1)]
    cobound = [0] + [ranks[k] for k in range(n)]
    b = [cocycles[k] - cobound[k] for k in range(n + 1)]
    return CohomologyReport(n, b, cocycles, cobound)


def _euler_ranks(n: int, kept: Sequence[int], what: str) -> List[int]:
    """r_k = C(n, k) - kept_k - r_{k-1} from r_{-1} = 0, for k = 0..n: the
    ranks of d on the k-forms when kept_k dimensions of each degree are
    left out and the rest is exact.  r_k >= 0 and r_n = 0 are checked as a
    certificate (AssertionError naming what)."""
    ranks, r = [], 0
    for k in range(n + 1):
        r = dim_lambda(n, k) - kept[k] - r
        if r < 0:
            raise AssertionError(f"negative rank {r} from {what} in degree {k}")
        ranks.append(r)
    if r:
        raise AssertionError(f"{what} leaves rank {r} in degree {n}")
    return ranks


def betti(g: LieAlgebra) -> CohomologyReport:
    """All Betti numbers b_0..b_n, with cocycle/coboundary dimensions.

    With r_k = rank of d on k-forms, b_k = C(n, k) - r_k - r_{k-1}, where
    r_{-1} = r_n = 0.  Three ways to the ranks, tried in this order:

    - A direct sum: ``LieAlgebra.components`` splits the basis into two or
      more parts whose spans are commuting ideals, so g is their direct sum
      and its cochains are the tensor product of theirs.  By Kunneth,
      H(g + h) = H(g) (x) H(h) over any field (Chevalley-Eilenberg, Trans.
      AMS 63, 1948; Hochschild-Serre, Ann. of Math. 57, 1953): the Poincare
      polynomial of g is the product of its parts', each from betti on the
      part (an isolated index is R, with table (1, 1)).  The ranks follow
      from the table by r_k = C(n, k) - b_k - r_{k-1} from r_{-1} = 0;
      r_k >= 0 and r_n = 0 are checked as a certificate.
    - An inner diagonal torus: basis elements e_t with [e_t, e_o] = w_t(o) e_o
      for every o (``LieAlgebra.inner_torus``).  By the Cartan formula
      L_X = d i_X + i_X d, and L_{e_t} e^I = -w_t(I) e^I with w_t(I) the sum
      of w_t over I.  d commutes with every L_{e_t} (and i_{e_t} with
      L_{e_s}, as [e_s, e_t] = 0), so the complex splits into joint weight
      blocks, and on a block where some w_t != 0 the map -i_{e_t} / w_t is a
      contracting homotopy: the block is acyclic (Hochschild-Serre, Ann. of
      Math. 57, 1953).  Only the weight-zero block, c0_k masks in degree k,
      is built and ranked (r0_k).  The acyclic rest has ranks
      r'_k = C(n, k) - c0_k - r'_{k-1} from r'_{-1} = 0, and r_k = r0_k + r'_k;
      r'_k >= 0 and r'_n = 0 are checked as a certificate.
    - Any other algebra is ranked block by block over its torus of diagonal
      derivations D = diag(w) (``LieAlgebra.diagonal_derivations``).  D acts
      on forms by D e^I = -w(I) e^I and commutes with d, as d is dual to the
      bracket (Vergne, Bull. SMF 98, 1970; Goze-Khakimdjanov, Nilpotent Lie
      Algebras, 1996): d is block-diagonal by joint weight, r_k is the sum
      of its blocks' ranks, and the largest block sets the peak memory.  With
      no non-zero D each degree is one block, the whole differential.  A
      unimodular algebra (tr ad x = 0 for every x) has Poincare duality
      b_k = b_{n-k} (Koszul, Bull. SMF 78, 1950; Hazewinkel, Math. USSR Sb.
      12, 1970), and induction on k from r_{-1} = r_n turns it into
      r_k = r_{n-1-k}: only the degrees k <= (n-1)/2 are ranked.  The
      duality holds block by block.  d is zero on (n-1)-forms, so for a
      k-form a and an (n-1-k)-form b, 0 = d(a ^ b) = da ^ b + (-1)^k a ^ db:
      under the wedge pairing into the n-forms, d on (n-1-k)-forms is the
      adjoint of d on k-forms, up to sign.  The pairing matches e^I with
      e^(complement of I), weight w with W - w (W the weight of all n
      indices), so block c of d on k-forms and block W - c of d on
      (n-1-k)-forms are transposes up to signs and have one rank.  At odd n
      the middle degree k = (n-1)/2 is its own dual: of each pair of blocks
      c != W - c only the lower code is ranked, and its rank counts twice."""
    n = g.n
    parts = g.components()
    if len(parts) > 1:
        table = [1]
        for part in parts:
            table = _convolve(table, [1, 1] if len(part) == 1 else betti(g.restrict(part)).betti)
        return _report(n, _euler_ranks(n, table, "the Kunneth table"))
    torus = g.inner_torus()
    if torus:
        zero = _weight_zero_masks(n, torus)
        rest = _euler_ranks(n, [len(masks) for masks in zero], "the complex off weight zero")
        return _report(n, [ce_differential(g, k, (zero[k], zero[k + 1])).rank() + r
                           for k, r in enumerate(rest)])
    codes = _weight_codes(n, g.diagonal_derivations())
    top = sum(codes)  # the code of the full mask
    by_weight = _masks_by_weight(n, codes)
    unimodular = g.is_unimodular()
    ranks, cols = [], next(by_weight)
    for k in range((n + 1) // 2 if unimodular else n + 1):
        rows = next(by_weight)
        # the middle degree: block top - c has block c's rank, so the lower code counts twice
        middle = unimodular and 2 * k == n - 1
        ranks.append(sum(rank_and_release(ce_differential(g, k, (masks, rows[c])))
                         * (2 if middle and c < top - c else 1)
                         for c, masks in cols.items() if c in rows and not (middle and c > top - c)))
        cols = rows
    if unimodular:
        ranks = [ranks[min(k, n - 1 - k)] for k in range(n)] + [0]
    return _report(n, ranks)


def direct_betti(g: LieAlgebra) -> CohomologyReport:
    """The report from the ranks of all n + 1 full differentials, with none
    of betti's shortcuts: the independent side of checks on them."""
    return _report(g.n, [ce_differential(g, k).rank() for k in range(g.n + 1)])


def cocycle_basis(g: LieAlgebra, k: int) -> List[KForm]:
    return KForm.from_matrix(g.n, k, basis_masks(g.n, k), ce_differential(g, k).kernel())


def coboundary_matrix(g: LieAlgebra, k: int) -> Matrix:
    """Columns span the degree-k coboundaries (image of d from k-1)."""
    return ce_differential(g, k - 1) if k >= 1 else Matrix(dim_lambda(g.n, 0), 0, {})


def is_exact(g: LieAlgebra, a: KForm) -> bool:
    rhs = coordinate_matrix([a], basis_masks(g.n, a.degree))
    return in_span(coboundary_matrix(g, a.degree), rhs)


def cohomology_basis(g: LieAlgebra, k: int) -> List[KForm]:
    """Representatives of a basis of H^k: the cocycle-basis vectors outside
    the span of the coboundaries and of the cocycle-basis vectors before them."""
    return coboundaries_and_cohomology(g, k, ce_differential(g, k))[1]


def coboundaries_and_cohomology(g: LieAlgebra, k: int, d: Matrix) -> Tuple[Matrix, List[KForm]]:
    """``coboundary_matrix(g, k)``, whose columns span B^k, and
    ``cohomology_basis(g, k)``, with d = ``ce_differential(g, k)`` built by
    the caller: the cocycle-basis vectors that extend the span of B."""
    bmat = coboundary_matrix(g, k)
    return bmat, KForm.from_matrix(g.n, k, basis_masks(g.n, k), extend_basis(bmat, d.kernel()))


def is_trivial(
    g: LieAlgebra, degrees: Sequence[int] = (3, 4)
) -> Tuple[bool, Optional[KForm]]:
    """True when b_k = 0 for every listed degree (``nonvanishing`` of the
    Betti table).

    On failure, also returns a witness: the first cocycle-basis vector that
    is not exact, in the first offending degree.  Degrees above n name zero
    groups."""
    # rank-only eliminations: cheaper than a basis per degree
    k = betti(g).nonvanishing(degrees)
    return (True, None) if k is None else (False, cohomology_basis(g, k)[0])


def kunneth_check(g: LieAlgebra, h: LieAlgebra) -> bool:
    """Betti numbers of a direct sum, from its full differentials, against
    the convolution of the summands' tables."""
    return direct_betti(g.direct_sum(h)).betti == _convolve(betti(g).betti, betti(h).betti)


# -- extended Cartan formula ----------------------------------------------


def random_cartan_pair(g: LieAlgebra, rng: random.Random) -> Tuple[KVector, KForm]:
    """A random s-vector p and r-form a, 1 <= s <= r <= n, with at most two and
    three basis terms and coefficients in -2..2, for cartan_identity_check."""
    if g.n < 1:
        raise ValueError(f"a Cartan pair needs dimension at least 1, got {g.n}")
    r = rng.randint(1, g.n)
    s = rng.randint(1, r)
    a = KForm(g.n, r, {
        m: rng.randint(-2, 2)
        for m in rng.sample(basis_masks(g.n, r), min(3, dim_lambda(g.n, r)))
    })
    p = KVector(g.n, s, {
        m: rng.randint(-2, 2)
        for m in rng.sample(basis_masks(g.n, s), min(2, dim_lambda(g.n, s)))
    })
    return p, a


def lie_derivative(g: LieAlgebra, x: KVector, a: KForm) -> KForm:
    """L_X a for a single vector X: the derivation of degree 0 with
    (L_X e^k)(Y) = -e^k([X, Y]), read from the brackets and not from d, so
    the Cartan formula L_X = X . d + d X . stays a check on it."""
    if x.degree != 1:
        raise ValueError("lie_derivative wants a vector")
    if x.n != g.n or a.n != g.n:
        raise DimensionMismatch(f"ambient dimensions differ: {x.n}, {a.n} vs {g.n}")
    xs = {mask.bit_length(): xi for mask, xi in x.terms.items()}
    images: Dict[int, Dict[int, Elem]] = {}  # k -> L_X e^k = -sum_j e^k([X, e_j]) e^j
    for (i, j), comp in g.brackets.items():
        # -e^k([X, e_j]) holds -x_i c^k_ij, and -e^k([X, e_i]) holds x_j c^k_ij
        for at, lead in ((j, -xs[i] if i in xs else None), (i, xs.get(j))):
            if lead is not None:
                for k, c in comp.items():
                    accumulate(images.setdefault(k, {}), 1 << (at - 1), lead * c)
    return derivation(a, images, 0)


def _hook_L(g: LieAlgebra, p: KVector, a: KForm) -> KForm:
    """The operator sum_i Q_{^i} . (L_{X_i} a), basis monomial by monomial."""
    s = p.degree
    acc: Dict[int, Elem] = {}
    for mask, coeff in p.terms.items():
        for pos, i in enumerate(indices_of(mask)):
            rest = mask ^ (1 << (i - 1))
            deriv = lie_derivative(g, KVector.basis(g.n, [i]), a)
            signed = coeff if pos % 2 == 0 else -coeff
            for m, c in contract(KVector._of(g.n, s - 1, {rest: ONE}), deriv).terms.items():
                accumulate(acc, m, signed * c)
    return KForm._of(g.n, a.degree - s + 1, acc)


def cartan_identity_check(g: LieAlgebra, p: KVector, a: KForm) -> bool:
    """p . da - (-1)^s d(p . a) == (.L)_p a - L(p) . a, sides built separately:
    the left from d_form, the right from lie_derivative and lie_L."""
    s = p.degree
    lhs = contract(p, d_form(g, a))
    da = d_form(g, contract(p, a))
    lhs = lhs - da if s % 2 == 0 else lhs + da
    rhs = _hook_L(g, p, a) - contract(g.lie_L(p), a)
    return (lhs - rhs).is_zero()
