"""Lie algebras by structure constants.

Sign convention (fixed throughout): a listed differential "de^k = e^i
wedge e^j" means (d gamma)(X, Y) = -gamma([X, Y]), hence stores
[e_i, e_j] = -e_k.  All computed dimensions are invariant under the
opposite convention.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exterior import (KForm, KVector, accumulate, basis_masks, derivation, indices_of, json_as,
                       json_field, parse_int)
from .linalg import Matrix
from .scalars import ONE, RATIONAL, ZERO, Elem, Scalar, radicand, sc, shared

Brackets = Dict[Tuple[int, int], Dict[int, Elem]]


class JacobiError(ValueError):
    def __init__(self, triple: Tuple[int, int, int]):
        self.triple = triple
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class LeibnizError(ValueError):
    def __init__(self, pair: Tuple[int, int]):
        self.pair = pair
        super().__init__(f"Leibniz rule fails on basis pair {pair}")


class SalamonSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class LieAlgebra:
    """Finite-dimensional Lie algebra with exact structure constants.

    brackets maps (i, j) with i < j to the sparse component vector of
    [e_i, e_j]; antisymmetry is implicit in the storage.  Component indices
    lie in 1..n, and the constants lie in one field, Q or one Q(sqrt d)
    (else FieldError); ``radicand`` is that d, None for Q.

    ``bracket_images`` holds one (pair, support, image) per stored bracket
    (i, j), in the order of ``brackets``: the mask of e_i and e_j, the mask
    of the components of [e_i, e_j], and [e_i, e_j] as a vector; read only.
    The loop that cleans the brackets fills it: a second walk would cost
    more than ``lie_L`` saves on small algebras that it maps only a few
    rows of.  An integral constant is stored in the image as its ``int``, so
    ``lie_L`` on an ``int`` basis row (``ce_differential``) multiplies ints;
    a non-integral one stays a ``Fraction`` and one in Q(sqrt d) a
    ``Scalar``, and ``brackets`` keeps every constant as a field element.
    """

    def __init__(self, n: int, brackets: Brackets, validate: bool = True):
        if n < 0:
            raise ValueError(f"dimension {n} is negative")
        self.n = n
        clean: Brackets = {}
        images: List[Tuple[int, int, KVector]] = []
        seen: Dict[tuple, Elem] = {}
        for (i, j), comp in brackets.items():
            if not (1 <= i < j <= n):
                raise ValueError(f"bad bracket key ({i},{j})")
            kept, vec, support = {}, {}, 0
            for k, c in comp.items():
                if not 1 <= k <= n:
                    raise ValueError(f"bad component index {k} in bracket ({i},{j}), "
                                     f"expected 1..{n}")
                x = sc(c)
                if x:
                    bit = 1 << (k - 1)
                    kept[k] = x = shared(seen, x)
                    vec[bit] = x.numerator if type(x) is Fraction and x.denominator == 1 else x
                    support |= bit
            if kept:
                clean[(i, j)] = kept
                images.append(((1 << (i - 1)) | (1 << (j - 1)), support, KVector._of(n, 1, vec)))
        self.brackets = clean
        self.bracket_images = tuple(images)
        self.radicand = radicand((c for comp in clean.values() for c in comp.values()),
                                 "structure constants")
        if validate:
            bad = self.jacobi_check()
            if bad is not None:
                raise JacobiError(bad)

    # -- bracket evaluation ------------------------------------------------

    def bracket_columns(self, us: Matrix, vs: Matrix, pairs: Sequence[Tuple[int, int]]) -> Matrix:
        """Column t holds the coordinates of [u_i, v_j] for the t-th pair
        (i, j), u_i a column of us and v_j one of vs; the columns are read as
        vectors, whose term on E_k has the mask with bit k - 1."""
        masks = basis_masks(self.n, 1)
        xs, ys = KVector.from_matrix(self.n, 1, masks, us), KVector.from_matrix(self.n, 1, masks, vs)
        entries: Dict[Tuple[int, int], Elem] = {}
        for t, (i, j) in enumerate(pairs):
            for mi, ci in xs[i].terms.items():
                for mj, cj in ys[j].terms.items():
                    a, b = mi.bit_length(), mj.bit_length()
                    # [e_a, e_b] = -[e_b, e_a]: the sign rides on the product
                    x = ci * cj if a < b else -(ci * cj)
                    for k, c in self.brackets.get((min(a, b), max(a, b)), {}).items():
                        entries[(k - 1, t)] = entries.get((k - 1, t), ZERO) + x * c
        return Matrix(self.n, len(pairs), entries)

    def is_unimodular(self) -> bool:
        """True when tr ad(e_i) = sum_j c^j_{ij} vanishes for every i.

        Read straight from the brackets: the component j of [e_i, e_j]
        adds to tr ad(e_i), and its component i subtracts from tr ad(e_j)."""
        trace: Dict[int, Elem] = {}
        for (i, j), comp in self.brackets.items():
            if j in comp:
                trace[i] = trace.get(i, ZERO) + comp[j]
            if i in comp:
                trace[j] = trace.get(j, ZERO) - comp[i]
        return not any(trace.values())

    def inner_torus(self) -> Dict[int, Dict[int, Elem]]:
        """t -> {o: w_t(o)} for each basis element e_t whose ad is diagonal
        and non-zero: [e_t, e_o] = w_t(o) e_o for every o.

        Read straight from the brackets: a bracket (i, j) keeps e_i diagonal
        only when its sole component is j, and e_j only when it is i.  Two
        such elements commute, since [e_t, e_s] is a multiple of e_s and of
        e_t at once."""
        weights: Dict[int, Dict[int, Elem]] = {}
        mixed = set()
        for (i, j), comp in self.brackets.items():
            only = next(iter(comp)) if len(comp) == 1 else None
            if only == j:
                weights.setdefault(i, {})[j] = comp[j]
            else:
                mixed.add(i)
            if only == i:
                weights.setdefault(j, {})[i] = -comp[i]
            else:
                mixed.add(j)
        return {t: weights[t] for t in sorted(weights) if t not in mixed}

    def diagonal_derivations(self) -> Dict[int, Dict[int, Fraction]]:
        """A basis of the torus of diagonal derivations D = diag(w), as
        t -> {o: w_t(o)} for t = 1..rank, in the shape of ``inner_torus``.

        D is a derivation exactly when w_i + w_j = w_k for every c^k_ij != 0,
        so the torus is the kernel over Q of that integer system.  One pass
        over the brackets first reads the weights it forces to zero: c^i_ij
        != 0 gives w_j = 0, and c^k_ij, c^j_ik both != 0 give 2 w_i = 0.  The
        kernel is taken on the other weights only."""
        zero = set()
        for (i, j), comp in self.brackets.items():
            for k in comp:
                if k == i or k == j:
                    zero.add(i + j - k)
                    continue
                if j in self.brackets.get((min(i, k), max(i, k)), ()):
                    zero.add(i)
                if i in self.brackets.get((min(j, k), max(j, k)), ()):
                    zero.add(j)
        free = [o for o in range(1, self.n + 1) if o not in zero]
        if not free:
            return {}
        col = {o: c for c, o in enumerate(free)}
        signs = (ONE, -ONE, -ONE)  # w_k - w_i - w_j
        equations: Dict[tuple, None] = {}  # each distinct equation once, in order
        for (i, j), comp in self.brackets.items():
            for k in comp:
                if k == i or k == j:  # w_k cancels, and the other weight is zero
                    continue
                eq = tuple(sorted((col[o], s) for o, s in zip((k, i, j), signs) if o in col))
                if eq:
                    equations[eq] = None
        kernel = Matrix._of(len(equations), len(free), {
            (r, c): s for r, eq in enumerate(equations) for c, s in eq}).kernel()
        torus: Dict[int, Dict[int, Fraction]] = {t: {} for t in range(1, kernel.cols + 1)}
        for (r, t), x in kernel.entries.items():
            torus[t + 1][free[r]] = x
        return torus

    def components(self) -> List[List[int]]:
        """The finest split of 1..n into parts whose spans are commuting
        ideals, read from the brackets in one union-find pass.

        i and j join when [e_i, e_j] != 0, and so does each component index
        k of [e_i, e_j] with i.  For i in a part P, every non-zero [e_i, e_j]
        then has j and all its components in P: span P is an ideal, and
        brackets across parts vanish.  Parts are increasing lists, ordered
        by their least index."""
        parent = list(range(self.n + 1))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for (i, j), comp in self.brackets.items():
            r = root(i)
            parent[root(j)] = r
            for k in comp:
                parent[root(k)] = r
        parts: Dict[int, List[int]] = {}
        for i in range(1, self.n + 1):
            parts.setdefault(root(i), []).append(i)
        return list(parts.values())

    def restrict(self, indices: Sequence[int]) -> "LieAlgebra":
        """The subalgebra spanned by e_i for the increasing indices, with
        e_i renumbered by its position 1..m.  The span must be closed under
        the bracket (ValueError otherwise), as every part of components()
        is; Jacobi is inherited, so it is not checked again."""
        pos = {i: p for p, i in enumerate(indices, start=1)}
        brackets: Brackets = {}
        for (i, j), comp in self.brackets.items():
            if i in pos and j in pos:
                if not comp.keys() <= pos.keys():
                    raise ValueError(f"[e{i}, e{j}] leaves the span of {list(indices)}")
                brackets[(pos[i], pos[j])] = {pos[k]: c for k, c in comp.items()}
        return LieAlgebra(len(pos), brackets, validate=False)

    @functools.cached_property
    def de(self) -> Dict[int, Dict[int, Elem]]:
        """i -> the terms of de^i = -sum_{j<l} c^i_{jl} e^{jl}, keyed by the
        mask of jl: the images that ``exterior.derivation`` extends to d.
        Built once per algebra, as its brackets never change; read only."""
        de: Dict[int, Dict[int, Elem]] = {}
        for (j, l), comp in self.brackets.items():
            pair = (1 << (j - 1)) | (1 << (l - 1))
            for i, c in comp.items():
                de.setdefault(i, {})[pair] = -c
        return de

    def jacobi_check(self) -> Optional[Tuple[int, int, int]]:
        """None if Jacobi holds; else the least failing basis triple i < j < k.

        Jacobi is d^2 = 0 on the generators: (d de^p)(e_i, e_j, e_k) is, up
        to sign, the e_p-component of the Jacobiator of e_i, e_j, e_k.  So
        the failing triples are the masks of the terms of d(de^p) over all p,
        and the least of them is the one a loop over all i < j < k would
        meet first."""
        de = self.de
        return min((tuple(indices_of(m)) for image in de.values()
                    for m in derivation(KForm._of(self.n, 2, image), de, 1).terms), default=None)

    # -- the bracket-extension map L --------------------------------------

    def lie_L(self, p: KVector) -> KVector:
        """L(Q) = sum_{i<j} [X_i, X_j] wedge Q_{^ij}, extended linearly.

        Walks ``bracket_images``, not every pair of indices in a mask: a
        bracket (i, j) acts on a mask that holds both bits, with the sign
        (-1)^{pos(i)+pos(j)} of their positions.  pos(j) = pos(i) + 1 + the
        number of mask bits between i and j, so the sign is -1 exactly when
        that number is even: one popcount."""
        if p.n != self.n:
            raise ValueError("multivector dimension mismatch")
        n, deg = self.n, p.degree - 2
        acc: Dict[int, Elem] = {}
        for mask, coeff in p.terms.items():
            neg = None  # -coeff, made at its first use
            for pair, support, image in self.bracket_images:
                if mask & pair != pair:
                    continue
                rest = mask ^ pair
                # components in rest wedge to zero; one at i or j does not
                if not support & ~rest:
                    continue
                # pair - 2 * (bit of i) has the bits from i up to below j
                between = (rest & (pair - 2 * (pair & -pair))).bit_count()
                if between & 1:
                    lead = coeff
                else:
                    neg = lead = neg or -coeff  # a field element is never 0
                rest_v = KVector._of(n, deg, {rest: lead})
                for m, c in image.wedge(rest_v).terms.items():
                    accumulate(acc, m, c)
        return KVector._of(n, max(p.degree - 1, 0), acc)

    # -- constructions -----------------------------------------------------

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        n = self.n + other.n
        brackets: Brackets = {k: dict(v) for k, v in self.brackets.items()}
        off = self.n
        for (i, j), comp in other.brackets.items():
            brackets[(i + off, j + off)] = {k + off: c for k, c in comp.items()}
        return LieAlgebra(n, brackets, validate=False)

    def to_json(self) -> dict:
        payload = [{"i": i, "j": j, "c": {str(k): str(c) for k, c in sorted(comp.items())}}
                   for (i, j), comp in sorted(self.brackets.items())]
        return {"dim": self.n, "brackets": payload, "field": {"sqrt": self.radicand or 1}}

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebra":
        """The algebra of a to_json payload; a bracket (i, j) or a component
        index listed twice, a missing field or a non-integer component index
        is a ValueError that names it."""
        data = json_as(data, dict, "an algebra")
        brackets: Brackets = {}
        for entry in json_as(data.get("brackets", []), list, "brackets"):
            entry = json_as(entry, dict, "a bracket")
            i = json_field(entry, "i", int, "bracket index i")
            j = json_field(entry, "j", int, "bracket index j")
            if (i, j) in brackets:
                raise ValueError(f"bracket ({i},{j}) is listed twice")
            c = json_field(entry, "c", dict, "bracket components c")
            brackets[(i, j)] = {
                parse_int(k, f"component index in bracket ({i},{j})"):
                    Scalar.parse(json_as(v, str, f"structure constant c[{k}]"))
                for k, v in c.items()}
            if len(brackets[(i, j)]) < len(c):
                raise ValueError(f"bracket ({i},{j}) lists a component index twice")
        return cls(json_field(data, "dim", int, "dim"), brackets)

    # -- Salamon notation --------------------------------------------------

    def to_salamon(self) -> str:
        """Serialize as the comma list of de^k expansions."""
        parts = []
        for k in range(1, self.n + 1):
            terms = []
            for (i, j), comp in sorted(self.brackets.items()):
                c = comp.get(k)
                if c is None:
                    continue
                coeff = -c  # de^k = -sum c^k_{ij} e^{ij}
                pair = f"{i}{j}" if self.n <= 9 else f"[{i},{j}]"
                if coeff == 1:
                    terms.append(f"+{pair}")
                elif coeff == -1:
                    terms.append(f"-{pair}")
                else:
                    sgn = "+"
                    if not isinstance(coeff, Scalar) and coeff < 0:
                        sgn, coeff = "-", -coeff
                    terms.append(f"{sgn}{coeff}.{pair}")
            if not terms:
                parts.append("0")
            else:
                joined = "".join(terms)
                parts.append(joined[1:] if joined.startswith("+") else joined)
        return ",".join(parts)

    def __repr__(self):
        return f"LieAlgebra({self.to_salamon()!r})"


# -- Salamon parser --------------------------------------------------------

# One term of a de^k expression: [sign] [coefficient "."] pair, with
# whitespace allowed between any two parts.  The first term (at \A) takes
# only "-" signs, a later one "+" or "-" and then any further "-"; the
# coefficient is a rational or a parameter name, the pair ij or [i,j].
PARAM_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM = re.compile(
    r"(?P<sign>(?:\A|(?!\A)\s*[+-])(?:\s*-)*)\s*"
    rf"(?:(?:(?P<rat>{RATIONAL})|(?P<name>{PARAM_NAME}))\s*\.\s*)?"
    r"(?P<pair>(?P<i>[0-9])(?P<j>[0-9])|\[\s*(?P<bi>[0-9]+)\s*,\s*(?P<bj>[0-9]+)\s*\])\s*"
)
# a parameter name, or a character that no term holds
_STRAY = re.compile(rf"(?P<name>{PARAM_NAME})|[^0-9\sA-Za-z_+\-./,\[\]]")


def parse_salamon(text: str, params: Optional[Dict[str, Fraction]] = None) -> LieAlgebra:
    """Parse Salamon notation like "0,12,2.13" into a validated algebra.

    params binds identifiers to explicit rationals.  Empty text is the
    0-dimensional algebra, which ``to_salamon`` writes as "".
    """
    if not text.strip():
        return LieAlgebra(0, {})
    exprs = _split_top(text)
    brackets: Brackets = {}
    for k, (expr, offset) in enumerate(exprs, start=1):
        for pair, c in _parse_expr(expr, offset, len(exprs), params or {}).items():
            brackets.setdefault(pair, {})[k] = -c
    return LieAlgebra(len(exprs), brackets)


def _split_top(text: str) -> List[Tuple[str, int]]:
    """The parts of text between commas outside [...], with their offsets."""
    out, start, depth = [], 0, 0
    for pos, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if ch == "," and not depth:
            out.append((text[start:pos], start))
            start = pos + 1
    out.append((text[start:], start))
    return out


def _parse_expr(expr, offset, n, params):
    """The two-form {(i, j): c}, i < j, of one expression, read one _TERM
    match at a time; a lone "0" is the empty expression."""
    if expr.strip() == "0":
        return {}
    terms: Dict[Tuple[int, int], Fraction] = {}
    pos = 0
    while pos < len(expr) or not terms:  # each term adds its pair to terms
        m = _TERM.match(expr, pos)
        if m is None:
            raise _unreadable(expr, pos, offset, params)
        if m["name"] and m["name"] not in params:
            raise SalamonSyntaxError(f"unbound parameter {m['name']!r}", offset + m.start("name"))
        try:
            c = Fraction(m["rat"] or params.get(m["name"], 1))
        except ZeroDivisionError:
            raise SalamonSyntaxError(f"zero denominator in {m['rat']!r}",
                                     offset + m.start("rat")) from None
        i, j = int(m["i"] or m["bi"]), int(m["j"] or m["bj"])
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise SalamonSyntaxError(f"bad index pair {i}{j}", offset + m.start("pair"))
        if (m["sign"].count("-") + (i > j)) % 2:
            c = -c
        pair = (min(i, j), max(i, j))
        terms[pair] = terms.get(pair, ZERO) + c
        pos = m.end()
    return {k: v for k, v in terms.items() if v}


def _unreadable(expr: str, pos: int, offset: int, params) -> SalamonSyntaxError:
    """The error for expr from pos on, where no _TERM matches: an empty
    expression, else the first unbound parameter or stray character, else
    the unread text."""
    rest = expr[pos:].lstrip()
    if not rest:
        return SalamonSyntaxError("empty expression", offset)
    at = offset + len(expr) - len(rest)
    for m in _STRAY.finditer(rest):
        if m["name"] not in params:
            kind = "unbound parameter" if m["name"] else "unexpected character"
            return SalamonSyntaxError(f"{kind} {m[0]!r}", at + m.start())
    return SalamonSyntaxError(f"expected [sign][coefficient.]pair, got {rest!r}", at)


# -- derivations -----------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """A derivation of parent, as the n x n matrix whose column j is T(e_j)."""

    parent: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        n = self.parent.n
        if (self.matrix.rows, self.matrix.cols) != (n, n):
            raise ValueError("derivation matrix has wrong shape")
        bad = self._leibniz_violation()
        if bad is not None:
            raise LeibnizError(bad)

    @classmethod
    def from_rows(cls, parent: LieAlgebra, rows: Sequence[Sequence]) -> "Derivation":
        if len(rows) != parent.n or any(len(r) != parent.n for r in rows):
            raise ValueError("derivation matrix has wrong shape")
        return cls(parent, Matrix.from_rows(rows))

    def _leibniz_violation(self) -> Optional[Tuple[int, int]]:
        """The least basis pair i < j with T[e_i, e_j] != [Te_i, e_j] +
        [e_i, Te_j], or None.

        T is a derivation exactly when its dual T* e^p = sum_j T[p, j] e^j,
        a derivation of degree 0, commutes with d on the 1-forms: the
        e^{ij}-coefficient of (d T* - T* d) e^p is, up to sign, the
        e_p-component of T[e_i, e_j] - [Te_i, e_j] - [e_i, Te_j]."""
        g = self.parent
        de = g.de
        dual: Dict[int, Dict[int, Elem]] = {}
        for (p, j), x in self.matrix.entries.items():
            dual.setdefault(p + 1, {})[1 << j] = x
        return min((tuple(indices_of(m)) for p in range(1, g.n + 1)
                    for m in (derivation(KForm._of(g.n, 1, dual.get(p, {})), de, 1)
                              - derivation(KForm._of(g.n, 2, de.get(p, {})), dual, 0)).terms),
                   default=None)

    def commutes_with(self, other: "Derivation") -> bool:
        return self.matrix @ other.matrix == other.matrix @ self.matrix


def grading_derivation(k: LieAlgebra, weights: Sequence[int]) -> Derivation:
    """Diagonal derivation from a positive grading; validates the grading."""
    if len(weights) != k.n or any(w <= 0 for w in weights):
        raise ValueError("need one positive weight per basis vector")
    for (i, j), comp in k.brackets.items():
        for m in comp:
            if weights[m - 1] != weights[i - 1] + weights[j - 1]:
                raise ValueError(
                    f"weights incompatible: [e{i},e{j}] has component e{m} "
                    f"of weight {weights[m - 1]} != {weights[i - 1] + weights[j - 1]}"
                )
    return Derivation(k, Matrix(k.n, k.n, {(i, i): w for i, w in enumerate(weights)}))


def extend_by_derivations(k: LieAlgebra, ds: Sequence[Derivation]) -> LieAlgebra:
    """Semidirect extension by an abelian algebra of 1 or 2 derivations.

    The new generators come first in the basis, so k's basis vector i
    becomes e_{len(ds)+i}."""
    if not 1 <= len(ds) <= 2:
        raise ValueError("supply one or two derivations")
    for d in ds:
        if d.parent is not k and d.parent.brackets != k.brackets:
            raise ValueError("derivation parent mismatch")
    if len(ds) == 2 and not ds[0].commutes_with(ds[1]):
        raise ValueError("the two derivations do not commute")
    p = len(ds)
    n = k.n + p
    brackets: Brackets = {}
    for (i, j), comp in k.brackets.items():
        brackets[(i + p, j + p)] = {m + p: c for m, c in comp.items()}
    for a, d in enumerate(ds, start=1):
        # column j of the matrix is [e_a, e_j] in k's numbering; by column,
        # so the brackets are stored in the order of a loop over j
        for (m, j), c in sorted(d.matrix.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            brackets.setdefault((a, j + 1 + p), {})[m + 1 + p] = c
    return LieAlgebra(n, brackets, validate=True)


# -- structural analysis ---------------------------------------------------


@dataclass
class StructuralReport:
    n: int
    derived_series_dims: List[int]
    lower_central_dims: List[int]
    solvable: bool
    nilpotent: bool
    unimodular: bool
    codim_derived: int
    derived_basis: Matrix = field(repr=False)  # g' as the columns of its RREF basis

    def to_json(self) -> dict:
        return {
            "derived_series": self.derived_series_dims,
            "lower_central_series": self.lower_central_dims,
            "solvable": self.solvable,
            "nilpotent": self.nilpotent,
            "unimodular": self.unimodular,
            "codim_derived": self.codim_derived,
        }


def _span_brackets(g: LieAlgebra, basis1: Matrix, basis2: Matrix) -> Matrix:
    """The RREF basis of the span of [u, v] over the columns u of basis1 and
    v of basis2, as the columns of a matrix."""
    pairs = list(itertools.product(range(basis1.cols), range(basis2.cols)))
    rows, _ = g.bracket_columns(basis1, basis2, pairs).transpose().rref()
    return Matrix(g.n, len(rows), {(j, r): x for r, row in enumerate(rows) for j, x in row.items()})


def structural_report(g: LieAlgebra) -> StructuralReport:
    full = Matrix.identity(g.n)
    dprime = _span_brackets(g, full, full)

    def series(step) -> List[Matrix]:
        """g, g', step(g'), ... while the dimension drops; no step from 0."""
        out, nxt = [full], dprime
        while nxt.cols < out[-1].cols:
            out.append(nxt)
            if nxt.cols:
                nxt = step(nxt)
        return out

    derived = series(lambda b: _span_brackets(g, b, b))
    lower = series(lambda b: _span_brackets(g, full, b))
    return StructuralReport(
        n=g.n,
        derived_series_dims=[b.cols for b in derived],
        lower_central_dims=[b.cols for b in lower],
        solvable=derived[-1].cols == 0,
        nilpotent=lower[-1].cols == 0,
        unimodular=g.is_unimodular(),
        codim_derived=g.n - dprime.cols,
        derived_basis=dprime,
    )


# -- builtins --------------------------------------------------------------


def _su2() -> LieAlgebra:
    return LieAlgebra(3, {(1, 2): {3: -2}, (2, 3): {1: -2}, (1, 3): {2: 2}})


_HALF = Fraction(1, 2)
# su(3) in the anti-Hermitian Gell-Mann basis X_a: [X_a, X_b] = f_abc X_c,
# f totally antisymmetric; the psu3 three-form is sum f_abc e^abc
SU3_STRUCTURE: Dict[Tuple[int, int, int], Elem] = {
    (1, 2, 3): ONE,
    (1, 4, 7): _HALF, (1, 5, 6): -_HALF, (2, 4, 6): _HALF, (2, 5, 7): _HALF,
    (3, 4, 5): _HALF, (3, 6, 7): -_HALF,
    (4, 5, 8): Scalar(0, _HALF, 3), (6, 7, 8): Scalar(0, _HALF, 3),
}


def _su3() -> LieAlgebra:
    brackets: Brackets = {}
    for (a, b, c), v in SU3_STRUCTURE.items():
        # totally antisymmetric in all three slots
        for (i, j, k), s in (
            ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
            ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
        ):
            if i < j:
                comp = brackets.setdefault((i, j), {})
                comp[k] = comp.get(k, ZERO) + (v if s > 0 else -v)
    return LieAlgebra(8, brackets)


def _upper_triangular(k: int, cartan: bool) -> LieAlgebra:
    """n+(sl_k), the strictly upper triangular k x k matrices, or with
    cartan the Borel subalgebra b = h + n+ of sl_k, from matrix units.

    The basis is H_a = E_aa - E_{a+1,a+1} for a = 1..k-1 (with cartan),
    then E_ij for i < j in lexicographic order; [E_ij, E_lm] =
    d_jl E_im - d_mi E_lj and [H_a, E_ij] = (H_a(i) - H_a(j)) E_ij.  With
    E_ij before E_lm only d_jl can be non-zero (m = i would put (l, m)
    before (i, j)), so the stored brackets are [E_ij, E_jm] = E_im."""
    if k < 1:
        raise ValueError(f"sl_k needs k >= 1, got {k}")
    h = k - 1 if cartan else 0
    unit = {(i, j): t for t, (i, j) in enumerate(
        ((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)), start=h + 1)}
    brackets: Brackets = {}
    for a in range(1, h + 1):
        for (i, j), t in unit.items():
            w = (i == a) - (i == a + 1) - (j == a) + (j == a + 1)
            if w:
                brackets[(a, t)] = {t: Fraction(w)}
    for (i, j), s in unit.items():
        for m in range(j + 1, k + 1):
            brackets[(s, unit[(j, m)])] = {unit[(i, m)]: ONE}
    return LieAlgebra(h + len(unit), brackets)


def builtin(name: str) -> LieAlgebra:
    """Named algebras: su2, su3, heisenberg, abelian:n, nplus:k (n+(sl_k),
    the strictly upper triangular k x k matrices) and borel:k (the Borel
    subalgebra h + n+ of sl_k, traceless upper triangular matrices)."""
    if name == "su2":
        return _su2()
    if name == "su3":
        return _su3()
    if name == "heisenberg":
        return parse_salamon("0,0,12")
    kind, colon, size = name.partition(":")
    if not colon or kind not in ("abelian", "nplus", "borel"):
        raise ValueError(f"unknown builtin algebra {name!r}")
    k = parse_int(size, f"the size in builtin {name!r}")
    return LieAlgebra(k, {}) if kind == "abelian" else _upper_triangular(k, kind == "borel")
