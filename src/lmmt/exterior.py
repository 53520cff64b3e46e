"""Exterior algebra over a fixed n-dimensional basis.

Multi-indices are bitmasks over basis indices 1..n (bit i-1 represents
basis index i); signs are computed on the fly from popcounts of lower
bits.  Forms (KForm) live on the dual basis e^1..e^n, multivectors
(KVector) on E_1..E_n; both share the same sparse mask -> field element
layout (``scalars.Elem``).
"""

from __future__ import annotations

import json
from math import comb
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Type, TypeVar

from .linalg import Matrix
from .scalars import ZERO, Elem, Scalar, radicand, sc


class DimensionMismatch(ValueError):
    pass


class DegreeError(ValueError):
    pass


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def json_as(value, kind: type, name: str):
    """value when its JSON type is kind (int, str, list or dict; a boolean is
    not an int), else ValueError naming the input."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return value


def json_field(data: dict, key: str, kind: type, name: str):
    """data[key] checked by json_as, or ValueError naming the missing field."""
    if key not in data:
        raise ValueError(f"missing {name}")
    return json_as(data[key], kind, name)


def parse_int(text: str, name: str) -> int:
    """The integer text spells as an optional "-" and ASCII digits (no
    sign "+", space, "_" or other digits), or ValueError naming the input."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(text)


# -- mask utilities --------------------------------------------------------


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        bit = 1 << (i - 1)
        if m & bit:
            raise ValueError(f"repeated index {i}")
        m |= bit
    return m


def indices_of(mask: int) -> List[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def wedge_sign(a: int, b: int) -> int:
    """Sign of merging e_a (ascending) followed by e_b into ascending order.

    Counts, for each index in a, the indices of b below it: one popcount per
    bit of a, so a short a is cheap whatever the length of b."""
    sign = 0
    while a:
        low = a & -a
        sign += (b & (low - 1)).bit_count()
        a ^= low
    return -1 if sign % 2 else 1


def basis_masks(n: int, k: int) -> List[int]:
    """Canonical (bitmask-ordered) basis of degree k over n indices."""
    return list(iter_masks(n, k))


def iter_masks(n: int, k: int) -> Iterator[int]:
    """The masks of ``basis_masks(n, k)``, in order, one at a time.

    Gosper's hack steps from each k-bit mask to the next larger one, so the
    cost is C(n, k), not 2^n."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    m, end = (1 << k) - 1, 1 << n
    while m < end:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | ((m ^ ripple) >> 2) // low


_E = TypeVar("_E", bound="AltElement")


def accumulate(acc: Dict[int, Elem], m: int, c: Elem) -> None:
    """acc[m] += c, dropping the entry when the sum cancels."""
    if m in acc:
        c = acc[m] + c
        if not c:
            del acc[m]
            return
    acc[m] = c


class AltElement:
    """Common sparse container for forms and multivectors.

    An element is checked once, where it enters the program: ``__init__``
    coerces every coefficient with ``sc``, drops the zeros and rejects a mask
    of the wrong degree, and it is the only public way in (``from_json``,
    ``basis``, ``from_terms``, ``from_vector`` and user code go through it).
    The products of checked elements (``wedge``, ``+``, ``-``, ``scale``,
    ``contract``, ``derivation``, ``hodge_star``, ``lie_L``) drop the sums that
    cancel as they go and return through ``_of``, which checks nothing."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: Dict[int, object]):
        clean = {}
        for m, c in terms.items():
            c = sc(c)
            if m.bit_count() != degree:
                raise ValueError(f"mask {m:b} has wrong degree (expected {degree})")
            if c:
                clean[m] = c
        # degrees beyond n only name the zero module
        if degree < 0 or (degree > n and clean):
            raise DegreeError(f"degree {degree} out of range for n={n}")
        self.n = n
        self.degree = degree
        self.terms = clean

    @classmethod
    def _of(cls: Type[_E], n: int, degree: int, terms: Dict[int, Elem]) -> _E:
        """The element with these terms, unchecked: every coefficient must
        already be a nonzero field element on a mask of popcount degree."""
        self = object.__new__(cls)
        self.n = n
        self.degree = degree
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls: Type[_E], n: int, degree: int) -> _E:
        return cls(n, degree, {})

    @classmethod
    def basis(cls: Type[_E], n: int, indices: Sequence[int], coeff=1) -> _E:
        m = mask_of(indices)
        return cls(n, len(indices), {m: sc(coeff)})

    @classmethod
    def from_terms(cls: Type[_E], n: int, terms: Iterable[Tuple[Sequence[int], object]]) -> _E:
        acc: Dict[int, Elem] = {}
        degree = None
        for idx, coeff in terms:
            m = mask_of(idx)
            if degree is None:
                degree = m.bit_count()
            acc[m] = acc.get(m, ZERO) + sc(coeff)
        return cls(n, degree if degree is not None else 0, acc)

    # -- algebra -----------------------------------------------------------

    def _check_compat(self, other: "AltElement"):
        if self.n != other.n:
            raise DimensionMismatch(f"ambient dimensions differ: {self.n} vs {other.n}")
        if type(self) is not type(other):
            raise TypeError("cannot combine forms and multivectors")

    def __add__(self: _E, other: _E) -> _E:
        self._check_compat(other)
        if self.degree != other.degree:
            if not self.terms:
                return other
            if not other.terms:
                return self
            raise DegreeError("degree mismatch in sum")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(acc, m, c)
        return type(self)._of(self.n, self.degree, acc)

    def __neg__(self: _E) -> _E:
        return type(self)._of(self.n, self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self: _E, other: _E) -> _E:
        return self + (-other)

    def scale(self: _E, c) -> _E:
        c = sc(c)
        terms = {m: c * v for m, v in self.terms.items()} if c else {}
        return type(self)._of(self.n, self.degree, terms)

    def wedge(self: _E, other: _E) -> _E:
        """Graded-commutative product, of degree self.degree + other.degree;
        past n every pair of masks overlaps, and the product is the zero
        element of that degree."""
        self._check_compat(other)
        deg = self.degree + other.degree
        acc: Dict[int, Elem] = {}
        # with one term on either side the products land on distinct masks, and
        # a product of non-zero field elements is non-zero: nothing to add up
        single = len(self.terms) == 1 or len(other.terms) == 1
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                c = ca * cb
                c = c if wedge_sign(ma, mb) > 0 else -c
                if single:
                    acc[ma | mb] = c
                else:
                    accumulate(acc, ma | mb, c)
        return type(self)._of(self.n, deg, acc)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.terms == other.terms
            and (self.degree == other.degree or not self.terms)
        )

    def is_zero(self) -> bool:
        return not self.terms

    # -- coordinates -------------------------------------------------------

    @classmethod
    def from_vector(cls: Type[_E], n: int, degree: int, masks: Sequence[int], v: Sequence) -> _E:
        return cls(n, degree, {m: x for m, x in zip(masks, v) if x})

    @classmethod
    def from_matrix(cls: Type[_E], n: int, degree: int, masks: Sequence[int],
                    mat: Matrix) -> List[_E]:
        """One element per column of mat, whose row i is the coefficient of
        masks[i]; a Matrix holds only nonzero field elements, so nothing is
        checked again."""
        cols: List[Dict[int, Elem]] = [{} for _ in range(mat.cols)]
        for (i, j), x in mat.entries.items():
            cols[j][masks[i]] = x
        return [cls._of(n, degree, terms) for terms in cols]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "terms": {
                ",".join(str(i) for i in indices_of(m)): str(c)
                for m, c in sorted(self.terms.items())
            },
        }

    @classmethod
    def from_json(cls: Type[_E], data: dict) -> _E:
        n = json_field(json_as(data, dict, "a form"), "n", int, "n")
        if n < 0:
            raise ValueError(f"dimension {n} is negative")
        terms = {}
        for key, val in json_as(data.get("terms", {}), dict, "terms").items():
            idx = [parse_int(t, f"index in term {key!r}") for t in key.split(",")] if key else []
            bad = [i for i in idx if not 1 <= i <= n]
            if bad:
                raise ValueError(f"index {bad[0]} in term {key!r} is outside 1..{n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"indices in term {key!r} must increase")
            mask = mask_of(idx)
            if mask in terms:
                raise ValueError(f"term {key!r} repeats an earlier term")
            terms[mask] = Scalar.parse(json_as(val, str, f"coefficient of term {key!r}"))
        radicand(terms.values(), "form coefficients")
        return cls(n, json_field(data, "degree", int, "degree"), terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            # indices run together only up to n = 9, as in to_salamon's pairs
            idx = [str(i) for i in indices_of(m)]
            label = "1" if not m else "e" + ("".join(idx) if self.n <= 9 else f"[{','.join(idx)}]")
            parts.append(f"({c})*{label}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self}]"


class KForm(AltElement):
    """Alternating form on the dual basis e^1..e^n."""


class KVector(AltElement):
    """Multivector on the basis E_1..E_n."""


def coordinate_matrix(elements: Sequence[AltElement], masks: Sequence[int]) -> Matrix:
    """The matrix whose column j holds the coefficients of elements[j], row i
    that of masks[i]; terms on masks not listed are left out."""
    row = {m: i for i, m in enumerate(masks)}
    return Matrix(len(masks), len(elements), {
        (row[m], j): c for j, a in enumerate(elements) for m, c in a.terms.items() if m in row})


def contract(p: KVector, a: KForm) -> KForm:
    """Partial evaluation (p .| a)(Y...) = a(X_1..X_s, Y...)."""
    if not isinstance(p, KVector) or not isinstance(a, KForm):
        raise TypeError("contract expects (KVector, KForm)")
    if p.n != a.n:
        raise DimensionMismatch(f"ambient dimensions differ: {p.n} vs {a.n}")
    if p.degree > a.degree:
        raise DegreeError(f"cannot contract degree {p.degree} into degree {a.degree}")
    acc: Dict[int, Elem] = {}
    for mp, cp in p.terms.items():
        for ma, ca in a.terms.items():
            if mp & ma != mp:
                continue
            # e^ma = +-e^mp ^ e^rest, and e^mp takes the s vectors front to back
            rest = ma ^ mp
            c = cp * ca
            accumulate(acc, rest, c if wedge_sign(mp, rest) > 0 else -c)
    return KForm._of(a.n, a.degree - p.degree, acc)


def contraction_matrix(a: KForm) -> Matrix:
    """The matrix of X -> X .| a: column i - 1 holds e_i .| a on ``basis_masks(n,
    k - 1)``, k = deg a, so a 0-form gives 0 x n.  e^I = +-e^i ^ e^{I - i} for
    each i in I: a term gives one entry per index, and no two entries meet."""
    row = {m: t for t, m in enumerate(iter_masks(a.n, a.degree - 1))}
    entries: Dict[Tuple[int, int], Elem] = {}
    for mask, c in a.terms.items():
        for i in indices_of(mask):
            rest = mask ^ (1 << (i - 1))
            entries[(row[rest], i - 1)] = c if wedge_sign(1 << (i - 1), rest) > 0 else -c
    return Matrix._of(len(row), a.n, entries)


def derivation(a: KForm, images: Dict[int, Dict[int, Elem]], shift: int) -> KForm:
    """D a for the derivation D of degree shift whose D e^i has the terms
    images[i], masks of degree shift + 1 (0 where i is missing).

    D(a ^ b) = Da ^ b + (-1)^(shift deg a) a ^ Db gives, for every shift,
    D e^I = sum_{i in I} (-1)^pos(i) D(e^i) ^ e^{I - i}, pos(i) the number
    of indices of I below i: the cost grows with the terms, not with n."""
    acc: Dict[int, Elem] = {}
    for mask, coeff in a.terms.items():
        for i in indices_of(mask):
            rest = mask ^ (1 << (i - 1))
            lead = coeff if wedge_sign(1 << (i - 1), rest) > 0 else -coeff
            for m, c in images.get(i, {}).items():
                if m & rest:
                    continue
                v = lead * c
                accumulate(acc, m | rest, v if wedge_sign(m, rest) > 0 else -v)
    return KForm._of(a.n, a.degree + shift, acc)


def hodge_star(a: KForm) -> KForm:
    """Hodge star for the standard orthonormal basis and orientation."""
    n = a.n
    if a.degree > n:
        raise DegreeError(f"degree {a.degree} out of range for n={n}")
    full = (1 << n) - 1
    # m -> full ^ m is one-to-one, so no two terms meet
    terms = {full ^ m: c if wedge_sign(m, full ^ m) > 0 else -c for m, c in a.terms.items()}
    return KForm._of(n, n - a.degree, terms)


def volume_form(n: int) -> KForm:
    return KForm.basis(n, list(range(1, n + 1)))


def dim_lambda(n: int, k: int) -> int:
    return comb(n, k)
