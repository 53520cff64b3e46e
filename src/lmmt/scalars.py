"""Exact field elements of Q and Q(sqrt(d)), with no floating point anywhere.

There is one element type, ``Elem = Fraction | Scalar``.  A rational value
is always a plain ``Fraction``; a ``Scalar`` is a + b*sqrt(d) with b != 0
and d > 1 square-free.  ``Scalar.parse`` and every ``Scalar`` arithmetic
result pass through one normaliser, ``_elem``, which returns the ``Fraction``
when the value is rational after square-splitting d.  Mixed arithmetic needs
no field object: ``Fraction`` returns ``NotImplemented`` for a ``Scalar``
operand, and the reflected ``Scalar`` method runs.

``Scalar(x)`` of a rational x still constructs, as an input spelling with
b == 0; ``sc`` and every operation on it give the ``Fraction``.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

RationalLike = Union[int, Fraction, str]

# an unsigned rational in ASCII digits: every text input reads its rationals so
RATIONAL = r"[0-9]+(?:/[0-9]+)?"
# a, or [b*]sqrt(d) with an optional sign, or a then a signed [b*]sqrt(d)
_SCALAR = re.compile(
    rf"\s*(?P<a>[+-]?{RATIONAL})?\s*"
    rf"(?:(?P<sign>(?(a)[+-]|[+-]?))\s*(?:(?P<b>{RATIONAL})\s*\*\s*)?sqrt\((?P<d>[0-9]+)\)\s*)?"
)

ZERO, ONE = Fraction(0), Fraction(1)

# the largest radicand d read: square-splitting d by trial division takes
# about sqrt(d) steps
MAX_RADICAND = 10 ** 12


class FieldError(ValueError):
    """Raised when scalars from incompatible quadratic fields are mixed."""


@functools.lru_cache(maxsize=32)
def _square_split(d: int) -> Tuple[int, int]:
    """(f, s) with d == f*f*s and s square-free, for d >= 1, by trial
    division; cached because every Scalar passes its d here."""
    f, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            f *= p
        p += 1
    return f, d


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _canonical(a: Fraction, b: Fraction, d: int) -> Tuple[Fraction, Fraction, int]:
    """(a', b', d') naming the same value a + b*sqrt(d): b' != 0 with d' > 1
    square-free, or b' == 0 with d' == 1; FieldError for d < 0 or, with
    b != 0, d > ``MAX_RADICAND``."""
    if d < 0:
        raise FieldError("field tag d must be non-negative")
    if not b or d == 0:  # sqrt(0) = 0
        return a, ZERO, 1
    if d > MAX_RADICAND:
        raise FieldError(f"radicand {d} is above 10^12")
    f, d = _square_split(d)
    if d == 1:
        return a + b * f, ZERO, 1
    return a, (b * f if f != 1 else b), d


def _elem(a: Fraction, b: Fraction, d: int) -> "Elem":
    """The field element a + b*sqrt(d): its Fraction when it is rational,
    else a Scalar."""
    a, b, d = _canonical(a, b, d)
    return Scalar(a, b, d) if b else a


class Scalar:
    """An element a + b*sqrt(d) of Q(sqrt(d)), exact; every Scalar the
    library makes has b != 0 and d > 1 square-free."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        a, b, d = _canonical(_as_fraction(a), _as_fraction(b), d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    @classmethod
    def parse(cls, text: str) -> "Elem":
        """Parse "p/q" or "p/q+r/s*sqrt(d)" (also "-sqrt(3)", "1-1/2*sqrt(2)");
        a rational value comes back as a Fraction.  After a rational part the
        radical takes its own sign, so "2sqrt(3)" is a ValueError."""
        m = _SCALAR.fullmatch(text)
        if not m or not (m["a"] or m["d"]):
            raise ValueError(f"cannot parse scalar {text!r}")
        try:
            a, b = Fraction(m["a"] or 0), Fraction(m["b"] or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None
        return _elem(a, -b if m["sign"] == "-" else b, int(m["d"])) if m["d"] else a

    def _join(self, other: "Scalar") -> int:
        if not self.b:
            return other.d
        if not other.b:
            return self.d
        if self.d != other.d:
            raise FieldError(f"mixing sqrt({self.d}) and sqrt({other.d})")
        return self.d

    # -- arithmetic: the operand is a Scalar, an int or a Fraction -----------

    def __add__(self, other):
        if isinstance(other, Scalar):
            return _elem(self.a + other.a, self.b + other.b, self._join(other))
        if isinstance(other, (int, Fraction)):
            return _elem(self.a + other, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _elem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return _elem(self.a - other.a, self.b - other.b, self._join(other))
        if isinstance(other, (int, Fraction)):
            return _elem(self.a - other, self.b, self.d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _elem(other - self.a, -self.b, self.d)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Scalar):
            d = self._join(other)
            return _elem(
                self.a * other.a + self.b * other.b * d,
                self.a * other.b + self.b * other.a,
                d,
            )
        if isinstance(other, (int, Fraction)):
            return _elem(self.a * other, self.b * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Elem":
        if not self:
            raise ZeroDivisionError("scalar is zero")
        # the norm is nonzero: sqrt(d) is irrational for square-free d > 1
        norm = self.a * self.a - self.b * self.b * self.d
        return _elem(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return _elem(self.a / other, self.b / other, self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.b) or bool(self.a)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        bpart = "" if abs(self.b) == 1 else f"{abs(self.b)}*"
        sign = "+" if self.b > 0 else "-"
        if self.a == 0:
            sign = "" if self.b > 0 else "-"
            return f"{sign}{bpart}sqrt({self.d})"
        return f"{self.a}{sign}{bpart}sqrt({self.d})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


Elem = Union[Fraction, Scalar]


def radicand(values: Iterable[Elem], what: str) -> Optional[int]:
    """The d of the one Q(sqrt d) that holds every value, None when all are
    rational; FieldError naming what when two fields mix."""
    d = None
    for x in values:
        if isinstance(x, Scalar):
            if d not in (None, x.d):
                raise FieldError(f"{what} mix Q(sqrt {d}) and Q(sqrt {x.d})")
            d = x.d
    return d


def sc(x: Union[Scalar, RationalLike]) -> Elem:
    """Coercion to a field element: a Fraction for any rational value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Scalar):
        return x if x.b else x.a
    return _as_fraction(x)


def shared(seen: Dict[tuple, Elem], x: Elem) -> Elem:
    """x, or the element equal to it that seen already holds: equal values
    built apart end up as one object (elements are immutable).  seen is
    keyed by the integer parts of x, which hash far faster than x."""
    if isinstance(x, Scalar):
        return seen.setdefault((x.a.as_integer_ratio(), x.b.as_integer_ratio(), x.d), x)
    return seen.setdefault(x.as_integer_ratio(), x)
