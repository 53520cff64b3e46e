"""Exact field elements a + b*sqrt(d) with rational a, b.

The field tag ``d`` is made square-free on construction (square factors move
into ``b``); ``d == 1`` means a plain rational (``b`` is folded into ``a``).
All arithmetic is exact, there is no floating point anywhere.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Tuple, Union

RationalLike = Union[int, Fraction, str]

_SQRT_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?P<b>(?:(?<=\d)\s*[+-]|[+-]?)\s*(?:\d+(?:/\d+)?\s*\*\s*)?sqrt\((?P<d>\d+)\))?\s*$"
)


class FieldError(ValueError):
    """Raised when scalars from incompatible quadratic fields are mixed."""


@functools.lru_cache(maxsize=32)
def _square_split(d: int) -> Tuple[int, int]:
    """(f, s) with d == f*f*s and s square-free, for d >= 1, by trial
    division; cached because every arithmetic result passes its d here."""
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


class Scalar:
    """An element a + b*sqrt(d) of Q(sqrt(d)), exact."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if d < 0:
            raise FieldError("field tag d must be non-negative")
        if d == 0:
            # sqrt(0) = 0
            b, d = Fraction(0), 1
        elif d > 1 and b:
            f, d = _square_split(d)
            if f != 1:
                b *= f
        if d == 1:
            a, b = a + b, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d if b != 0 else 1)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, x: RationalLike) -> "Scalar":
        return cls(_as_fraction(x))

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse "p/q" or "p/q+r/s*sqrt(d)" (also "-sqrt(3)", "1-1/2*sqrt(2)")."""
        m = _SQRT_RE.match(text)
        if not m or (m.group("a") is None and m.group("b") is None):
            raise ValueError(f"cannot parse scalar {text!r}")
        a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
        b = Fraction(0)
        d = 1
        if m.group("b"):
            d = int(m.group("d"))
            coef = m.group("b").split("sqrt")[0].replace("*", "").replace(" ", "")
            if coef in ("", "+"):
                b = Fraction(1)
            elif coef == "-":
                b = Fraction(-1)
            else:
                b = Fraction(coef)
        return cls(a, b, d)

    # -- helpers -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def _join(self, other: "Scalar") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise FieldError(f"mixing sqrt({self.d}) and sqrt({other.d})")
        return self.d

    @staticmethod
    def _coerce(x: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(_as_fraction(x))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        d = self._join(other)
        return Scalar(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._join(other)
        return Scalar(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar is zero")
        norm = self.a * self.a - self.b * self.b * self.d
        # norm = 0 with (a, b) != 0 would mean sqrt(d) rational; d is
        # square-free, so then d == 1 and b == 0 already.
        return Scalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    # size metric used for pivot selection
    def complexity(self) -> int:
        return (
            self.a.numerator.bit_length()
            + self.a.denominator.bit_length()
            + self.b.numerator.bit_length()
            + self.b.denominator.bit_length()
        )

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        bpart = "" if abs(self.b) == 1 else f"{abs(self.b)}*"
        sign = "+" if self.b > 0 else "-"
        if self.a == 0:
            sign = "" if self.b > 0 else "-"
            return f"{sign}{bpart}sqrt({self.d})"
        return f"{self.a}{sign}{bpart}sqrt({self.d})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def sc(x: Union[Scalar, RationalLike]) -> Scalar:
    """Shorthand coercion to Scalar."""
    return Scalar._coerce(x)
