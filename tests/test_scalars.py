"""Field arithmetic in Q and Q(sqrt d)."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lmmt.cohomology import betti
from lmmt.liealg import parse_salamon
from lmmt.scalars import FieldError, Scalar, sc, shared

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def test_rational_construction():
    assert type(Scalar(3)) is Fraction and Scalar(3) == 3
    assert Scalar(Fraction(3, 2)) == Fraction(3, 2)
    assert sc(Fraction(3, 2)) == Scalar(Fraction(3, 2))
    assert Scalar(0, 0, 5) == 0 and not Scalar(0, 0, 5)
    assert Scalar(1, 1, 4) == 3


def test_sc_coercion():
    assert sc(2) == Scalar(2)
    assert sc(Fraction(1, 3)) == Scalar(Fraction(1, 3))
    assert sc(Scalar(1, 1, 2)) == Scalar(1, 1, 2)


def test_known_products():
    # (1 + sqrt 2)(1 - sqrt 2) = -1
    assert Scalar(1, 1, 2) * Scalar(1, -1, 2) == Scalar(-1)
    # (sqrt 3)^2 = 3
    assert Scalar(0, 1, 3) * Scalar(0, 1, 3) == Scalar(3)


def test_inverse_known():
    assert 1 / Scalar(2) == Scalar(Fraction(1, 2))
    x = Scalar(1, 1, 2)
    assert x * (1 / x) == Scalar(1)


def test_mixed_radicands_rejected():
    with pytest.raises(FieldError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    with pytest.raises(FieldError):
        Scalar(0, 1, 2) * Scalar(1, 1, 5)


def test_parse_format_round_trip():
    for text in ["3/2", "-5", "1+2*sqrt(3)", "sqrt(2)", "-1/2*sqrt(5)"]:
        x = Scalar.parse(text)
        assert Scalar.parse(str(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Scalar.parse("two")


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    x, y, z = Scalar(a), Scalar(b), Scalar(c)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x - x == Scalar(0)


@given(rationals, rationals, rationals, rationals)
def test_quadratic_field_axioms(a, b, c, d):
    x = Scalar(a, b, 2)
    y = Scalar(c, d, 2)
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    if x:
        assert x * (1 / x) == Scalar(1)


@given(rationals, rationals, rationals, rationals)
def test_results_are_fractions_exactly_when_rational(a, b, c, d):
    # x = a + b sqrt 2, y = c + d sqrt 2; the sqrt 2 part of each result,
    # from plain Fractions: x / y = x (c - d sqrt 2) / (c^2 - 2 d^2)
    x, y = Scalar(a, b, 2), Scalar(c, d, 2)
    results = {"+": (x + y, b + d), "-": (x - y, b - d), "*": (x * y, a * d + b * c)}
    if y:
        results["/"] = (x / y, b * c - a * d)
    for value, sqrt2_part in results.values():
        assert isinstance(value, Fraction) == (sqrt2_part == 0)
        assert isinstance(value, Fraction) or value.b != 0
    # the constructor itself: a + b sqrt(d) is rational when b = 0 or d is a square
    for radicand in (0, 2, 4, 8, 12):
        value = Scalar(a, b, radicand)
        assert isinstance(value, Fraction) == (b == 0 or radicand in (0, 4))
        assert isinstance(value, Fraction) or value.b != 0


def test_rational_betti_creates_no_scalar(monkeypatch):
    calls = []
    init = Scalar.__init__

    def counting_init(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    g = parse_salamon("0,0,12,13,14,15,16,17")  # filiform L_8
    assert betti(g).betti == [1, 2, 4, 8, 10, 8, 4, 2, 1]
    assert calls == []


def test_radicand_square_factors_pulled_out():
    assert Scalar(2, -1, 4) == 0  # 2 - sqrt(4)
    assert not Scalar(2, -1, 4)
    assert 1 / Scalar(1, 1, 4) == Scalar(Fraction(1, 3))
    assert Scalar.parse("sqrt(4)") == 2
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)
    assert Scalar(0, 1, 8) + Scalar(0, 1, 2) == Scalar(0, 3, 2)
    assert Scalar(1, 1, 12).d == 3


def test_parse_keeps_the_documented_values():
    assert Scalar.parse("2*sqrt(3)") == Scalar(0, 2, 3)
    assert Scalar.parse("1-sqrt(3)") == Scalar(1, -1, 3)
    assert Scalar.parse("+sqrt(2)") == Scalar(0, 1, 2)
    assert Scalar.parse("sqrt(12)") == Scalar(0, 2, 3)
    assert Scalar.parse(" 1 + 1/2 * sqrt(5) ") == Scalar(1, Fraction(1, 2), 5)
    assert Scalar.parse("-1/2") == Fraction(-1, 2)


def test_parse_reads_a_multi_digit_radical_coefficient_whole():
    """A coefficient of two or more digits is one number, not a rational part
    and a coefficient, so str and parse round-trip."""
    assert Scalar.parse("12*sqrt(3)") == Scalar(0, 12, 3)
    assert Scalar.parse("-21/2*sqrt(3)") == Scalar(0, Fraction(-21, 2), 3)
    for x in (Scalar(0, 12, 3), Scalar(0, -10, 2), Scalar(5, 11, 7)):
        assert Scalar.parse(str(x)) == x


def test_shared_keeps_one_object_per_value():
    seen = {}
    half = shared(seen, Fraction(1, 2))
    assert shared(seen, Fraction(2, 4)) is half
    root = shared(seen, Scalar(Fraction(1, 2), 1, 3))
    assert shared(seen, Scalar(Fraction(2, 4), Fraction(3, 3), 12 // 4)) is root
    # equal parts over another field, or the rational part alone, stay apart
    assert shared(seen, Scalar(Fraction(1, 2), 1, 2)) is not root
    assert shared(seen, Scalar(0, Fraction(1, 2), 3)) is not half
    assert shared(seen, Fraction(-1, 2)) is not half
    assert len(seen) == 5
