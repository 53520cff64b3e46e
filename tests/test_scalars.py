"""Field arithmetic in Q and Q(sqrt d)."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lmmt.scalars import FieldError, Scalar, sc

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def test_rational_construction():
    assert Scalar(3).is_rational()
    assert Scalar(Fraction(3, 2)).a == Fraction(3, 2)
    assert Scalar.rational(Fraction(3, 2)) == Scalar(Fraction(3, 2))
    assert Scalar(0, 0, 5).is_zero()


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
    assert Scalar(2).inverse() == Scalar(Fraction(1, 2))
    x = Scalar(1, 1, 2)
    assert x * x.inverse() == Scalar(1)


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
    if not x.is_zero():
        assert x * x.inverse() == Scalar(1)


def test_complexity_orders_simple_first():
    assert Scalar(1).complexity() < Scalar(Fraction(97, 89)).complexity()


def test_radicand_square_factors_pulled_out():
    assert Scalar(2, -1, 4) == 0  # 2 - sqrt(4)
    assert Scalar(2, -1, 4).is_zero()
    assert Scalar(1, 1, 4).inverse() == Scalar(Fraction(1, 3))
    assert Scalar.parse("sqrt(4)") == 2
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)
    assert Scalar(0, 1, 8) + Scalar(0, 1, 2) == Scalar(0, 3, 2)
    assert Scalar(1, 1, 12).d == 3
