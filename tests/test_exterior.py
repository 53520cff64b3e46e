"""Exterior algebra over bitmask bases."""
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lmmt.exterior import (DegreeError, DimensionMismatch, KForm, KVector, basis_masks,
                           contract, contraction_matrix, coordinate_matrix, derivation,
                           dim_lambda, hodge_star, indices_of, iter_masks, mask_of, volume_form,
                           wedge_sign)
from lmmt.claims import CATALOG, NILPOTENT
from lmmt.cohomology import _hook_L, d_form, lie_derivative
from lmmt.forms import stabilizer_algebra
from lmmt.liealg import builtin, parse_salamon
from lmmt.linalg import Matrix
from lmmt.multimoment import Cocycle
from lmmt.scalars import ONE, Scalar


def test_mask_round_trip():
    for idx in [(1,), (1, 3), (2, 5, 7)]:
        assert indices_of(mask_of(idx)) == list(idx)


def test_dim_lambda():
    assert [dim_lambda(4, k) for k in range(5)] == [1, 4, 6, 4, 1]
    assert len(basis_masks(5, 2)) == 10


def test_basis_masks_are_the_filtered_masks():
    for n in range(13):
        for k in range(-1, n + 2):
            assert basis_masks(n, k) == [m for m in range(1 << n) if m.bit_count() == k]


def test_masks_on_the_first_m_indices_come_first():
    """basis_masks(n, k) starts with basis_masks(m, k): the masks ascend, so
    all those below 2^m come first, and restricting degree-k coordinates to
    the first m indices cuts after C(m, k) rows."""
    for n in range(11):
        for k in range(n + 2):
            masks = basis_masks(n, k)
            for m in range(n + 1):
                assert masks[:comb(m, k)] == basis_masks(m, k)


def test_wedge_sign_oracle():
    assert wedge_sign(mask_of((1,)), mask_of((2,))) == 1
    assert wedge_sign(mask_of((2,)), mask_of((1,))) == -1
    assert wedge_sign(mask_of((1, 3)), mask_of((2,))) == -1
    assert wedge_sign(mask_of((1, 2)), mask_of((3, 4))) == 1


def test_wedge_basic():
    e1 = KForm.basis(3, (1,))
    e2 = KForm.basis(3, (2,))
    assert e1.wedge(e2) == KForm.basis(3, (1, 2))
    assert e2.wedge(e1) == KForm.basis(3, (1, 2), -1)
    assert e1.wedge(e1).is_zero()


def test_wedge_past_the_dimension_keeps_its_degree():
    """A product of degree above n is the zero element of that degree: d of
    it is one degree up, and it is a 4-form where a 4-cocycle is asked for."""
    prod = KForm.basis(3, [1, 2]).wedge(KForm.basis(3, [1, 3]))
    assert prod.is_zero() and prod.degree == 4
    assert d_form(builtin("heisenberg"), prod).degree == 5
    assert Cocycle(4, prod).form == prod
    assert KVector.basis(2, [1]).wedge(KVector.basis(2, [1, 2])).degree == 3


def test_degree_beyond_dim_must_be_zero():
    assert KForm.zero(3, 4).is_zero()
    with pytest.raises(DegreeError):
        KForm.basis(3, (1, 2, 3, 4))


def test_contract_oracle():
    # e1 hook e12 = e2 ; e2 hook e12 = -e1
    w = KForm.basis(4, (1, 2))
    assert contract(KVector.basis(4, (1,)), w) == KForm.basis(4, (2,))
    assert contract(KVector.basis(4, (2,)), w) == KForm.basis(4, (1,), -1)
    # decomposable 2-vector against a 2-form evaluates the pairing
    p = KVector.basis(4, (1, 2))
    assert contract(p, w) == KForm.basis(4, ())


def test_hodge_star_oracle():
    assert hodge_star(KForm.basis(4, (1, 2))) == KForm.basis(4, (3, 4))
    assert hodge_star(KForm.basis(3, ())) == volume_form(3)
    # star star = (-1)^{k(n-k)} on degree k in dimension n
    a = KForm.basis(5, (1, 3))
    assert hodge_star(hodge_star(a)) == a


def test_vector_serialization_round_trip():
    masks = basis_masks(4, 2)
    a = KForm.basis(4, (1, 3), 2) + KForm.basis(4, (2, 4), -1)
    v = coordinate_matrix([a], masks).column(0)
    assert KForm.from_vector(4, 2, masks, v) == a
    assert KForm.from_json(a.to_json()) == a


def _random_form(rng, n, k):
    terms = []
    for idx in basis_masks(n, k):
        if rng.random() < 0.5:
            terms.append((indices_of(idx), rng.randint(-3, 3)))
    return KForm.from_terms(n, terms) if terms else KForm.zero(n, k)


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(7)
    n = 5
    for _ in range(40):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        a = _random_form(rng, n, p)
        b = _random_form(rng, n, q)
        c = _random_form(rng, n, 1)
        ba = b.wedge(a)
        if (p * q) % 2:
            ba = -ba
        assert a.wedge(b) == ba
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_contract_antiderivation():
    # x hook (a ^ b) = (x hook a) ^ b + (-1)^{deg a} a ^ (x hook b)
    rng = random.Random(11)
    n = 5
    for _ in range(40):
        x = KVector.basis(n, (rng.randint(1, n),))
        a = _random_form(rng, n, 2)
        b = _random_form(rng, n, 2)
        lhs = contract(x, a.wedge(b))
        rhs = contract(x, a).wedge(b) + a.wedge(contract(x, b))
        assert lhs == rhs


def test_from_json_checks_dimension_and_indices():
    assert KForm.from_json({"n": 3, "degree": 2, "terms": {"1,3": "2"}}) == KForm.basis(3, (1, 3), 2)
    for data in ({"n": -1, "degree": 0, "terms": {}},
                 {"n": 3, "degree": 2, "terms": {"1,5": "1"}},
                 {"n": 3, "degree": 1, "terms": {"0": "1"}},
                 {"n": "3", "degree": 1, "terms": {"1": "1"}},
                 {"n": 3.0, "degree": 1, "terms": {"1": "1"}},
                 {"n": True, "degree": 1, "terms": {"1": "1"}},
                 {"n": 3, "degree": "1", "terms": {"1": "1"}},
                 {"n": 3, "degree": 1.0, "terms": {"1": "1"}},
                 {"n": 3, "degree": 1, "terms": {"1": 1}},
                 {"n": 3, "degree": 1, "terms": [1]},
                 [1]):
        with pytest.raises(ValueError):
            KForm.from_json(data)


def test_from_json_names_a_misread_term():
    """A term key read out of order, twice or not as integers would change or
    drop a coefficient; each is a ValueError naming the key."""
    for terms, message in (({"2,1": "1"}, "indices in term '2,1' must increase"),
                           ({"1,2": "1", "2,1": "1"}, "indices in term '2,1' must increase"),
                           ({"1,1": "1"}, "indices in term '1,1' must increase"),
                           ({"1,2": "1", "01,2": "5"}, "term '01,2' repeats an earlier term"),
                           ({"1,x": "1"}, "index in term '1,x' must be an integer, got 'x'")):
        with pytest.raises(ValueError) as exc:
            KForm.from_json({"n": 2, "degree": 2, "terms": terms})
        assert str(exc.value) == message
    for data, field in (({"degree": 0}, "n"), ({"n": 2}, "degree")):
        with pytest.raises(ValueError, match=f"^missing {field}$"):
            KForm.from_json(data)


coeffs = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


@settings(max_examples=50)
@given(coeffs, coeffs)
def test_linearity_of_wedge(u, v):
    n = 3
    a = KForm.from_vector(n, 1, basis_masks(n, 1), [Scalar(x) for x in u])
    b = KForm.from_vector(n, 1, basis_masks(n, 1), [Scalar(x) for x in v])
    assert (a + b).wedge(a) == b.wedge(a)
    assert a.wedge(a + b) == a.wedge(b)


def _assert_checked(x):
    """x is what the checking constructor makes of its own terms: nonzero
    field elements (a Scalar only with b != 0) on masks of popcount degree."""
    for m, c in x.terms.items():
        assert c and isinstance(c, (Fraction, Scalar)) and (not isinstance(c, Scalar) or c.b)
        assert m.bit_count() == x.degree
    assert x == type(x)(x.n, x.degree, dict(x.terms))


PRODUCER_ALGEBRAS = ([parse_salamon(s) for s in CATALOG[:4] + NILPOTENT[:3]]
                     + [builtin("su2"), builtin("abelian:3")])
# few values, opposite pairs among them, so sums cancel often
cancelling = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                              Scalar(0, 1, 3), Scalar(0, -1, 3), Scalar(1, -1, 3)])


@st.composite
def elements(draw, kind, n, degree=None):
    k = draw(st.integers(0, n)) if degree is None else degree
    masks = draw(st.lists(st.sampled_from(basis_masks(n, k)), max_size=6, unique=True))
    coeffs = draw(st.lists(cancelling, min_size=len(masks), max_size=len(masks)))
    return kind(n, k, dict(zip(masks, coeffs)))


def _double_loop_wedge(a, b):
    """a ^ b as a double loop over both factors' terms that adds up every
    product, built through the checked constructor."""
    acc = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if not ma & mb:
                acc[ma | mb] = acc.get(ma | mb, 0) + wedge_sign(ma, mb) * ca * cb
    return type(a)(a.n, a.degree + b.degree, acc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_term_wedge_equals_the_double_loop(data):
    """wedge with one term on either side writes each product once, with no
    sum: it must equal the double loop, also past degree n, and still check
    the ambient dimension and the kind of its factors first."""
    kind = data.draw(st.sampled_from([KForm, KVector]))
    n = data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, n))
    one = kind(n, k, {data.draw(st.sampled_from(basis_masks(n, k))): data.draw(cancelling)})
    other = data.draw(elements(kind, n))
    a, b = (one, other) if data.draw(st.booleans()) else (other, one)
    product = a.wedge(b)
    assert product == _double_loop_wedge(a, b)
    assert product.degree == a.degree + b.degree
    assert product == kind(n, product.degree, dict(product.terms))
    with pytest.raises(DimensionMismatch):
        a.wedge(kind.basis(n + 1, [n + 1]))
    with pytest.raises(TypeError):
        b.wedge((KVector if kind is KForm else KForm)(n, 0, {0: 1}))


@st.composite
def images(draw, n, shift):
    """Images D e^i of degree shift + 1 for a random set of generators i, as
    the term dicts ``derivation`` reads."""
    return {i: draw(elements(KForm, n, shift + 1)).terms
            for i in draw(st.lists(st.integers(1, n), max_size=n, unique=True))}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_products_are_checked_elements(data):
    """Every producer that skips the checks returns what the checks would
    have made: no cancelled sum left as a zero, no mask of another degree."""
    g = data.draw(st.sampled_from(PRODUCER_ALGEBRAS))
    n = g.n
    a, b = data.draw(elements(KForm, n)), data.draw(elements(KForm, n))
    a2 = data.draw(elements(KForm, n, a.degree))
    p, q = data.draw(elements(KVector, n)), data.draw(elements(KVector, n))
    c = data.draw(st.one_of(cancelling, st.just(0)))
    shift = data.draw(st.sampled_from([0, 1]))
    results = [a.wedge(b), p.wedge(q), a.wedge(a), a + a2, a - a2, a - a, -a, -p,
               a.scale(c), p.scale(c), hodge_star(a), d_form(g, a), g.lie_L(p), g.lie_L(p - p),
               derivation(a, data.draw(images(n, shift)), shift)]
    if p.degree <= a.degree:
        results.append(contract(p, a))
    if 1 <= p.degree <= a.degree:
        results.append(_hook_L(g, p, a))
    masks = basis_masks(n, a.degree)
    coords = data.draw(st.lists(st.one_of(cancelling, st.just(0)),
                                min_size=3 * len(masks), max_size=3 * len(masks)))
    mat = Matrix.from_columns([coords[t::3] for t in range(3)], nrows=len(masks))
    for kind in (KForm, KVector):
        results += kind.from_matrix(n, a.degree, masks, mat)
        assert coordinate_matrix(results[-3:], masks) == mat
    for x in results:
        _assert_checked(x)
    hook = contraction_matrix(a)
    for x in hook.entries.values():
        assert x and isinstance(x, (Fraction, Scalar)) and (not isinstance(x, Scalar) or x.b)
    assert hook == Matrix(hook.rows, hook.cols, hook.entries)
    assert (a - a).is_zero() and a.scale(0).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derivation_is_a_graded_derivation(data):
    """D e^i is images[i], and D(a ^ b) = Da ^ b + (-1)^(shift deg a) a ^ Db
    against wedge, for shifts 0 and 1 and coefficients in Q and Q(sqrt 3)."""
    n = data.draw(st.integers(2, 6))
    shift = data.draw(st.sampled_from([0, 1]))
    ims = data.draw(images(n, shift))
    for i in range(1, n + 1):
        assert derivation(KForm.basis(n, [i]), ims, shift).terms == ims.get(i, {})
    a, b = data.draw(elements(KForm, n)), data.draw(elements(KForm, n))
    adb = a.wedge(derivation(b, ims, shift))
    rhs = derivation(a, ims, shift).wedge(b) + (-adb if shift * a.degree % 2 else adb)
    assert derivation(a.wedge(b), ims, shift) == rhs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lie_derivative_equals_the_cartan_formula(data):
    """L_X a from the brackets against the Cartan formula X . da + d(X . a),
    built from d; L_X of a 0-form is 0."""
    g = data.draw(st.sampled_from(PRODUCER_ALGEBRAS + [builtin("su3")]))
    x, a = data.draw(elements(KVector, g.n, 1)), data.draw(elements(KForm, g.n))
    got = lie_derivative(g, x, a)
    _assert_checked(got)
    if a.degree:
        assert got == contract(x, d_form(g, a)) + d_form(g, contract(x, a))
    else:
        assert got.is_zero() and got.degree == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contraction_matrix_columns_are_the_contractions(data):
    """Column i - 1 of contraction_matrix(a) is e_i .| a on the masks of
    degree k - 1; a 0-form has no slot to contract, and its matrix is 0 x n."""
    n = data.draw(st.integers(0, 6))
    alpha = data.draw(elements(KForm, n))
    k = alpha.degree
    hook = contraction_matrix(alpha)
    assert (hook.rows, hook.cols) == (dim_lambda(n, k - 1) if k else 0, n)
    if k:
        hooks = [contract(KVector.basis(n, [i]), alpha) for i in range(1, n + 1)]
        assert hook == coordinate_matrix(hooks, basis_masks(n, k - 1))
    else:
        assert not hook.entries


def test_contraction_matrix_rows_follow_iter_masks():
    """On e^I, column i - 1 of contraction_matrix has one entry, e_i .| e^I,
    on the row of I - i in iter_masks(n, k - 1), for every basis form on
    n <= 6."""
    for n in range(7):
        for k in range(1, n + 1):
            rows = list(iter_masks(n, k - 1))
            for mask in iter_masks(n, k):
                hook = contraction_matrix(KForm(n, k, {mask: 1}))
                assert hook.rows == len(rows)
                assert sorted(i for _, i in hook.entries) == [i - 1 for i in indices_of(mask)]
                for (t, i), x in hook.entries.items():
                    assert rows[t] == mask ^ 1 << i
                    assert contract(KVector.basis(n, [i + 1]), KForm(n, k, {mask: 1})).terms == {
                        rows[t]: x}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stabilizer_algebra_is_the_kernel_of_the_derivation_system(data):
    """stabilizer_algebra against the kernel of the system whose column
    (a, b) is the derivation sending e^a to e^b applied to alpha, over Q and
    Q(sqrt 3), degrees 0..n: E_ab has matrix entry (b, a)."""
    n = data.draw(st.integers(1, 6))
    alpha = data.draw(elements(KForm, n))
    keys = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    system = coordinate_matrix([derivation(alpha, {a: {1 << (b - 1): ONE}}, 0) for a, b in keys],
                               basis_masks(n, alpha.degree))
    kernel = system.kernel()
    expected = [Matrix(n, n, {(keys[t][1] - 1, keys[t][0] - 1): x
                              for (t, j), x in kernel.entries.items() if j == col})
                for col in range(kernel.cols)]
    assert stabilizer_algebra(alpha) == expected


def test_coordinate_matrix_and_from_matrix():
    masks = basis_masks(4, 2)
    a = KForm(4, 2, {masks[0]: 1, masks[3]: Scalar(1, 1, 3)})
    b = KForm(4, 2, {masks[5]: -2})
    mat = coordinate_matrix([a, b, KForm.zero(4, 2)], masks)
    assert (mat.rows, mat.cols) == (6, 3)
    assert mat.entries == {(0, 0): 1, (3, 0): Scalar(1, 1, 3), (5, 1): -2}
    assert KForm.from_matrix(4, 2, masks, mat) == [a, b, KForm.zero(4, 2)]
    # terms on masks that are not listed are left out
    assert coordinate_matrix([a], masks[1:]).entries == {(2, 0): Scalar(1, 1, 3)}


def test_from_vector_skips_zeros_and_coerces():
    masks = basis_masks(5, 2)
    v = [0, "0", 3, Fraction(0), "1/2", Scalar(0), Scalar(1, 1, 3), Scalar(2, 0, 3), 0, -1]
    for kind in (KForm, KVector):
        x = kind.from_vector(5, 2, masks, v)
        assert x == kind(5, 2, dict(zip(masks, v)))
        assert x.terms == {masks[2]: Fraction(3), masks[4]: Fraction(1, 2),
                           masks[6]: Scalar(1, 1, 3), masks[7]: Fraction(2), masks[9]: Fraction(-1)}
        assert all(type(c) in (Fraction, Scalar) for c in x.terms.values())
        _assert_checked(x)
        assert kind.from_vector(5, 2, masks, [0] * len(masks)).is_zero()


def test_str_brackets_indices_past_nine():
    """Up to n = 9 the indices of a term run together; past it they are
    bracketed, as e1211 could be e^{1,2,11} or e^{12,1,1}."""
    assert str(KForm.from_terms(9, [((1, 2, 9), 1), ((3, 4, 5), -2)])) == "(-2)*e345 + (1)*e129"
    assert str(KForm.from_terms(11, [((1, 2, 11), 1), ((9, 10, 11), "1/2")])) == \
        "(1)*e[1,2,11] + (1/2)*e[9,10,11]"
    assert str(KVector(11, 0, {0: 3})) == "(3)*1"
    assert str(KForm.zero(12, 2)) == "0"
