"""Exact sparse linear algebra."""
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from lmmt.cohomology import ce_differential
from lmmt.liealg import builtin
from lmmt.linalg import (
    Matrix, _clear_col, _norm_pivot, _rref, extend_basis, in_span, rank_and_release,
    row_space_basis)
from lmmt.scalars import FieldError, Scalar, sc


def M(rows):
    return Matrix.from_rows([[Scalar(Fraction(x)) for x in r] for r in rows])


def mul(a, v):
    """a times the dense vector v, as a dense vector, through ``@``."""
    return (a @ Matrix.from_columns([v], nrows=a.cols)).column(0)


def cols(*vectors):
    """The dense vectors as the columns of a matrix."""
    return Matrix.from_columns(vectors, nrows=len(vectors[0]))


def columns_of(a):
    return [a.column(j) for j in range(a.cols)]


def test_rank_oracles():
    assert M([[1, 2], [2, 4]]).rank() == 1
    assert M([[1, 0], [0, 1]]).rank() == 2
    assert M([[0, 0], [0, 0]]).rank() == 0
    assert M([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).rank() == 2


@pytest.mark.parametrize("rows,cols,entries", [
    (1, 4, {(0, 2): Fraction(3)}), (4, 1, {(3, 0): Scalar(0, 1, 3)}), (1, 1, {}),
    (1, 5, {}), (0, 3, {}), (3, 0, {}), (1, 1, {(0, 0): Fraction(-1, 2)})])
def test_rank_of_one_row_or_column(rows, cols, entries):
    """rank reads a single row or column off its entries, with no elimination."""
    a = Matrix(rows, cols, entries)
    assert a.rank() == len(a.pivots()) == rank_and_release(Matrix(rows, cols, entries)) == (
        1 if entries else 0)


def test_kernel_oracle():
    ker = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    # kernel of the classic singular 3x3 is spanned by (1, -2, 1)
    assert [x / v[0] if v[0] else x for x in v] == [
        Scalar(1), Scalar(-2), Scalar(1)]


def test_solve_exact():
    a = M([[2, 1], [1, 3]])
    x = a.solve([Scalar(5), Scalar(10)])
    assert x == [Scalar(1), Scalar(3)]
    assert mul(a, x) == [Scalar(5), Scalar(10)]


def test_solve_inconsistent_returns_none():
    a = M([[1, 1], [1, 1]])
    assert a.solve([Scalar(1), Scalar(2)]) is None


def test_rref_pivots():
    a = M([[2, 4, 1], [1, 2, 0]])
    rows, pivots = a.rref()
    assert pivots == [0, 2]
    assert len(rows) == 2


def test_transpose_hstack_scale():
    a = M([[1, 2], [3, 4]])
    assert a.transpose().to_rows() == M([[1, 3], [2, 4]]).to_rows()
    b = a.hstack(Matrix.identity(2))
    assert b.to_rows()[0] == [Scalar(1), Scalar(2), Scalar(1), Scalar(0)]


def test_dense_builders_skip_zeros_and_coerce():
    # mostly zero, with int, str, Fraction and Scalar entries and zeros of each kind
    rows = [[0, "0", 0, 3, 0],
            [Fraction(0), 0, "1/2", 0, Scalar(0)],
            [0, 0, 0, 0, 0],
            [Scalar(1, 1, 3), 0, Scalar(2, 0, 3), 0, -1]]
    dense = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row)}
    by_rows = Matrix.from_rows(rows)
    assert by_rows == Matrix(4, 5, dense)
    assert by_rows.entries == {(0, 3): 3, (1, 2): Fraction(1, 2), (3, 0): Scalar(1, 1, 3),
                               (3, 2): 2, (3, 4): -1}
    assert all(type(x) in (Fraction, Scalar) for x in by_rows.entries.values())
    cols = [list(col) for col in zip(*rows)]
    assert Matrix.from_columns(cols) == by_rows
    assert Matrix.from_columns(cols, nrows=4) == by_rows
    assert Matrix.from_rows([[0, "0"], [0, 0]]) == Matrix.zero(2, 2)


def test_span_helpers():
    e1 = [Scalar(1), Scalar(0), Scalar(0)]
    e2 = [Scalar(0), Scalar(1), Scalar(0)]
    e3 = [Scalar(0), Scalar(0), Scalar(1)]
    assert in_span(cols(e1, e2), cols([Scalar(2), Scalar(-3), Scalar(0)]))
    assert not in_span(cols(e1, e2), cols(e3))
    assert not in_span(cols(e1, e2), cols(e1, e3))
    assert in_span(Matrix.zero(3, 0), Matrix.zero(3, 0))
    assert len(row_space_basis([e1, e2, [Scalar(1), Scalar(1), Scalar(0)]], 3)) == 2
    ext = extend_basis(cols(e1), cols(e1, e2, e3))
    assert columns_of(ext) == [e2, e3] and ext.rows == 3


small_matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    min_size=2, max_size=5)


@settings(max_examples=60)
@given(small_matrices)
def test_rank_plus_nullity(rows):
    a = M(rows)
    assert a.rank() + len(a.kernel_basis()) == 3


@settings(max_examples=60)
@given(small_matrices)
def test_kernel_vectors_annihilate(rows):
    a = M(rows)
    for v in a.kernel_basis():
        assert all(not x for x in mul(a, v))


@settings(max_examples=40)
@given(small_matrices)
def test_rank_equals_transpose_rank(rows):
    a = M(rows)
    assert a.rank() == a.transpose().rank()


def test_quadratic_field_solve():
    a = Matrix.from_rows([[Scalar(0, 1, 2)]])
    x = a.solve([Scalar(2)])
    assert x == [Scalar(0, 1, 2)]


# -- differential tests against sympy's DomainMatrix --------------------------
# The rational and the sqrt(3) strategies drive the one elimination routine on
# Fractions alone and on Fractions mixed with Scalars.

FIELDS = {d: QQ.algebraic_field(sympy.sqrt(d)) for d in (2, 3, 5)}
ROOTS = {d: field.from_sympy(sympy.sqrt(d)) for d, field in FIELDS.items()}
QQ_SQRT3 = FIELDS[3]

small_rationals = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
over_q = st.builds(Scalar, small_rationals)
over_q_sqrt3 = st.builds(lambda a, b: Scalar(a, b, 3), small_rationals, small_rationals)


@st.composite
def systems(draw, entries):
    """(rows, rhs); sometimes a dependent row, an exact duplicate row (two
    equal candidates for one pivot) or a consistent rhs."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(entries)
        rows.append([x + c * y for x, y in zip(rows[0], rows[1])])
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        x0 = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = mul(Matrix.from_rows(rows), x0)
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def to_sympy(domain, rows):
    def q(y):
        return domain.convert(QQ(y.numerator, y.denominator))

    def elem(x):
        x = sc(x)
        return q(x.a) + q(x.b) * ROOTS[x.d] if isinstance(x, Scalar) else q(x)
    return DomainMatrix([[elem(x) for x in r] for r in rows], (len(rows), len(rows[0])), domain)


def dense(row, n):
    """Dense vector of length n from a sparse rref row."""
    return [row.get(j, 0) for j in range(n)]


def is_field_element(x):
    """A Fraction, or a Scalar with an irrational part: never a rational Scalar."""
    return isinstance(x, Fraction) or (isinstance(x, Scalar) and x.b != 0)


def check_against_sympy(domain, rows, rhs):
    a, ref = Matrix.from_rows(rows), to_sympy(domain, rows)
    rank = a.rank()
    assert rank == ref.rank()
    red, pivots = a.rref()
    ref_red, ref_pivots = ref.rref()
    assert pivots == list(ref_pivots) and len(pivots) == len(red) == rank
    if red:
        assert all(is_field_element(x) for r in red for x in r.values())
        assert to_sympy(domain, [dense(r, a.cols) for r in red]) == ref_red[:rank, :]
    ker = a.kernel_basis()
    assert len(ker) == a.cols - rank
    assert all(is_field_element(x) for v in ker for x in v)
    assert all(not y for v in ker for y in mul(a, v))
    assert ker == [] or Matrix.from_rows(ker).rank() == len(ker)
    # kernel() is the sparse form of the same basis, and spans sympy's null space
    kernel = a.kernel()
    assert (kernel.rows, kernel.cols) == (a.cols, len(ker))
    assert [kernel.column(t) for t in range(kernel.cols)] == ker
    null = ref.nullspace()
    assert null.shape[0] == len(ker)
    assert ker == [] or to_sympy(domain, ker).vstack(null).rank() == len(ker)
    assert a.pivots() == list(ref_pivots)
    assert a @ kernel == Matrix.zero(a.rows, len(ker))
    assert to_sympy(domain, (a @ a.transpose()).to_rows()) == ref * ref.transpose()
    b = to_sympy(domain, [[y] for y in rhs])
    x = a.solve(rhs)
    assert (x is not None) == (ref.hstack(b).rank() == ref.rank())
    if x is not None:
        assert all(is_field_element(y) for y in x)
        assert ref * to_sympy(domain, [[y] for y in x]) == b
    # every column of a is solvable; all columns at once solve as one by one
    columns = [rhs] + [a.column(j) for j in range(a.cols)]
    xs = a.solve_columns(Matrix.from_columns(columns, nrows=a.rows))
    assert [None if y is None else dense(y, a.cols) for y in xs] == [a.solve(c) for c in columns]


@settings(max_examples=60, deadline=None)
@given(systems(over_q))
def test_against_sympy_over_q(system):
    check_against_sympy(QQ, *system)


@settings(max_examples=60, deadline=None)
@given(systems(over_q_sqrt3))
def test_against_sympy_over_q_sqrt3(system):
    rows, rhs = system
    assume(any(isinstance(x, Scalar) and x.b for r in rows for x in r))
    check_against_sympy(QQ_SQRT3, rows, rhs)


nonzero_q = st.builds(Fraction, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 3))
nonzero_q_sqrt3 = st.builds(lambda a, b: Scalar(a, b, 3), nonzero_q, small_rationals)


@st.composite
def filling_systems(draw, nonzero):
    """(rows, rhs) of a staircase whose back-substitution mostly fills: rows
    with distinct leading columns, each holding the next row's leading
    column, the last one the last column (never a pivot), and random other
    entries; shuffled."""
    ncols = draw(st.integers(3, 6))
    leads = sorted(draw(st.sets(st.integers(0, ncols - 2), min_size=2, max_size=ncols - 1)))
    rows = []
    for lead, nxt in zip(leads, leads[1:] + [ncols - 1]):
        row = [Fraction(0)] * ncols
        for j in range(lead, ncols):
            if j in (lead, nxt) or draw(st.booleans()):
                row[j] = draw(nonzero)
        rows.append(row)
    rows = draw(st.permutations(rows))
    return rows, draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))


def fills(rows):
    """True when some RREF row holds a column that its row after the
    forward pass alone did not: a non-pivot column back-substitution filled."""
    forward, _ = _rref([{j: x for j, x in enumerate(map(sc, r)) if x} for r in rows],
                       len(rows[0]), reduce=False)
    reduced, _ = Matrix.from_rows(rows).rref()
    return any(set(b) - set(a) for a, b in zip(forward, reduced))


def test_back_substitution_fills_a_non_pivot_column():
    rows = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    assert fills(rows)
    red, pivots = Matrix.from_rows(rows).rref()
    assert pivots == [0, 1] and red == [{0: 1, 2: -1}, {1: 1, 2: 1}]
    check_against_sympy(QQ, rows, [Fraction(1), Fraction(2)])


@settings(max_examples=60, deadline=None)
@given(filling_systems(nonzero_q))
def test_filling_back_substitution_against_sympy_over_q(system):
    assume(fills(system[0]))
    check_against_sympy(QQ, *system)


@settings(max_examples=60, deadline=None)
@given(filling_systems(nonzero_q_sqrt3))
def test_filling_back_substitution_against_sympy_over_q_sqrt3(system):
    rows, rhs = system
    assume(any(isinstance(x, Scalar) and x.b for r in rows for x in r) and fills(rows))
    check_against_sympy(QQ_SQRT3, rows, rhs)


def check_spans_against_sympy(domain, rows):
    """extend_basis picks, in order, the rows that raise the rank of the rows
    before them; in_span holds exactly when adding v keeps the rank."""
    ranks = [to_sympy(domain, rows[:i]).rank() for i in range(1, len(rows) + 1)]
    picks = [rows[i] for i in range(1, len(rows)) if ranks[i] > ranks[i - 1]]
    base, rest = cols(*rows[:1]), Matrix.from_columns(rows[1:], nrows=len(rows[0]))
    assert columns_of(extend_basis(base, rest)) == picks
    for v in rows:
        assert in_span(base, cols(v)) == (to_sympy(domain, rows[:1] + [v]).rank() == ranks[0])


@settings(max_examples=60, deadline=None)
@given(systems(over_q))
def test_spans_against_sympy_over_q(system):
    check_spans_against_sympy(QQ, system[0])


@settings(max_examples=60, deadline=None)
@given(systems(over_q_sqrt3))
def test_spans_against_sympy_over_q_sqrt3(system):
    rows, _ = system
    assume(any(isinstance(x, Scalar) and x.b for r in rows for x in r))
    check_spans_against_sympy(QQ_SQRT3, rows)


# -- the fraction-free pass: rows over Z, or over Z[sqrt d] ------------------

mixed_rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10])),
    st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40)))


@st.composite
def pivot_matrices(draw):
    """Rational rows of a tall, square or wide shape, with mixed denominators
    and entries up to 2**40; sometimes a zero row, a duplicate row, a
    multiple of a row, and (if ``sqrt3``) one Scalar entry, which puts the
    whole matrix on the Z[sqrt 3] pass."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(mixed_rationals, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    if draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        c = draw(mixed_rationals)
        rows.append([c * x for x in draw(st.sampled_from(rows))])
    sqrt3 = draw(st.booleans())
    if sqrt3:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, ncols - 1))
        rows[i][j] = Scalar(rows[i][j], draw(st.integers(1, 3)), 3)
    return rows, sqrt3


@settings(max_examples=150, deadline=None)
@given(pivot_matrices())
def test_pivots_and_rank_against_sympy(matrix):
    rows, sqrt3 = matrix
    a, ref = Matrix.from_rows(rows), to_sympy(QQ_SQRT3 if sqrt3 else QQ, rows)
    assert a.pivots() == list(ref.rref()[1])
    assert a.rank() == ref.rank() == sympy.Matrix(ref.to_Matrix()).rank()
    assert rank_and_release(Matrix.from_rows(rows)) == a.rank()


def check_rref_rows(rows, ncols, reduce):
    """_rref's rows: field elements with a leading 1 at their pivot, in an
    echelon form whose rows span the input's row space."""
    before = [dict(r) for r in rows]
    red, pivots = _rref(rows, ncols, reduce=reduce)
    assert all(is_field_element(x) for r in red for x in r.values())
    assert [min(r) for r in red] == pivots and all(r[p] == 1 for r, p in zip(red, pivots))
    if reduce:
        assert all(p not in r for k, r in enumerate(red) for p in pivots if p != pivots[k])
    if red:
        span = Matrix.from_rows([dense(r, ncols) for r in red])
        both = Matrix.from_rows([dense(r, ncols) for r in red + before])
        assert span.rank() == both.rank() == len(red)


@st.composite
def quadratic_systems(draw):
    """(d, rows, rhs) over Q(sqrt d), d in {2, 3, 5}: most entries are
    irrational, with parts up to 2**40; sometimes a row (c + e sqrt d) times
    another, which depends on it only over Q(sqrt d), a sum of two rows, or
    a consistent rhs."""
    d = draw(st.sampled_from([2, 3, 5]))
    part = st.one_of(mixed_rationals, st.integers(-3, 3).filter(bool).map(Fraction))
    entries = st.builds(lambda a, b: Scalar(a, b, d), part, part)
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        c = Scalar(draw(st.integers(-3, 3)), draw(st.integers(-3, 3).filter(bool)), d)
        rows.insert(draw(st.integers(0, len(rows))), [c * x for x in draw(st.sampled_from(rows))])
    if len(rows) >= 2 and draw(st.booleans()):
        rows.append([x + y for x, y in zip(rows[0], rows[1])])
    assume(any(isinstance(x, Scalar) for r in rows for x in r))
    if draw(st.booleans()):
        rhs = mul(Matrix.from_rows(rows), draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return d, rows, rhs


@settings(max_examples=60, deadline=None)
@given(quadratic_systems())
def test_against_sympy_over_q_sqrt_d(system):
    """pivots, rank, rref, kernel and solve_columns on the Z[sqrt d] pass
    against sympy over Q(sqrt d)."""
    d, rows, rhs = system
    check_against_sympy(FIELDS[d], rows, rhs)


def with_ints(a):
    """a through ``Matrix._of``, each integral entry as its int: the mix of
    ints, Fractions and Scalars a Chevalley-Eilenberg differential holds."""
    return Matrix._of(a.rows, a.cols, {
        k: x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
        for k, x in a.entries.items()})


@settings(max_examples=150, deadline=None)
@given(st.one_of(pivot_matrices().map(lambda m: m[0]), quadratic_systems().map(lambda s: s[1])))
def test_float_free_guard(rows):
    """Every element rref, kernel, solve_columns and _rref return is a
    Fraction or an irrational Scalar, also when the integral entries come
    in as ints: the int rows and (a, b) pairs of the forward pass never
    leak, and no 1 / int turns into a float."""
    field = Matrix.from_rows(rows)
    for a in (field, with_ints(field)):
        red, pivots = a.rref()
        assert (red, pivots) == field.rref()
        assert all(is_field_element(x) for r in red for x in r.values())
        assert all(is_field_element(x) for x in a.kernel().entries.values())
        x = a.solve_columns(Matrix._of(a.rows, 1, {
            (i, 0): v for (i, j), v in a.entries.items() if j == a.cols - 1}))[0]
        assert x is not None and all(is_field_element(y) for y in x.values())
        for reduce in (False, True):
            check_rref_rows(a._sparse_rows(), a.cols, reduce)


def test_rref_does_no_field_arithmetic(monkeypatch):
    """Both passes of the RREF of d_3 of su(3), over Q(sqrt 3), run on
    integer rows: no Scalar operation runs, only the division of each pivot
    row by its pivot, which builds Scalars directly."""
    d = ce_differential(builtin("su3"), 3)
    expected = d.rref()
    assert any(isinstance(x, Scalar) for r in expected[0] for x in r.values())

    def forbidden(*args):
        raise AssertionError("Scalar arithmetic in the elimination")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "inverse"):
        monkeypatch.setattr(Scalar, name, forbidden)
    assert d.rref() == expected


def test_integer_pass_keeps_big_entries_exact():
    # 2**40 + 1 and 2**40 - 1 are coprime: the rows are independent only exactly
    big = 2**40
    rows = [[Fraction(big + 1, 3), Fraction(big, 7)], [Fraction(big, 3), Fraction(big - 1, 7)]]
    assert Matrix.from_rows(rows).rank() == 2
    rows[1] = [Fraction(big + 1, 6), Fraction(big, 14)]
    assert Matrix.from_rows(rows).rank() == 1


int_rows = st.dictionaries(st.integers(0, 5), st.integers(-30, 30).filter(bool), max_size=6)


@settings(max_examples=300, deadline=None)
@given(int_rows, int_rows, st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool))
def test_integer_clear_col_step(r, tail, piv_val, x):
    """One integer step on column 6: with g = gcd(piv_val, x) signed like
    piv_val, r becomes (piv_val/g) r - (x/g) pivot row; the content is divided
    out exactly when piv_val/g != 1, so an unscaled row keeps its content."""
    col = 6
    row = {**r, col: x}
    _clear_col(row, col, {**tail, col: piv_val}, piv_val, None)
    g = math.gcd(piv_val, x) * (1 if piv_val > 0 else -1)
    scale, mult = piv_val // g, x // g
    combo = {j: scale * r.get(j, 0) - mult * tail.get(j, 0) for j in set(r) | set(tail)}
    combo = {j: v for j, v in combo.items() if v}
    content = math.gcd(*combo.values()) if scale != 1 else 1
    assert row == {j: v // content for j, v in combo.items()}


def test_integer_clear_col_examples():
    # the pivot value divides x: r - 2 * pivot row, content 2 kept
    row = {0: 4, 1: 4}
    _clear_col(row, 0, {0: 2, 1: 1}, 2, None)
    assert row == {1: 2}
    # 3 does not divide 2: 3 r - 2 * pivot row = {1: 6, 2: -2}, divided by its content 2
    row = {0: 2, 1: 2}
    _clear_col(row, 0, {0: 3, 2: 1}, 3, None)
    assert row == {1: 3, 2: -1}
    # a negative pivot value: r + x * pivot row, no scaling
    row = {0: 5, 1: 1}
    _clear_col(row, 0, {0: -1, 1: 1}, -1, None)
    assert row == {1: 6}


pair_rows = st.dictionaries(
    st.integers(0, 5), st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(any),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(pair_rows, pair_rows, st.integers(-12, 12).filter(bool),
       st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(any),
       st.sampled_from([2, 3, 5]))
def test_pair_clear_col_step(r, tail, piv_val, x, d):
    """One Z[sqrt d] step on column 6: with g = gcd(piv_val, x1, x2) signed
    like piv_val, r becomes (piv_val/g) r - (x/g) pivot row, multiplied as
    a + b sqrt d; the content is divided out exactly when piv_val/g != 1."""
    col = 6
    row = {**r, col: x}
    _clear_col(row, col, {**tail, col: (piv_val, 0)}, piv_val, d)
    g = math.gcd(piv_val, *x) * (1 if piv_val > 0 else -1)
    scale, m1, m2 = piv_val // g, x[0] // g, x[1] // g
    combo = {}
    for j in set(r) | set(tail):
        (a, b), (v1, v2) = r.get(j, (0, 0)), tail.get(j, (0, 0))
        entry = (scale * a - m1 * v1 - d * m2 * v2, scale * b - m1 * v2 - m2 * v1)
        if any(entry):
            combo[j] = entry
    content = math.gcd(*[y for e in combo.values() for y in e]) if scale != 1 else 1
    assert row == {j: (a // content, b // content) for j, (a, b) in combo.items()}


def test_norm_pivot_and_pair_step_examples():
    # (1 + sqrt 3, 2) times 1 - sqrt 3 is (-2, 2 - 2 sqrt 3), content 2
    row = {0: (1, 1), 1: (2, 0)}
    assert _norm_pivot(row, 0, 3) == -1 and row == {0: (-1, 0), 1: (1, -1)}
    # a rational pivot is kept as it is
    row = {0: (4, 0), 1: (2, 6)}
    assert _norm_pivot(row, 0, 3) == 4 and row == {0: (4, 0), 1: (2, 6)}
    # pivot -1, x = 2 + sqrt 2: r + (2 + sqrt 2) * pivot row, unscaled
    row = {0: (2, 1), 1: (0, 1)}
    _clear_col(row, 0, {0: (-1, 0), 1: (1, 1)}, -1, 2)
    assert row == {1: (4, 4)}
    # pivot 2, x = sqrt 5: 2 r - sqrt 5 (sqrt 5) = (4 - 5, 0), content 1
    row = {0: (0, 1), 1: (2, 0)}
    _clear_col(row, 0, {0: (2, 0), 1: (0, 1)}, 2, 5)
    assert row == {1: (-1, 0)}


def test_pivot_is_the_smallest_integer_pivot():
    """Without back-substitution the returned rows show the pivot choice:
    the bucket row whose pivot becomes the smallest integer, |a| for a
    rational entry and the norm |a^2 - d b^2| for a + b sqrt d."""
    F = Fraction
    red, _ = _rref([{0: F(3), 1: F(1)}, {0: F(1), 1: F(5)}], 2, reduce=False)
    assert red[0] == {0: 1, 1: 5}
    # 2 + sqrt 3 is a unit, norm 1 < 2
    red, _ = _rref([{0: F(2), 1: F(1)}, {0: Scalar(2, 1, 3), 1: F(1)}], 2, reduce=False)
    assert red[0] == {0: 1, 1: Scalar(2, -1, 3)}
    # 3 + 2 sqrt 3 has norm 9 - 12 = -3: 2 wins against it, it wins against 5
    red, _ = _rref([{0: Scalar(3, 2, 3), 1: F(1)}, {0: F(2), 1: F(1)}], 2, reduce=False)
    assert red[0] == {0: 1, 1: F(1, 2)}
    red, _ = _rref([{0: F(5), 1: F(1)}, {0: Scalar(3, 2, 3), 1: F(1)}], 2, reduce=False)
    assert red[0] == {0: 1, 1: Scalar(-1, F(2, 3), 3)}


def test_two_radicands_are_a_field_error():
    """A matrix with entries of Q(sqrt 2) and Q(sqrt 3) is rejected even when
    no two of them ever meet in a pivot step."""
    a = Matrix.from_rows([[Scalar(0, 1, 2), 0], [0, Scalar(0, 1, 3)]])
    for query in (a.pivots, a.rank, a.rref, a.kernel):
        with pytest.raises(FieldError, match=r"mix Q\(sqrt 2\) and Q\(sqrt 3\)"):
            query()
