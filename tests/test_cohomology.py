"""Chevalley-Eilenberg cohomology, Lie kernels, Cartan-type identities."""
import random
from fractions import Fraction
from itertools import combinations, permutations, zip_longest
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bracket_basis, filiform
from lmmt import cohomology, liealg
from lmmt.claims import CATALOG, NILPOTENT, claim_kunneth
from lmmt.cohomology import (CohomologyReport, _euler_ranks, _masks_by_weight, _weight_codes,
                             _weight_zero_masks, betti, cartan_identity_check, cocycle_basis,
                             coboundary_matrix, cohomology_basis, ce_differential,
                             d_form, direct_betti, is_exact, is_trivial, kunneth_check,
                             lie_derivative, lie_kernel)
from lmmt.exterior import (DegreeError, DimensionMismatch, KForm, KVector, basis_masks,
                           coordinate_matrix, derivation, indices_of, wedge_sign)
from lmmt.liealg import (Derivation, LieAlgebra, builtin, extend_by_derivations,
                          parse_salamon, structural_report)
from lmmt.linalg import Matrix, _rref, extend_basis, in_span
from lmmt.scalars import Scalar
from lmmt.spectral import (IdealSplit, _quotient_functional_ideals, diagonal_extension,
                           invariant_cohomology)


def test_su2_betti_oracle():
    assert betti(builtin("su2")).betti == [1, 0, 0, 1]


def test_heisenberg_betti_oracle():
    assert betti(parse_salamon("0,0,12")).betti == [1, 2, 2, 1]


def test_su2_differential_oracle():
    # de1 = 2 e23 for the convention [X1, X2] = -2 X3 (cyclic)
    e1 = KForm.basis(3, (1,))
    assert d_form(builtin("su2"), e1) == KForm.basis(3, (2, 3), 2)


# su3 has structure constants in Q(sqrt 3); the rest are rational
D_ALGEBRAS = [parse_salamon(s) for s in CATALOG + NILPOTENT] + [builtin("su2"), builtin("su3")]


def test_d_form_equals_every_ce_differential_column():
    # d_form reads the structure constants, ce_differential is built from
    # lie_L by duality: the two must agree on every basis form
    for g in D_ALGEBRAS:
        for k in range(g.n + 1):
            mat = ce_differential(g, k)
            dst = basis_masks(g.n, k + 1)
            for col, mask in enumerate(basis_masks(g.n, k)):
                expect = KForm.from_vector(g.n, k + 1, dst, mat.column(col))
                assert d_form(g, KForm.basis(g.n, indices_of(mask))) == expect


def test_jacobi_check_and_d_form_read_one_de_table(monkeypatch):
    g = builtin("su3")
    tables = []

    def recording(a, images, shift):
        tables.append(images)
        return derivation(a, images, shift)

    monkeypatch.setattr(liealg, "derivation", recording)
    monkeypatch.setattr(cohomology, "derivation", recording)
    assert g.jacobi_check() is None
    calls = len(tables)
    d_form(g, KForm.basis(g.n, (1, 2, 3)))
    assert 0 < calls < len(tables) and all(t is g.de for t in tables)


def test_euler_ranks_certify_the_table():
    # the Heisenberg table: d has rank 1 on 1-forms (de3 = -e12) and no other
    assert _euler_ranks(3, [1, 2, 2, 1], "the table") == [0, 1, 0, 0]
    with pytest.raises(AssertionError, match="negative rank -1 from the table in degree 0"):
        _euler_ranks(3, [2, 1, 1, 2], "the table")
    with pytest.raises(AssertionError, match="the table leaves rank 1 in degree 3"):
        _euler_ranks(3, [1, 3, 3, 0], "the table")


def test_equal_entries_are_one_object():
    """The structure constants, every differential and the pivot rows of its
    echelon form (past their leading 1) hold one object per distinct value."""
    g = builtin("su3")
    consts = [c for comp in g.brackets.values() for c in comp.values()]
    assert len({id(c) for c in consts}) == len(set(consts)) < len(consts)
    for k in range(g.n + 1):
        mat = ce_differential(g, k)
        values = list(mat.entries.values())
        assert len({id(v) for v in values}) == len(set(values))
        rows, pivots = _rref(mat._sparse_rows(), mat.cols, reduce=False)
        values = [v for r, p in zip(rows, pivots) for j, v in r.items() if j != p]
        assert len({id(v) for v in values}) == len(set(values))


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def sparse_forms(draw):
    """(g, a): a form on g with up to five terms, coefficients in Q(sqrt 3)."""
    g = draw(st.sampled_from(D_ALGEBRAS))
    k = draw(st.integers(0, g.n))
    masks = draw(st.lists(st.sampled_from(basis_masks(g.n, k)), max_size=5, unique=True))
    coeffs = draw(st.lists(st.builds(lambda a, b: Scalar(a, b, 3), small_rationals, small_rationals),
                           min_size=len(masks), max_size=len(masks)))
    return g, KForm(g.n, k, dict(zip(masks, coeffs)))


@settings(max_examples=80, deadline=None)
@given(sparse_forms())
def test_d_form_is_the_ce_differential_on_sparse_forms(case):
    g, a = case
    k = a.degree
    src, dst = basis_masks(g.n, k), basis_masks(g.n, k + 1)
    image = ce_differential(g, k) @ coordinate_matrix([a], src)
    expect = KForm.from_vector(g.n, k + 1, dst, image.column(0))
    da = d_form(g, a)
    assert da == expect
    assert d_form(g, da).is_zero()


def test_d_form_rejects_a_form_of_another_dimension():
    su2 = builtin("su2")
    for n in (2, 4):
        with pytest.raises(DimensionMismatch):
            d_form(su2, KForm.basis(n, (1,)))


def test_lie_derivative_of_a_constant_and_of_another_dimension():
    """L_X of a 0-form is 0; a vector or a form on another n than g's is a
    DimensionMismatch."""
    su2, e1 = builtin("su2"), KVector.basis(3, (1,))
    got = lie_derivative(su2, e1, KForm(3, 0, {0: 1}))
    assert got.is_zero() and got.degree == 0
    for x, a in ((KVector.basis(4, (1,)), KForm.basis(3, (1,))), (e1, KForm.basis(2, (1,))),
                 (e1, KForm(4, 0, {0: 1}))):
        with pytest.raises(DimensionMismatch):
            lie_derivative(su2, x, a)


def test_dd_zero_exhaustive():
    for text in CATALOG:
        g = parse_salamon(text)
        for k in range(g.n + 1):
            for mask in basis_masks(g.n, k):
                a = KForm.basis(g.n, indices_of(mask))
                assert d_form(g, d_form(g, a)).is_zero()


def test_LL_zero_exhaustive():
    for g in [builtin("su2"), parse_salamon("0,0,13+24,14")]:
        for k in range(2, g.n + 1):
            for mask in basis_masks(g.n, k):
                p = KVector.basis(g.n, indices_of(mask))
                assert g.lie_L(g.lie_L(p)).is_zero()


def test_euler_characteristic_vanishes():
    for text in CATALOG:
        b = betti(parse_salamon(text)).betti
        assert sum((-1) ** k * x for k, x in enumerate(b)) == 0


def test_b1_equals_codim_derived():
    for text in CATALOG + ["0,0,12"]:
        g = parse_salamon(text)
        assert betti(g).betti[1] == structural_report(g).codim_derived


def test_poincare_duality_unimodular():
    g = parse_salamon("0,0,13+23,14,15,16,-4.17-27")
    b = betti(g).betti
    assert b == [1, 2, 1, 0, 0, 1, 2, 1]
    assert b == b[::-1]
    # the identity betti's shortcut rests on, from direct ranks
    ranks = [ce_differential(g, k).rank() for k in range(g.n)]
    assert ranks == ranks[::-1]


# tr ad = 0 or not, beyond the catalog: "0,12" is not unimodular,
# "0,12,-1.13" is but is not nilpotent, and "12,0,23" / "12,0,2.23" act by
# e_2 in the middle of the basis, with trace zero and non-zero; in
# "0,-12+13,-12+13" ad e_1 is nilpotent but not diagonal, with diagonal (1, -1)
TRACE_CASES = ["0,12", "0,12,-1.13", "12,0,23", "12,0,2.23", "0,-12+13,-12+13"]

DUALITY_CASES = (
    [(s, parse_salamon(s)) for s in CATALOG + NILPOTENT + TRACE_CASES]
    + [(name, builtin(name)) for name in ("su2", "su3", "heisenberg")]
    + [(f"abelian:{n}", builtin(f"abelian:{n}")) for n in range(5)]
    + [(f"diag{lam}", diagonal_extension([Fraction(x) for x in lam]))
       for lam in ((1, -1), (1, 2, -3), (1, -1, 2), (1, 2), (0, 0, 1))]
    + [("su3+su2", builtin("su3").direct_sum(builtin("su2"))),
       ("h3+R2", builtin("heisenberg").direct_sum(builtin("abelian:2")))])


@pytest.mark.parametrize("name,g", DUALITY_CASES, ids=[c[0] for c in DUALITY_CASES])
def test_betti_equals_direct_ranks(name, g):
    """The whole report equals the table from the ranks of all n + 1
    differentials, whichever shortcut betti takes."""
    assert betti(g) == _report_from_all_ranks(g)


def _report_from_all_ranks(g):
    """The report built from the ranks of all n + 1 full differentials."""
    n = g.n
    ranks = [ce_differential(g, k).rank() for k in range(n + 1)]
    cocycles = [comb(n, k) - ranks[k] for k in range(n + 1)]
    coboundaries = [0] + ranks[:n]
    return CohomologyReport(n, [z - c for z, c in zip(cocycles, coboundaries)],
                            cocycles, coboundaries)


def _relabel(g, perm):
    """g with e_i renamed e_{perm[i - 1]}."""
    brackets = {}
    for (i, j), comp in g.brackets.items():
        a, b = perm[i - 1], perm[j - 1]
        brackets[(min(a, b), max(a, b))] = {
            perm[k - 1]: c if a < b else -c for k, c in comp.items()}
    return LieAlgebra(g.n, brackets, validate=False)


def test_a_wrong_split_is_caught(monkeypatch):
    """With components() reporting every index alone, betti on a sum gives
    the table of R^n; the checks that read the sum from its full
    differentials tell it apart."""
    su2, h3 = builtin("su2"), builtin("heisenberg")
    g = su2.direct_sum(h3)
    assert kunneth_check(su2, h3) and claim_kunneth()["ok"]
    monkeypatch.setattr(LieAlgebra, "components",
                        lambda self: [[i] for i in range(1, self.n + 1)])
    assert betti(g).betti == [comb(6, k) for k in range(7)]
    assert betti(g) != _report_from_all_ranks(g)
    assert not kunneth_check(su2, h3)
    c06 = claim_kunneth()
    assert not c06["ok"]
    assert [c["b3"] for c in c06["computed"]] == [2, 1, 0]  # the sums read directly


def _sl3_chevalley():
    """sl(3) on h1 = E11 - E22, h2 = E22 - E33 and the six E_ij: a Cartan
    subalgebra of two basis elements with diagonal ad."""
    def unit(i, j):
        return [[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]

    def sub(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def mul(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(3)) for c in range(3)] for r in range(3)]

    roots = [(i, j) for i in range(3) for j in range(3) if i != j]
    basis = [sub(unit(0, 0), unit(1, 1)), sub(unit(1, 1), unit(2, 2))]
    basis += [unit(i, j) for i, j in roots]
    brackets = {}
    for p in range(8):
        for q in range(p + 1, 8):
            x = sub(mul(basis[p], basis[q]), mul(basis[q], basis[p]))
            # diag(a, b, c) with a + b + c = 0 is a h1 + (a + b) h2
            comp = {1: x[0][0], 2: x[0][0] + x[1][1]}
            comp.update({3 + r: x[i][j] for r, (i, j) in enumerate(roots)})
            brackets[(p + 1, q + 1)] = comp
    return LieAlgebra(8, brackets)


def _split_sl2():
    """sl(2) on h, e, f: [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return LieAlgebra(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def _h3_by_mixed_signs():
    """h3 extended by diag(1, -1, 0): e^4 and e^23 have weight zero and d e^4
    is a multiple of e^23, so the weight-zero block has a non-zero d."""
    h3 = parse_salamon("0,0,12")
    return extend_by_derivations(h3, [Derivation.from_rows(h3, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])])


@st.composite
def torus_algebras(draw):
    """Algebras with an inner diagonal torus, each possibly summed with a
    nilpotent algebra (on which the torus weights vanish)."""
    kind = draw(st.sampled_from(["diag-q", "diag-sqrt3", "nilpotent", "sl2"]))
    if kind == "diag-q":
        g = diagonal_extension(draw(st.lists(small_rationals, min_size=1, max_size=6).filter(any)))
    elif kind == "diag-sqrt3":
        lams = draw(st.lists(st.builds(lambda a, b: Scalar(a, b, 3), small_rationals,
                                       small_rationals), min_size=1, max_size=6).filter(any))
        g = LieAlgebra(len(lams) + 1, {(1, i): {i: lam} for i, lam in enumerate(lams, 2)})
    elif kind == "nilpotent":
        k = parse_salamon(draw(st.sampled_from(NILPOTENT[:4])))
        basis = list(k.diagonal_derivations().values())
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        diag = [sum((c * w.get(m, 0) for c, w in zip(coeffs, basis)), Fraction(0))
                for m in range(1, k.n + 1)]
        if not any(diag):
            diag = [basis[0].get(m, Fraction(0)) for m in range(1, k.n + 1)]
        rows = [[diag[r] if r == c else 0 for c in range(k.n)] for r in range(k.n)]
        g = extend_by_derivations(k, [Derivation.from_rows(k, rows)])
    else:
        g = _split_sl2()
    if g.n <= 6 and draw(st.booleans()):
        g = g.direct_sum(parse_salamon(draw(st.sampled_from(["0,0,12", "0,0"]))))
    return g


@settings(max_examples=60, deadline=None)
@given(torus_algebras())
def test_torus_betti_equals_direct_ranks(g):
    """The weight-zero shortcut against the full complex, on random algebras
    that have an inner diagonal torus."""
    assert g.inner_torus()
    assert betti(g) == _report_from_all_ranks(g)


SUMMANDS = ([parse_salamon(s) for s in CATALOG + NILPOTENT]
            + [builtin(name) for name in ("su2", "abelian:1", "abelian:2", "abelian:3")])


@st.composite
def shuffled_sums(draw, budget=10):
    """(number of summands, their direct sum with the basis shuffled): 2-3
    summands of total dimension <= budget, so the parts interleave."""
    summands = []
    for _ in range(draw(st.integers(2, 3))):
        left = budget - sum(h.n for h in summands)
        if left >= 5 and draw(st.booleans()):
            summands.append(draw(torus_algebras().filter(lambda h: h.n <= left)))
        elif left >= 1:
            summands.append(draw(st.sampled_from([h for h in SUMMANDS if h.n <= left])))
    g = summands[0]
    for h in summands[1:]:
        g = g.direct_sum(h)
    return len(summands), _relabel(g, draw(st.permutations(range(1, g.n + 1))))


@settings(max_examples=50, deadline=None)
@given(shuffled_sums())
def test_shuffled_sum_betti_equals_direct_ranks(case):
    """The Kunneth split against the full complex, on random direct sums
    whose parts are not contiguous index blocks."""
    count, g = case
    assert len(g.components()) >= count
    assert betti(g) == _report_from_all_ranks(g)


def _pair_walk_lie_L(g, p):
    """lie_L as first written: every pair a < b of positions in each mask,
    sign (-1)^(a+b), [e_i, e_j] from bracket_basis, a checked KVector for
    each temporary and for the sum.  The reference the bracket walk must
    equal."""
    acc = {}
    for mask, coeff in p.terms.items():
        idx = indices_of(mask)
        s = len(idx)
        for a in range(s):
            for b in range(a + 1, s):
                sign = -1 if (a + b) % 2 else 1
                rest = mask ^ (1 << (idx[a] - 1)) ^ (1 << (idx[b] - 1))
                br = bracket_basis(g, idx[a], idx[b])
                if not br:
                    continue
                vec = KVector(g.n, 1, {1 << (k - 1): c for k, c in br.items()})
                rest_v = KVector(g.n, s - 2, {rest: coeff if sign > 0 else -coeff})
                for m, c in vec.wedge(rest_v).terms.items():
                    acc[m] = acc.get(m, 0) + c
    return KVector(g.n, max(p.degree - 1, 0), acc)


SQRT3_COEFFS = [Scalar(1, 1, 3), Scalar(0, -2, 3), Scalar(Fraction(1, 2), 1, 3)]


def _random_multivector(rng, n, k, terms):
    masks = basis_masks(n, k)
    coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
              for _ in masks] + SQRT3_COEFFS
    return KVector(n, k, {m: rng.choice(coeffs) for m in rng.sample(masks, min(terms, len(masks)))})


def _check_lie_L_against_pair_walk(g, rng, tries):
    for k in range(g.n + 1):
        for _ in range(tries):
            p = _random_multivector(rng, g.n, k, rng.randint(2, 6))
            image = g.lie_L(p)
            assert image == _pair_walk_lie_L(g, p)
            assert image.degree == max(k - 1, 0)


# diagonal extensions whose brackets have their component at j (generator
# first) or at i (generator last), which the wedge keeps
DIAGONAL_EXTENSIONS = ["0,12,-1.13,2.14,-2.15,1/2.16", "1.16,-1.26,2.36,-2.46,1/2.56,0"]


def test_lie_L_equals_the_pair_walk():
    rng = random.Random(12)
    for g in ([parse_salamon(s) for s in CATALOG + NILPOTENT + DIAGONAL_EXTENSIONS]
              + [builtin(name) for name in ("su2", "su3", "borel:3", "borel:4")]
              + [filiform(11)]):
        _check_lie_L_against_pair_walk(g, rng, 4)


@settings(max_examples=40, deadline=None)
@given(st.one_of(torus_algebras(), shuffled_sums().map(lambda case: case[1])),
       st.integers(0, 2 ** 32))
def test_lie_L_equals_the_pair_walk_random(g, seed):
    _check_lie_L_against_pair_walk(g, random.Random(seed), 2)


@pytest.mark.parametrize("g", [builtin("su3"), filiform(11)], ids=["su3", "L11"])
def test_ce_differential_equals_the_pair_walk_build(g):
    for k in range(-1, g.n + 1):
        src, dst = basis_masks(g.n, k), basis_masks(g.n, k + 1)
        col_index = {m: i for i, m in enumerate(src)}
        entries = {}
        for row, mj in enumerate(dst):
            for mask, c in _pair_walk_lie_L(g, KVector(g.n, k + 1, {mj: 1})).terms.items():
                entries[(row, col_index[mask])] = c
        assert ce_differential(g, k) == Matrix(len(dst), len(src), entries)


# integral constants 2 and -3, and 1/2 beside integers in a nilpotent algebra
MIXED_CONSTANTS = [parse_salamon(s) for s in ("0,0,2.12,-3.13", "0,0,1/2.12,-3.13,2.14")]


@st.composite
def build_algebras(draw):
    """Algebras of dimension <= 7 whose constants are integers, non-integral
    rationals or in Q(sqrt 3): the torus algebras, diagonal extensions
    mixing the eigenvalues 2, -3 and 1/2, and integral or mixed fixed ones."""
    kind = draw(st.sampled_from(["torus", "diagonal", "fixed"]))
    if kind == "torus":
        return draw(torus_algebras().filter(lambda g: g.n <= 7))
    if kind == "diagonal":
        values = st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(1)])
        return diagonal_extension(draw(st.lists(values, min_size=2, max_size=6)))
    return draw(st.sampled_from([g for g in D_ALGEBRAS + MIXED_CONSTANTS if g.n <= 7]))


@settings(max_examples=60, deadline=None)
@given(build_algebras())
def test_ce_differential_types_and_values(g):
    """Every ce_differential entry equals, entry for entry, a build in
    Fraction/Scalar arithmetic from g.brackets (the pair walk on a checked
    basis row); it is an int, a Fraction or an irrational Scalar, never a
    bool or a float, and every entry is an int when every constant is an
    integer.  betti agrees with direct_betti."""
    integral = all(isinstance(c, Fraction) and c.denominator == 1
                   for comp in g.brackets.values() for c in comp.values())
    for k in range(g.n):
        src, dst = basis_masks(g.n, k), basis_masks(g.n, k + 1)
        col_index = {m: i for i, m in enumerate(src)}
        expect = {}
        for row, mj in enumerate(dst):
            for mask, c in _pair_walk_lie_L(g, KVector(g.n, k + 1, {mj: 1})).terms.items():
                assert type(c) in (Fraction, Scalar)
                expect[(row, col_index[mask])] = c
        got = ce_differential(g, k).entries
        assert got == expect
        for x in got.values():
            assert type(x) in (int, Fraction, Scalar)
            assert not integral or type(x) is int
            assert not isinstance(x, Scalar) or x.b
    assert betti(g) == direct_betti(g)


@settings(max_examples=40, deadline=None)
@given(torus_algebras())
def test_weight_codes_equal_the_fraction_digits(g):
    """The integer digits from numerator and denominator equal int(c * den)."""
    torus = g.inner_torus()
    digits = []
    for o in range(1, g.n + 1):
        row = []
        for w in torus.values():
            x = w.get(o, Fraction(0))
            row += (x.a, x.b) if isinstance(x, Scalar) else (x, Fraction(0))
        digits.append(row)
    den = lcm(*(c.denominator for row in digits for c in row))
    digits = [[int(c * den) for c in row] for row in digits]
    base = 2 * sum(abs(c) for row in digits for c in row) + 1
    assert _weight_codes(g.n, torus) == [sum(c * base ** j for j, c in enumerate(row))
                                         for row in digits]


def _gray_code_zero_masks(n, torus):
    """The weight-zero masks by degree 0..n+1 from one Gray-code walk over
    all 2^n masks, each code the previous one plus or minus one bit's."""
    codes = _weight_codes(n, torus)
    zero = [[0]] + [[] for _ in range(n + 1)]
    weight = mask = 0
    for i in range(1, 1 << n):
        low = i & -i
        mask ^= low
        weight += codes[low.bit_length() - 1] if mask & low else -codes[low.bit_length() - 1]
        if not weight:
            zero[mask.bit_count()].append(mask)
    return [sorted(masks) for masks in zero]


@st.composite
def weight_tori(draw):
    """(n, t -> {o: w_t(o)}) for n = 0..12 and 1-3 weight vectors with
    rational or Q(sqrt 3) values, drawn from a small set so that many
    masks have joint weight zero."""
    n = draw(st.integers(0, 12))
    value = small_rationals
    if draw(st.booleans()):
        value = st.one_of(small_rationals, st.builds(lambda a, b: Scalar(a, b, 3),
                                                     small_rationals, small_rationals))
    torus = {}
    for t in range(draw(st.integers(1, 3))):
        ws = draw(st.lists(value, min_size=n, max_size=n))
        torus[t] = {o: w for o, w in enumerate(ws, start=1) if w}
    return n, torus


@settings(max_examples=120, deadline=None)
@given(weight_tori())
def test_weight_zero_masks_equal_the_gray_code_walk(case):
    """Meet in the middle against the walk over all 2^n masks: the same
    masks in each degree, each list increasing, degree n + 1 empty."""
    n, torus = case
    zero = _weight_zero_masks(n, torus)
    assert zero == _gray_code_zero_masks(n, torus)
    assert len(zero) == n + 2 and not zero[n + 1]
    assert all(masks == sorted(set(masks)) for masks in zero)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8])
def test_weight_zero_masks_of_the_zero_weight(n):
    """A torus whose weights all vanish puts every mask at weight zero."""
    assert _weight_zero_masks(n, {1: {}}) == [basis_masks(n, k) for k in range(n + 1)] + [[]]


def _mahonian(k):
    """Permutations of S_k by number of inversions: the coefficients of
    prod_{m <= k} (1 + t + ... + t^(m-1))."""
    table = [1]
    for m in range(2, k + 1):
        table = [sum(table[i - s] for s in range(m) if 0 <= i - s < len(table))
                 for i in range(len(table) + m - 1)]
    return table


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_nplus_betti_are_the_mahonian_numbers(k):
    """Kostant (Ann. of Math. 74, 1961): b_j(n+(sl_k)) is the number of
    permutations of S_k with j inversions; k = 6 is n = 15, ranked block by
    block over the torus of rank 5."""
    g = builtin(f"nplus:{k}")
    assert g.n == k * (k - 1) // 2
    assert betti(g).betti == _mahonian(k)


def _inversion_sets(k):
    """The inversion set {(a, b) : a < b, w(a) > w(b)} of each permutation w
    of 0..k-1, in plain integers."""
    pairs = list(combinations(range(k), 2))
    return [frozenset((a, b) for a, b in pairs if w[a] > w[b]) for w in permutations(range(k))]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_nplus_betti_by_weight_are_kostants(k):
    """Kostant (Ann. of Math. 74, 1961), weight by weight: H^j(n+(sl_k)) has
    one class for each permutation w with j inversions, of the weight of its
    inversion set Phi_w (as roots eps_a - eps_b), represented by e^{Phi_w},
    and no other weight carries cohomology.  The Betti number of each weight
    block comes from the ranks of the blocks of ce_differential, with the
    weight computed here: a builder error confined to one block shows even
    where the totals still match the Mahonian numbers.  k = 6 is n = 15."""
    g = builtin(f"nplus:{k}")
    n = g.n
    # the builtin basis is E_ab, a < b, in lexicographic order; E_ab has weight eps_a - eps_b
    roots = list(combinations(range(k), 2))
    index = {r: t for t, r in enumerate(roots, start=1)}

    def weight(indices):
        w = [0] * k
        for t in indices:
            a, b = roots[t - 1]
            w[a] += 1
            w[b] -= 1
        return tuple(w)

    for (s, t), comp in g.brackets.items():  # [E_ab, E_bc] = E_ac: d keeps the weight
        assert all(weight([s, t]) == weight([q]) for q in comp)
    blocks = [{} for _ in range(n + 2)]  # by degree, then weight; degree n + 1 is empty
    for m in range(1 << n):
        blocks[m.bit_count()].setdefault(weight(indices_of(m)), []).append(m)
    ranks = {(j, c): ce_differential(g, j, (cols, blocks[j + 1].get(c, []))).rank()
             for j in range(n + 1) for c, cols in blocks[j].items()}
    block_betti = {(j, c): len(cols) - ranks[(j, c)] - ranks.get((j - 1, c), 0)
                   for j in range(n + 1) for c, cols in blocks[j].items()}
    classes = {(len(phi), weight(index[r] for r in phi)): phi for phi in _inversion_sets(k)}
    assert len(classes) == factorial(k)
    assert {key: b for key, b in block_betti.items() if b} == dict.fromkeys(classes, 1)
    for (j, c), phi in classes.items():
        form = KForm.basis(n, [index[r] for r in phi])
        assert d_form(g, form).is_zero()
        below = blocks[j - 1].get(c, []) if j else []
        coboundaries = ce_differential(g, j - 1, (below, blocks[j][c]))
        assert not in_span(coboundaries, coordinate_matrix([form], blocks[j][c]))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_borel_betti_are_binomial(k):
    """H*(h + n+) = Lambda h* for the Borel subalgebra of sl_k (Kostant), so
    b_j = C(k - 1, j); k = 7, 8 are n = 27, 35, on the torus path."""
    g = builtin(f"borel:{k}")
    assert g.n == (k - 1) + k * (k - 1) // 2
    assert len(g.inner_torus()) == k - 1
    assert betti(g).betti == [comb(k - 1, j) for j in range(g.n + 1)]


@pytest.mark.parametrize("name", ["nplus:3", "nplus:4", "borel:2", "borel:3", "borel:4"])
def test_upper_triangular_betti_equal_direct_ranks(name):
    g = builtin(name)
    assert betti(g) == direct_betti(g)


@pytest.mark.parametrize("g", [filiform(11), builtin("nplus:5")], ids=["L11", "nplus5"])
def test_weight_blocks_partition_d(g):
    """In every degree the weight blocks hold every entry of the whole
    differential, once, and their ranks add up to its rank."""
    torus = g.diagonal_derivations()
    assert torus and not g.inner_torus()
    by_weight = _masks_by_weight(g.n, _weight_codes(g.n, torus))
    cols = next(by_weight)
    for k in range(g.n + 1):
        rows = next(by_weight)
        assert sorted(m for masks in cols.values() for m in masks) == basis_masks(g.n, k)
        blocks = [ce_differential(g, k, (masks, rows[c])) for c, masks in cols.items() if c in rows]
        d = ce_differential(g, k)
        assert sum(len(b.entries) for b in blocks) == len(d.entries)
        assert sum(b.rank() for b in blocks) == d.rank()
        cols = rows


def _check_dual_blocks(g):
    """Block c of d on k-forms against block W - c of d on (n-1-k)-forms, W
    the weight code of all n indices, in every degree: they come in pairs,
    have one rank, and under e^I -> e^(complement of I) the second is the
    transpose of the first up to the signs of the wedge pairing,
    D'[I', J'] s(I) = -(-1)^k D[J, I] s(J), with s(I) the sign of
    e^I ^ e^I' and I' the complement of I.  Each block is built once."""
    n, full = g.n, (1 << g.n) - 1
    codes = _weight_codes(n, g.diagonal_derivations())
    top = sum(codes)
    by_degree = list(_masks_by_weight(n, codes))
    blocks = {(k, c): (masks, by_degree[k + 1][c]) for k in range(n + 1)
              for c, masks in by_degree[k].items() if c in by_degree[k + 1]}
    assert {(n - 1 - k, top - c) for k, c in blocks} == set(blocks)
    for (k, c), (src, dst) in blocks.items():
        if (k, c) > (n - 1 - k, top - c):
            continue  # checked from its twin
        dual_src, dual_dst = blocks[(n - 1 - k, top - c)]
        d = ce_differential(g, k, (src, dst))
        dual = ce_differential(g, n - 1 - k, (dual_src, dual_dst))
        assert d.rank() == dual.rank()
        at_src = {m: i for i, m in enumerate(dual_src)}
        at_dst = {m: i for i, m in enumerate(dual_dst)}
        assert len(dual.entries) == len(d.entries)
        for (j, i), x in d.entries.items():
            mi, mj = src[i], dst[j]
            sign = wedge_sign(mi, full ^ mi) * wedge_sign(mj, full ^ mj) * (-1) ** (k + 1)
            assert dual.entries.get((at_dst[full ^ mi], at_src[full ^ mj])) == sign * x


@pytest.mark.parametrize("g", [filiform(11), filiform(13), builtin("nplus:6"), builtin("heisenberg")],
                         ids=["L11", "L13", "nplus6", "heisenberg"])
def test_dual_weight_blocks_have_one_rank(g):
    assert g.is_unimodular() and not g.inner_torus()
    _check_dual_blocks(g)


def _gaussian_binomial(m, j):
    """Coefficients of [m choose j]_q, row by row from
    [r choose t] = [r-1 choose t-1] + q^t [r-1 choose t]."""
    if not 0 <= j <= m:
        return []
    row = [[1]]  # [r choose t] for t = 0..r, from r = 0
    for r in range(1, m + 1):
        row = [[1]] + [[x + y for x, y in zip_longest(row[t - 1], [0] * t + row[t], fillvalue=0)]
                       for t in range(1, r)] + [[1]]
    return row[j]


def _filiform_betti(n):
    """b_k(L_n) = N(n-1, k) + N(n-1, k-1), N(m, j) the coefficient of
    q^floor(j(m-j)/2) in [m choose j]_q: the number of irreducible summands
    of Lambda^j V_m, V_m the m-dimensional sl_2 module
    (Armstrong-Cairns-Jessup, Proc. AMS 125, 1997).  Plain integers."""
    m = n - 1

    def summands(j):
        poly = _gaussian_binomial(m, j)
        return poly[j * (m - j) // 2] if poly else 0

    return [summands(k) + summands(k - 1) for k in range(n + 1)]


def test_gaussian_binomial_oracle():
    assert _gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert _gaussian_binomial(5, 0) == [1] and _gaussian_binomial(5, 6) == []
    assert all(sum(_gaussian_binomial(m, j)) == comb(m, j) for m in range(9) for j in range(m + 1))
    assert _filiform_betti(3) == [1, 2, 2, 1]  # the Heisenberg algebra


@pytest.mark.parametrize("n", range(3, 14))
def test_filiform_betti_closed_form(n):
    assert betti(filiform(n)).betti == _filiform_betti(n)


@st.composite
def two_step_algebras(draw):
    """(generators m, a connected two-step nilpotent algebra): [e_i, e_j] =
    c e_k for a set of generator pairs i < j <= m that links all m of them,
    each pair with its own central index k > m.  Its diagonal derivations
    are free on the generators, so the torus has rank m."""
    m = draw(st.integers(2, 5))
    order = draw(st.permutations(range(1, m + 1)))
    # a spanning tree, each generator linked to an earlier one, then extras
    pairs = {tuple(sorted((order[t], order[draw(st.integers(0, t - 1))]))) for t in range(1, m)}
    extra = [p for p in combinations(range(1, m + 1), 2) if p not in pairs]
    room = 10 - m - len(pairs)  # n <= 10
    if extra and room > 0:
        pairs |= set(draw(st.lists(st.sampled_from(extra), max_size=room, unique=True)))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    centre = draw(st.permutations(range(m + 1, m + len(pairs) + 1)))
    brackets = {p: {k: draw(coeffs)} for p, k in zip(sorted(pairs), centre)}
    return m, LieAlgebra(m + len(pairs), brackets)


@settings(max_examples=40, deadline=None)
@given(two_step_algebras())
def test_two_step_betti_equal_direct_ranks(case):
    m, g = case
    assert len(g.components()) == 1 and not g.inner_torus()
    assert len(g.diagonal_derivations()) == m
    assert betti(g) == direct_betti(g)


@settings(max_examples=30, deadline=None)
@given(two_step_algebras().filter(lambda case: case[1].n % 2))
def test_two_step_dual_weight_blocks(case):
    """Odd n, where betti ranks one block of each dual pair in the middle degree."""
    g = case[1]
    _check_dual_blocks(g)
    assert betti(g) == direct_betti(g)


def _check_codim_one_invariants(g):
    """The Hochschild-Serre sequence of a codimension-1 ideal k containing g'
    has two columns: E2 = E_inf, and the one operator's kernel and cokernel
    have equal dimension, so b_q(g) = dim H^q(k)^g + dim H^(q-1)(k)^g.
    Checked on the hyperplane ideals verify_34_structure uses, with b from
    all n + 1 full ranks; no invariant dimension is computed from it."""
    b = direct_betti(g).betti
    for ideal in _quotient_functional_ideals(g, structural_report(g).derived_basis):
        split = IdealSplit(g, ideal.hstack(extend_basis(ideal, Matrix.identity(g.n))), ideal.cols)
        assert split.codim == 1
        for q in range(min(split.m, 4) + 1):
            alternating = sum((-1) ** j * b[q - j] for j in range(q + 1))
            assert invariant_cohomology(split, q).dim_invariant == alternating


@pytest.mark.parametrize("g", [parse_salamon(t) for t in CATALOG + NILPOTENT + ["0,12,-1.13"]]
                         + [builtin("abelian:4")], ids=lambda g: g.to_salamon())
def test_codim_one_invariants_from_betti(g):
    _check_codim_one_invariants(g)


@settings(max_examples=25, deadline=None)
@given(st.one_of(torus_algebras(), shuffled_sums(budget=7).map(lambda case: case[1])))
def test_codim_one_invariants_from_betti_random(g):
    _check_codim_one_invariants(g)


@pytest.mark.parametrize("make,torus,expect", [
    (_split_sl2, [1], [1, 0, 0, 1]),
    (_sl3_chevalley, [1, 2], [1, 0, 0, 1, 0, 1, 0, 0, 1]),  # (1 + t^3)(1 + t^5)
    (_h3_by_mixed_signs, [1], None),
])
def test_torus_fixed_cases(make, torus, expect):
    """Split sl2 and sl3 (Poincare polynomial of their compact forms) and a
    case whose weight-zero block has rank > 0, against all n + 1 ranks."""
    g = make()
    assert list(g.inner_torus()) == torus
    rep = betti(g)
    assert rep == _report_from_all_ranks(g)
    assert expect is None or rep.betti == expect


def test_torus_block_has_a_nonzero_differential():
    assert ce_differential(_h3_by_mixed_signs(), 1, ([0b1000], [0b0110])).rank() == 1


def test_ce_differential_block_is_a_submatrix():
    g = parse_salamon(CATALOG[1])
    rng = random.Random(5)
    for k in range(g.n + 1):
        src, dst = basis_masks(g.n, k), basis_masks(g.n, k + 1)
        full = ce_differential(g, k)
        cols = sorted(rng.sample(range(len(src)), len(src) // 2))
        rows = sorted(rng.sample(range(len(dst)), len(dst) // 2))
        sub = ce_differential(g, k, ([src[c] for c in cols], [dst[r] for r in rows]))
        assert sub == Matrix(len(rows), len(cols), {
            (a, b): full.entries.get((r, c), 0)
            for a, r in enumerate(rows) for b, c in enumerate(cols)})


def _poincare_polynomial(exponents):
    """Coefficients of prod (1 + t^(2e + 1)) over the exponents e."""
    coeffs = [1]
    for e in exponents:
        shifted = [0] * (2 * e + 1) + coeffs
        coeffs = [a + b for a, b in zip(coeffs + [0] * (2 * e + 1), shifted)]
    return coeffs


@pytest.mark.parametrize("parts,exponents", [
    (["su2"], [1]),
    (["su3"], [1, 2]),
    (["su2", "su2"], [1, 1]),
    (["su3", "su2"], [1, 2, 1]),
    (["su3", "su3"], [1, 2, 1, 2]),
])
def test_compact_semisimple_betti_oracle(parts, exponents):
    """su(m) has exponents 1..m-1; a compact semisimple algebra has Poincare
    polynomial prod (1 + t^(2e + 1)) over the exponents of its simple parts."""
    g = builtin(parts[0])
    for name in parts[1:]:
        g = g.direct_sum(builtin(name))
    assert betti(g).betti == _poincare_polynomial(exponents)


def _closed_form(kind, size):
    """(algebra, Betti numbers) of abelian R^size, of h3 + R^size (the
    table (1, 2, 2, 1) times (1 + t)^size), or of the Heisenberg algebra
    h_{2m+1}, m = size: b_k = C(2m, k) - C(2m, k - 2) for k <= m, and
    Poincare duality above (Santharoubane, Proc. AMS 87, 1983)."""
    if kind == "abelian":
        return builtin(f"abelian:{size}"), [comb(size, k) for k in range(size + 1)]
    if kind == "h3+abelian":
        return (builtin("heisenberg").direct_sum(builtin(f"abelian:{size}")),
                [sum(h * comb(size, k - i) for i, h in enumerate([1, 2, 2, 1]) if i <= k)
                 for k in range(size + 4)])
    m = size
    z = "+".join(f"[{2 * i - 1},{2 * i}]" for i in range(1, m + 1))
    low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0) for k in range(m + 1)]
    return parse_salamon(",".join(["0"] * (2 * m) + [z])), low + low[::-1]


@pytest.mark.parametrize(
    "kind,size",
    [("abelian", n) for n in range(25)] + [("h3+abelian", a) for a in (1, 2, 5, 13, 21)]
    + [("heisenberg", m) for m in range(1, 6)])
def test_betti_closed_forms(kind, size):
    g, expect = _closed_form(kind, size)
    assert betti(g).betti == expect


def test_nilpotent_betti_lower_bound():
    # b_k >= 2 for 0 < k < n on nilpotent algebras of dimension <= 6
    for text in NILPOTENT:
        b = betti(parse_salamon(text)).betti
        assert all(x >= 2 for x in b[1:-1])


def test_lie_kernel_dims_su2():
    su2 = builtin("su2")
    assert [len(lie_kernel(su2, k)) for k in (1, 2, 3)] == [3, 0, 1]


def test_lie_kernel_is_a_basis_of_ker_lie_L():
    # lie_kernel reads L off d's transpose; here L comes from lie_L itself,
    # so the d/L duality stays checked
    for g in [parse_salamon(s) for s in CATALOG] + [builtin("su2"), builtin("su3")]:
        for k in range(g.n + 1):
            src, dst = basis_masks(g.n, k), basis_masks(g.n, k - 1)
            ker = lie_kernel(g, k)
            assert all(g.lie_L(v).is_zero() for v in ker)
            images = [g.lie_L(KVector(g.n, k, {m: Scalar(1)})) for m in src]
            rank = coordinate_matrix(images, dst).rank()
            assert len(ker) == len(src) - rank
            assert coordinate_matrix(ker, src).rank() == len(ker)


def _dense_kernel_basis(mat):
    """Matrix.kernel_basis as first written: one dense vector per free
    column, read off the RREF."""
    rows, pivots = mat.rref()
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(mat.cols) if j not in pivot_set):
        v = [Fraction(0)] * mat.cols
        for r, p in enumerate(pivots):
            if f in rows[r]:
                v[p] = -rows[r][f]
        v[f] = Fraction(1)
        basis.append(v)
    return basis


def _dense_lie_kernel(g, k):
    kernel = _dense_kernel_basis(ce_differential(g, k - 1).transpose())
    return [KVector.from_vector(g.n, k, basis_masks(g.n, k), v) for v in kernel]


def _dense_cocycle_basis(g, k):
    kernel = _dense_kernel_basis(ce_differential(g, k))
    return [KForm.from_vector(g.n, k, basis_masks(g.n, k), v) for v in kernel]


def _dense_cohomology_basis(g, k):
    """The cocycle-basis vectors that are pivot columns of [B | Z] past B,
    with every column a dense list."""
    masks = basis_masks(g.n, k)
    bmat = coboundary_matrix(g, k)
    b_cols = [bmat.column(j) for j in range(bmat.cols)]
    z_cols = _dense_kernel_basis(ce_differential(g, k))
    _, pivots = Matrix.from_columns(b_cols + z_cols, nrows=len(masks)).rref()
    return [KForm.from_vector(g.n, k, masks, z_cols[j - len(b_cols)])
            for j in pivots if j >= len(b_cols)]


def _check_dense_bases(g):
    """Same elements in the same order: the order is the trivial witness and
    the mm-solve kernel payload."""
    for k in range(g.n + 2):
        for new, dense in ((lie_kernel, _dense_lie_kernel), (cocycle_basis, _dense_cocycle_basis),
                           (cohomology_basis, _dense_cohomology_basis)):
            assert [x.to_json() for x in new(g, k)] == [x.to_json() for x in dense(g, k)]


@pytest.mark.parametrize("g", [parse_salamon(s) for s in CATALOG + NILPOTENT]
                         + [builtin("su2"), builtin("su3"), filiform(11)],
                         ids=CATALOG + NILPOTENT + ["su2", "su3", "L11"])
def test_sparse_bases_equal_the_dense_ones(g):
    _check_dense_bases(g)


@settings(max_examples=30, deadline=None)
@given(st.one_of(torus_algebras(), shuffled_sums().map(lambda case: case[1])))
def test_sparse_bases_equal_the_dense_ones_random(g):
    _check_dense_bases(g)


def test_ce_differential_shape_and_rank():
    g = parse_salamon("0,0,12")
    d1 = ce_differential(g, 1)
    assert d1.rank() == 1
    code = betti(g)
    assert code.cocycle_dims[1] == 2 and code.coboundary_dims[2] == 1


def test_is_trivial_catalog():
    for text in CATALOG:
        ok, witness = is_trivial(parse_salamon(text))
        assert ok and witness is None
    ok, witness = is_trivial(parse_salamon("0,0,12,13,14,15"))
    assert not ok and witness is not None


def test_nonvanishing_edge_cases():
    rep = betti(builtin("heisenberg"))
    assert rep.betti == [1, 2, 2, 1]
    assert rep.nonvanishing() == 3  # the paper's (3, 4) test; 4 > n names a zero group
    assert rep.nonvanishing((3, 1)) == 3  # the first listed degree, not the least
    assert rep.nonvanishing((4, 1, 2)) == 1
    assert rep.nonvanishing((0,)) == 0
    assert rep.nonvanishing((4, 5, 100)) is None
    assert rep.nonvanishing(()) is None
    with pytest.raises(DegreeError, match="^degree -1 is negative$"):
        rep.nonvanishing((3, -1))
    assert betti(parse_salamon(CATALOG[0])).nonvanishing() is None
    point = betti(builtin("abelian:0"))
    assert point.nonvanishing() is None and point.nonvanishing((0,)) == 0
    with pytest.raises(DegreeError, match="^degree -2 is negative$"):
        is_trivial(builtin("su2"), [3, -2])


def test_kernel_is_the_union_of_the_weight_block_kernels():
    """d on the 3-forms of n+(sl_4) is block-diagonal by weight, so the RREF
    kernel basis of the whole matrix is, vector for vector, the union of
    its blocks' kernel bases."""
    g, k = builtin("nplus:4"), 3

    def vectors(kernel, masks):
        out = [{} for _ in range(kernel.cols)]
        for (i, t), x in kernel.entries.items():
            out[t][masks[i]] = x
        return {frozenset(v.items()) for v in out}

    d = ce_differential(g, k)
    whole = vectors(d.kernel(), basis_masks(g.n, k))
    by_weight = list(_masks_by_weight(g.n, _weight_codes(g.n, g.diagonal_derivations())))
    rows = by_weight[k + 1]
    blocks = [vectors(ce_differential(g, k, (masks, rows.get(c, ()))).kernel(), masks)
              for c, masks in by_weight[k].items()]
    assert len(whole) == d.cols - d.rank()
    assert sum(1 for b in blocks if b) > 1
    assert whole == set().union(*blocks)


def test_cohomology_basis_is_a_basis_of_H():
    # closed representatives, independent modulo B^k, b_k of them
    for g in [parse_salamon(s) for s in CATALOG + NILPOTENT] + [builtin("su2"), builtin("su3")]:
        b = betti(g).betti
        for k in range(g.n + 1):
            masks = basis_masks(g.n, k)
            reps = cohomology_basis(g, k)
            assert len(reps) == b[k]
            assert all(d_form(g, z).is_zero() for z in reps)
            bmat = coboundary_matrix(g, k)
            joint = bmat.hstack(coordinate_matrix(reps, masks))
            assert joint.rank() == bmat.rank() + len(reps)


def test_is_trivial_witness_oracle():
    # the witness is the first cocycle-basis vector that is not exact
    for g in [parse_salamon(s) for s in CATALOG + NILPOTENT] + [builtin("su2")]:
        b = betti(g).betti
        for k in range(g.n + 2):
            ok, witness = is_trivial(g, [k])
            if k > g.n or b[k] == 0:
                assert ok and witness is None
            else:
                first = next(z for z in cocycle_basis(g, k) if not is_exact(g, z))
                assert not ok and witness == first


def test_is_exact():
    g = parse_salamon("0,0,12")
    assert is_exact(g, d_form(g, KForm.basis(3, (3,))))
    assert not is_exact(g, KForm.basis(3, (1,)))


def test_kunneth_oracles():
    su2 = builtin("su2")
    assert kunneth_check(su2, su2)
    assert betti(su2.direct_sum(su2)).betti[3] == 2
    r1 = builtin("abelian:1")
    assert betti(r1.direct_sum(su2)).betti[3] == 1
    aff = parse_salamon("0,12")
    assert betti(aff.direct_sum(aff)).betti[3] == 0
    assert kunneth_check(aff, parse_salamon("0,0,12"))


def _random_kvector(rng, n, k):
    masks = basis_masks(n, k)
    return KVector.from_vector(
        n, k, masks, [Scalar(rng.randint(-2, 2)) for _ in masks])


def _random_kform(rng, n, k):
    masks = basis_masks(n, k)
    return KForm.from_vector(
        n, k, masks, [Scalar(rng.randint(-2, 2)) for _ in masks])


def test_extended_cartan_random_sweep():
    rng = random.Random(2024)
    algebras = [builtin("su2"), parse_salamon("0,12,2.13"),
                parse_salamon("0,0,13+24,14"), parse_salamon("0,12,13,14,15")]
    for _ in range(60):
        g = algebras[rng.randrange(len(algebras))]
        r = rng.randint(2, min(3, g.n))
        s = rng.randint(r, g.n)
        p = _random_kvector(rng, g.n, r)
        a = _random_kform(rng, g.n, s)
        assert cartan_identity_check(g, p, a)


def test_extended_cartan_exhaustive_decomposables():
    for text in ["0,12", "0,0,12", "0,12,2.13"]:
        g = parse_salamon(text)
        n = g.n
        for r in range(2, n + 1):
            for s in range(r, n + 1):
                for pm in basis_masks(n, r):
                    for am in basis_masks(n, s):
                        p = KVector.basis(n, indices_of(pm))
                        a = KForm.basis(n, indices_of(am))
                        assert cartan_identity_check(g, p, a)


def test_invariant_closed_case():
    # for invariant closed alpha, d(p hook alpha) = L(p) hook alpha
    from lmmt.exterior import contract
    g = builtin("su2")
    for z in cocycle_basis(g, 3):
        if not all(lie_derivative(g, KVector.basis(3, (i,)), z).is_zero()
                   for i in range(1, 4)):
            continue
        for idx in combinations(range(1, 4), 2):
            p = KVector.basis(3, idx)
            assert d_form(g, contract(p, z)) == contract(g.lie_L(p), z)
