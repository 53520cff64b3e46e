"""Ideal splittings, invariant cohomology, low-degree spectral pages,
structure verdicts for algebras with trivial degree-3/4 cohomology."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bracket_basis
from lmmt.claims import CATALOG, NILPOTENT
from lmmt import linalg, spectral
from lmmt.cohomology import (betti, coboundary_matrix, cohomology_basis, d_form, direct_betti,
                              is_exact)
from lmmt.exterior import KForm, KVector, basis_masks, contract, coordinate_matrix, dim_lambda
from lmmt.liealg import (Derivation, LieAlgebra, builtin, extend_by_derivations, parse_salamon,
                         structural_report)
from lmmt.linalg import Matrix, extend_basis
from lmmt.scalars import Scalar
from lmmt.spectral import (IdealSplit, SplitError, _coordinates, _quotient_functional_ideals,
                           abelian_eigen_criterion, diagonal_extension, hs_page,
                           invariant_cohomology, search_34_extensions,
                           verify_34_structure)


def test_split_validates_ideal():
    g = parse_salamon("0,12,2.13")
    IdealSplit.from_indices(g, [2, 3])
    with pytest.raises(SplitError, match="not an ideal"):
        # span(e1, e2) is not an ideal: [e1, e3] = -2 e3
        IdealSplit.from_indices(g, [1, 2])


def test_split_requires_derived_in_ideal():
    g = parse_salamon("0,12,2.13")
    with pytest.raises(SplitError, match="misses g'"):
        # abelian quotient needed: g' = span(e2, e3) must sit inside the ideal
        IdealSplit.from_indices(g, [3])


def test_split_rejects_a_basis_of_wrong_size():
    g = parse_salamon("0,12,2.13")
    e = Matrix.identity(3).to_rows()
    with pytest.raises(SplitError, match="do not span"):
        # four vectors spanning R^3
        IdealSplit(g, Matrix.from_columns([e[1], e[2], e[0], e[1]]), 2)
    with pytest.raises(SplitError, match="do not span"):
        IdealSplit(g, Matrix.from_columns([e[1], e[2], e[1]]), 2)  # rank 2
    with pytest.raises(SplitError, match="ideal dimension 4 is outside 0..3"):
        IdealSplit(g, Matrix.identity(3), 4)


def test_from_indices_names_a_bad_index():
    g = parse_salamon("0,0,12")
    with pytest.raises(SplitError, match="^repeated index 1 in the ideal$"):
        IdealSplit.from_indices(g, [1, 1, 3])
    with pytest.raises(SplitError, match=r"^ideal index 0 is outside 1\.\.3$"):
        IdealSplit.from_indices(g, [0, 3])
    with pytest.raises(SplitError, match=r"^ideal index 4 is outside 1\.\.3$"):
        IdealSplit.from_indices(g, [2, 4])


def test_from_indices_equals_the_explicit_basis():
    """from_indices against IdealSplit on the explicit matrix of unit
    columns, ideal first in the given order and then the rest in increasing
    order: the same adapted algebra, ideal and codimension."""
    for text in CATALOG + NILPOTENT:
        g = parse_salamon(text)
        e = Matrix.identity(g.n).to_rows()
        for ideal in ([*range(2, g.n + 1)], [*range(g.n, 1, -1)], [*range(3, g.n + 1)]):
            try:
                split = IdealSplit.from_indices(g, ideal)
            except SplitError:
                continue
            rest = [i for i in range(1, g.n + 1) if i not in ideal]
            explicit = IdealSplit(g, Matrix.from_columns([e[i - 1] for i in ideal + rest]),
                                  len(ideal))
            assert split.adapted.brackets == explicit.adapted.brackets
            assert (split.m, split.codim) == (explicit.m, explicit.codim)
            assert split.ideal_algebra().brackets == explicit.ideal_algebra().brackets


def test_adapted_is_computed_once_and_not_passed_in():
    """The adapted algebra is a cached property, not a constructor field a
    caller could fill with some other algebra."""
    g = parse_salamon("0,0,13+24,14")
    with pytest.raises(TypeError):
        IdealSplit(g, Matrix.identity(4), 3, g)
    split = IdealSplit.from_indices(g, [2, 3, 4])
    assert split.adapted is split.adapted
    assert "adapted" not in repr(split)


def test_ideal_algebra_and_codim():
    g = parse_salamon("0,0,13+24,14")
    split = IdealSplit.from_indices(g, [2, 3, 4])
    assert split.codim == 1 and split.m == 3
    assert split.ideal_algebra().n == 3


def test_invariant_cohomology_oracle():
    g = parse_salamon("0,12,2.13")
    split = IdealSplit.from_indices(g, [2, 3])
    inv = invariant_cohomology(split, 1)
    # the abelian ideal has H^1 of dimension 2, but e1 acts with
    # eigenvalues 1 and 2, so no invariants survive
    assert inv.dim_H == 2 and inv.dim_invariant == 0


def test_invariant_cohomology_trivial_action():
    g = builtin("abelian:1").direct_sum(parse_salamon("0,0,12"))
    split = IdealSplit.from_indices(g, [2, 3, 4])
    inv = invariant_cohomology(split, 1)
    assert inv.dim_H == 2 and inv.dim_invariant == 2


def _acted(split, form, a):
    """e_a . d(form) in the adapted basis, form a q-form on k lifted to g,
    then restricted to k: one contract per direction, and only the masks
    below 2^m kept."""
    m, n = split.m, split.g.n
    da = d_form(split.adapted, KForm(n, form.degree, dict(form.terms)))
    acted = contract(KVector.basis(n, [a]), da)
    return KForm(m, acted.degree, {mask: c for mask, c in acted.terms.items() if mask < 1 << m})


def _split_on(g, ideal):
    """The split of g whose ideal has the columns of ideal, completed by the
    unit vectors outside their span."""
    return IdealSplit(g, ideal.hstack(extend_basis(ideal, Matrix.identity(g.n))), ideal.cols)


def test_invariant_basis_is_invariant():
    # each form is closed in k, every quotient direction A has A . da exact
    # in k, and the forms are independent modulo the coboundaries
    for text in CATALOG + NILPOTENT:
        g = parse_salamon(text)
        try:
            split = IdealSplit.from_indices(g, list(range(2, g.n + 1)))
        except SplitError:
            continue
        m, k = split.m, split.ideal_algebra()
        for q in range(min(m, 4) + 1):
            inv = invariant_cohomology(split, q)
            forms = inv.invariant_basis
            assert len(forms) == inv.dim_invariant
            for f in forms:
                assert d_form(k, f).is_zero()
                for a in range(m + 1, g.n + 1):
                    assert is_exact(k, _acted(split, f, a))
            masks = basis_masks(m, q)
            bmat = coboundary_matrix(k, q)
            joint = bmat.hstack(coordinate_matrix(forms, masks))
            assert joint.rank() == bmat.rank() + len(forms)


def test_hs_page_codim_one_reconstructs_betti():
    g = parse_salamon("0,12,13,14,1.15")
    split = IdealSplit.from_indices(g, list(range(2, 6)))
    page = hs_page(split, 2, max_q=4)
    b = betti(g).betti
    for k in (3, 4):
        assert page.table[(0, k)] + page.table[(1, k - 1)] == b[k]


def test_hs_page_codim_two_oracle():
    g = parse_salamon("0,0,13+24,14")
    split = IdealSplit.from_indices(g, [3, 4])
    page = hs_page(split, 2, max_q=2)
    assert [page.table[(p, 0)] for p in (0, 1, 2)] == [1, 2, 1]
    assert all(page.table[(p, q)] == 0 for p in (0, 1, 2) for q in (1, 2))


def test_verify_34_catalog_agrees_true():
    for text in CATALOG:
        verdict = verify_34_structure(parse_salamon(text))
        assert verdict.direct and verdict.structural and verdict.agrees


def test_verify_34_negative_case_agrees():
    verdict = verify_34_structure(parse_salamon("0,12,-1.13"))
    assert not verdict.direct and not verdict.structural and verdict.agrees
    heis = verify_34_structure(parse_salamon("0,0,12"))
    assert not heis.direct and heis.agrees


def test_verify_34_nonsolvable():
    verdict = verify_34_structure(builtin("su2"))
    assert not verdict.structural and verdict.agrees


def test_eigen_criterion_oracles():
    assert abelian_eigen_criterion([Fraction(1), Fraction(2)])
    assert not abelian_eigen_criterion([Fraction(1), Fraction(-1)])
    assert not abelian_eigen_criterion([Fraction(0), Fraction(0)])
    assert not abelian_eigen_criterion(
        [Fraction(1), Fraction(2), Fraction(-3)])
    assert not abelian_eigen_criterion(
        [Fraction(1), Fraction(1), Fraction(2), Fraction(-4)])
    assert abelian_eigen_criterion([Fraction(1), Fraction(1), Fraction(1)])


def test_diagonal_extension_salamon():
    g = diagonal_extension([Fraction(1), Fraction(2)])
    assert g.to_salamon() == "0,12,2.13"


def test_criterion_predicts_triviality():
    from itertools import product
    for lams in product(range(-2, 3), repeat=2):
        f = [Fraction(x) for x in lams]
        g = diagonal_extension(f)
        b = betti(g).betti
        direct = all(b[k] == 0 for k in (3, 4) if k <= g.n)
        assert abelian_eigen_criterion(f) == direct


def test_search_34_extensions():
    found = search_34_extensions(2, (1, 2))
    eigs = sorted(tuple(str(x) for x in c["eigenvalues"]) for c in found)
    assert eigs == [("1", "1"), ("1", "2"), ("2", "2")]
    for cert in found:
        assert cert["criterion"] and cert["agrees"]
        assert cert["betti"][3] == 0


# -- hyperplane ideals containing g', and the batched solves on them --------

FIXED = ([parse_salamon(t) for t in CATALOG + NILPOTENT + ["0,12,-1.13"]]
         + [builtin("abelian:4")])


def _hyperplane_splits(g):
    ideals = _quotient_functional_ideals(g, structural_report(g).derived_basis)
    return [_split_on(g, ideal) for ideal in ideals]


def _dense_bracket(g, u, v):
    """[u, v] of two dense coordinate lists, summed over every pair of
    basis indices."""
    out = [Fraction(0)] * g.n
    for i, ui in enumerate(u, start=1):
        for j, vj in enumerate(v, start=1):
            for k, c in bracket_basis(g, i, j).items():
                out[k - 1] += ui * vj * c
    return out


def _adapted_by_pairs(split):
    """The adapted brackets, one Matrix.solve per bracket pair."""
    g, n, mat = split.g, split.g.n, split.basis
    basis = [mat.column(j) for j in range(n)]
    brackets = {}
    for i, j in combinations(range(n), 2):
        w = mat.solve(_dense_bracket(g, basis[i], basis[j]))
        brackets[(i + 1, j + 1)] = {k + 1: x for k, x in enumerate(w) if x}
    return LieAlgebra(n, brackets, validate=False).brackets


def _operators_by_vector(split, q):
    """The quotient operators on H^q(k), one Matrix.solve per acted vector
    in a basis of the coboundaries followed by the representatives."""
    m, n, k = split.m, split.g.n, split.ideal_algebra()
    masks = basis_masks(m, q)
    reps = cohomology_basis(k, q)
    span = coboundary_matrix(k, q).column_space_basis() + [
        coordinate_matrix([r], masks).column(0) for r in reps]
    mat = Matrix.from_columns(span, nrows=len(masks))
    ops = []
    for a in range(m + 1, n + 1):
        cols = []
        for rep in reps:
            x = mat.solve(coordinate_matrix([_acted(split, rep, a)], masks).column(0))
            cols.append(x[len(span) - len(reps):])
        ops.append(Matrix.from_columns(cols, nrows=len(reps)))
    return ops


@pytest.mark.parametrize("g", FIXED, ids=lambda g: g.to_salamon())
def test_batched_solves_match_one_solve_per_vector(g):
    splits = _hyperplane_splits(g)
    # with dim g/g' >= 2 the grid's sum and difference hyperplanes are not
    # coordinate splits
    if len(splits) > 1:
        assert any(sum(1 for i, j in s.basis.entries if j == t) > 1
                   for s in splits for t in range(s.m))
    for split in splits:
        assert split.adapted.brackets == _adapted_by_pairs(split)
        for q in range(min(split.m, 4) + 1):
            assert invariant_cohomology(split, q).operators == _operators_by_vector(split, q)


RATIONAL_VALUES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
SQRT2_VALUES = RATIONAL_VALUES + [Scalar(0, 1, 2), Scalar(1, -1, 2), Scalar(Fraction(1, 2), 1, 2)]


def _matmul(a, b):
    return [[sum((x * b[t][c] for t, x in enumerate(row)), Fraction(0)) for c in range(len(b))]
            for row in a]


@st.composite
def solvable_algebras(draw):
    """Solvable algebras of dimension <= 7 over Q or Q(sqrt 2): abelian R^r
    extended by an upper-triangular D1 and, for two generators, D2 = c0 + c1
    D1 + c2 D1^2, which commutes with it; or a nilpotent algebra extended by
    one or two combinations of its diagonal derivations.  An invertible D1
    or nonzero weights make g' the whole of R^r or k, of codimension 1 or 2.
    With two generators their bracket may be a multiple of e_n."""
    values = st.sampled_from(draw(st.sampled_from([RATIONAL_VALUES, SQRT2_VALUES])))
    p = draw(st.integers(1, 2))
    if draw(st.booleans()):
        r = draw(st.integers(1, 5 if p == 1 else 4))
        k = builtin(f"abelian:{r}")
        d1 = [[draw(values) if row <= col else Fraction(0) for col in range(r)] for row in range(r)]
        d1d1 = _matmul(d1, d1)
        c0, c1, c2 = draw(values), draw(values), draw(values)
        d2 = [[(c0 if row == col else 0) + c1 * d1[row][col] + c2 * d1d1[row][col]
               for col in range(r)] for row in range(r)]
        mats = [d1, d2][:p]
    else:
        k = parse_salamon(draw(st.sampled_from(["0,0,12", "0,0,12,13", "0,0,0,12", "0,0,12,13,14"])))
        torus = list(k.diagonal_derivations().values())
        mats = []
        for _ in range(p):
            coeffs = [draw(values) for _ in torus]
            w = [sum((c * t.get(i, 0) for c, t in zip(coeffs, torus)), Fraction(0))
                 for i in range(1, k.n + 1)]
            mats.append([[w[row] if row == col else 0 for col in range(k.n)] for row in range(k.n)])
    g = extend_by_derivations(k, [Derivation.from_rows(k, rows) for rows in mats])
    c = draw(values)
    if p == 2 and c:
        # [x1, x2] = c z for z = e_n, central in k: then A1 . dA2 reaches the
        # masks past those of k, which the restriction has to cut
        g = LieAlgebra(g.n, {**g.brackets, (1, 2): {g.n: c}})
    return g


@settings(max_examples=60, deadline=None)
@given(solvable_algebras())
def test_operators_match_one_solve_per_vector_random(g):
    """The quotient operators from the contraction matrices against one
    contract and one solve per acted vector, on the hyperplane grid and, when
    it has codimension 2 or more, on g' itself, as verify_34_structure
    takes them."""
    srep = structural_report(g)
    splits = _hyperplane_splits(g)
    if srep.codim_derived >= 2:
        splits.append(_split_on(g, srep.derived_basis))
    for split in splits:
        for q in range(min(split.m, 4) + 1):
            assert invariant_cohomology(split, q).operators == _operators_by_vector(split, q)


def test_coordinates_and_escape():
    one, zero = Fraction(1), Fraction(0)
    xs = _coordinates(Matrix.from_columns([[one, one, zero], [zero, one, zero]]),
                      Matrix.from_columns([[2 * one, 3 * one, zero], [zero, zero, zero]]))
    assert xs == [{0: 2, 1: 1}, {}]  # (2, 3, 0) = 2 (1, 1, 0) + (0, 1, 0)
    with pytest.raises(SplitError, match="escapes"):
        _coordinates(Matrix.from_columns([[one, zero, zero]]),
                     Matrix.from_columns([[one, zero, zero], [zero, zero, one]]))


# -- split validity and the codimension-2 page, against oracles -------------

ORACLE_ALGEBRAS = ([parse_salamon(t) for t in CATALOG + NILPOTENT]
                   + [builtin("su2"), builtin("heisenberg"), builtin("borel:3")])
NOT_IDEAL, MISSES = "subspace is not an ideal", "quotient is not abelian: ideal misses g'"


def _verdict(g, basis, m):
    """"ok", or the message of the SplitError that IdealSplit raises."""
    try:
        IdealSplit(g, basis, m)
    except SplitError as exc:
        return str(exc)
    return "ok"


def _set_verdict(g, ideal):
    """The verdict on span(e_i : i in ideal), read off the stored brackets
    with plain sets."""
    ideal = set(ideal)
    escaping = [(i, j) for (i, j), comp in g.brackets.items() if not set(comp) <= ideal]
    if any(i in ideal or j in ideal for i, j in escaping):
        return NOT_IDEAL
    return MISSES if escaping else "ok"


def _span_verdict(g, basis, m):
    """The verdict on the span k of the first m columns of basis, from rank
    tests on brackets of dense vectors: [e_i, k] in k, then every [e_i, e_j]
    in k."""
    cols = [basis.column(j) for j in range(g.n)]
    units = Matrix.identity(g.n).to_rows()

    def inside(vectors):
        k = Matrix.from_columns(cols[:m], nrows=g.n)
        return Matrix.from_columns(cols[:m] + vectors, nrows=g.n).rank() == k.rank()

    if not inside([_dense_bracket(g, e, c) for e in units for c in cols[:m]]):
        return NOT_IDEAL
    return "ok" if inside([_dense_bracket(g, e, f) for e in units for f in units]) else MISSES


@pytest.mark.parametrize("g", ORACLE_ALGEBRAS, ids=lambda g: g.to_salamon())
def test_split_verdict_on_every_index_subset(g):
    for size in range(g.n + 1):
        for ideal in combinations(range(1, g.n + 1), size):
            rest = [i for i in range(1, g.n + 1) if i not in ideal]
            basis = Matrix(g.n, g.n, {(i - 1, t): 1 for t, i in enumerate([*ideal, *rest])})
            assert _verdict(g, basis, size) == _set_verdict(g, ideal)


def test_split_verdict_on_non_unit_bases():
    """Two bases of sums of unit vectors, b_j = e_j + e_(j+1) and
    b_j = e_j + ... + e_n, every ideal dimension m: the verdict of the rank
    tests, and all three verdicts occur."""
    seen = set()
    for g in ORACLE_ALGEBRAS:
        n = g.n
        bases = [Matrix(n, n, {**{(j, j): 1 for j in range(n)},
                               **{(j + 1, j): 1 for j in range(n - 1)}}),
                 Matrix(n, n, {(i, j): 1 for j in range(n) for i in range(j, n)})]
        for basis in bases:
            for m in range(n + 1):
                verdict = _verdict(g, basis, m)
                assert verdict == _span_verdict(g, basis, m)
                seen.add(verdict)
    assert seen == {"ok", NOT_IDEAL, MISSES}


def _koszul_table(split, max_q):
    """E2^{p,q} of a codimension-2 split from the Koszul complex of its two
    operators, both maps built here with their signs:
    x -> (A1 x, A2 x) and (u, w) -> A1 w - A2 u."""
    table = {}
    for q in range(max_q + 1):
        a1, a2 = invariant_cohomology(split, q).operators
        v = a1.cols
        first = a1.vstack(a2)
        second = Matrix(v, v, {ij: -x for ij, x in a2.entries.items()}).hstack(a1)
        assert second @ first == Matrix.zero(v, v)  # the operators commute
        r1, r2 = first.rank(), second.rank()
        table.update({(0, q): v - r1, (1, q): (2 * v - r2) - r1, (2, q): v - r2})
    return table


def test_hs_page_codim_two_against_the_signed_koszul_maps():
    checked = 0
    for g in ORACLE_ALGEBRAS:
        for ideal in combinations(range(1, g.n + 1), g.n - 2):
            try:
                split = IdealSplit.from_indices(g, list(ideal))
            except SplitError:
                continue
            assert hs_page(split, 2, max_q=4).table == _koszul_table(split, 4)
            checked += 1
    assert checked >= 10


def _count_eliminations(monkeypatch):
    """A list that grows by one at every call of linalg._rref."""
    calls, rref = [], linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *a, **k: calls.append(1) or rref(*a, **k))
    return calls


def test_a_split_is_one_elimination(monkeypatch):
    """The span check comes from the elimination that gives the adapted
    brackets; every SplitError message keeps its order."""
    g = parse_salamon("0,0,13+24,14")
    calls = _count_eliminations(monkeypatch)
    split = IdealSplit.from_indices(g, [2, 3, 4])
    split.adapted
    assert len(calls) == 1
    singular = Matrix(4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 2): 1})
    for basis, m in ((singular, 3), (singular, 7)):
        with pytest.raises(SplitError, match="^ideal and complement do not span$"):
            IdealSplit(g, basis, m)
    with pytest.raises(SplitError, match="outside 0..4"):
        IdealSplit(g, Matrix.identity(4), 5)


def test_level_one_pages_are_the_ideal_betti_numbers(monkeypatch):
    """E1^{p,q} = C(codim, p) b_q(k), b_q = 0 past dim k, on every valid
    split of codimension 1 or 2 by unit vectors, against direct_betti; no
    invariant cohomology is computed at level 1."""

    def forbidden(*args):
        raise AssertionError("level 1 computed invariant cohomology")

    monkeypatch.setattr(spectral, "invariant_cohomology", forbidden)
    checked = 0
    for g in ORACLE_ALGEBRAS[:-1]:  # all but borel:3
        for codim in (1, 2):
            for ideal in combinations(range(1, g.n + 1), g.n - codim):
                try:
                    split = IdealSplit.from_indices(g, list(ideal))
                except SplitError:
                    continue
                b = direct_betti(split.ideal_algebra()).betti
                expected = {(p, q): dim_lambda(codim, p) * (b[q] if q <= split.m else 0)
                            for q in range(split.m + 2) for p in range(codim + 1)}
                assert hs_page(split, 1, split.m + 1).table == expected
                checked += 1
    assert checked >= 40
