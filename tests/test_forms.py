"""Distinguished forms, stabilizers, stability, normal forms, constructions."""
import pytest

from lmmt.exterior import (KForm, KVector, basis_masks, contract, derivation, dim_lambda,
                           indices_of)
from lmmt.forms import (analyze, builtin_form, construct_nondegenerate,
                        fully_nondeg_admissible,
                        holonomy_identities, stability_admissible,
                        stabilizer_algebra, two_form_normal_form,
                        weak_nondegenerate)
from lmmt.liealg import builtin
from lmmt.linalg import Matrix
from lmmt.multimoment import triple_form
from lmmt.scalars import ZERO, FieldError, Scalar


def pullback(alpha, change):
    """alpha composed with the column basis of change: its e^I coefficient
    is alpha evaluated on the columns I, by iterated contraction."""
    n = alpha.n
    cols = KVector.from_matrix(n, 1, basis_masks(n, 1), change)

    def evaluate(mask):
        acc = alpha
        for i in indices_of(mask):
            acc = contract(cols[i - 1], acc)
        return acc.terms.get(0, ZERO)

    return KForm(n, alpha.degree, {mask: evaluate(mask) for mask in basis_masks(n, alpha.degree)})


def test_builtin_term_counts():
    assert len(builtin_form("g2").terms) == 7
    assert len(builtin_form("spin7").terms) == 14
    assert len(builtin_form("psu3").terms) == 9
    assert len(builtin_form("cvol6").terms) == 4


def test_psu3_needs_sqrt3():
    builtin_form("psu3", sqrt=3)
    with pytest.raises(FieldError):
        builtin_form("psu3", sqrt=2)


def test_psu3_is_the_triple_form_of_su3():
    """psu3 and su3 are read from one f_abc table: phi(X, Y, Z) = <[X, Y], Z>
    for the inner product that makes the Gell-Mann basis orthonormal."""
    assert builtin_form("psu3") == triple_form(builtin("su3"), Matrix.identity(8).to_rows())


def test_symplectic_builtin():
    w = builtin_form("symplectic(2,6)")
    assert w.degree == 2 and w.n == 6
    assert len(w.terms) == 2


def test_stabilizer_dims():
    assert len(stabilizer_algebra(builtin_form("g2"))) == 14
    assert len(stabilizer_algebra(builtin_form("spin7"))) == 21
    assert len(stabilizer_algebra(builtin_form("psu3"))) == 8
    assert len(stabilizer_algebra(builtin_form("cvol6"))) == 16


def test_analyze_orbit_dims_and_stability():
    a = analyze(builtin_form("g2"))
    assert a.orbit_dim == 35 and a.stable and a.weakly_nondegenerate
    b = analyze(builtin_form("spin7"))
    assert b.orbit_dim == 43 and not b.stable
    c = analyze(builtin_form("psu3"))
    assert c.orbit_dim == 56 and c.stable
    d = analyze(builtin_form("cvol6"))
    assert d.orbit_dim == 20 and d.stable


def test_orbit_open_iff_full_degree_dimension():
    a = analyze(builtin_form("g2"))
    assert a.orbit_dim == dim_lambda(7, 3)
    b = analyze(builtin_form("spin7"))
    assert b.orbit_dim < dim_lambda(8, 4)


def test_stabilizer_annihilates_form():
    # each stabilizer element really acts trivially, via first-order action:
    # the derivation sending e^a to the sum of the entries (b, a) times e^b
    alpha = builtin_form("g2")
    for mat in stabilizer_algebra(alpha)[:3]:
        images = {}
        for (b, a), c in mat.entries.items():
            images.setdefault(a + 1, {})[1 << b] = c
        assert derivation(alpha, images, 0).is_zero()


def test_weak_nondegeneracy():
    assert weak_nondegenerate(builtin_form("g2"))
    assert weak_nondegenerate(builtin_form("spin7"))
    degenerate = KForm.basis(5, (1, 2, 3))
    assert not weak_nondegenerate(degenerate)
    # the vectors e_4, e_5 contract e^123 to zero
    assert analyze(degenerate).kernel == Matrix(5, 2, {(3, 0): 1, (4, 1): 1})


def test_zero_form_has_no_slot_to_contract():
    """A 0-form is a constant: every vector contracts it to zero, so it is
    degenerate for n >= 1, and all of gl(n) fixes it."""
    for terms in ({}, {0: 1}):
        alpha = KForm(2, 0, terms)
        assert analyze(alpha).kernel == Matrix.identity(2)
        assert not weak_nondegenerate(alpha)
        report = analyze(alpha)
        assert (report.stabilizer_dim, report.orbit_dim, report.stable) == (4, 0, False)


def test_two_form_normal_form_oracle():
    w = KForm.basis(4, (1, 2)) + KForm.basis(4, (3, 4))
    res = two_form_normal_form(w)
    assert res.k == 2
    degenerate = KForm.basis(5, (1, 2), 3)
    assert two_form_normal_form(degenerate).k == 1


def test_two_form_normal_form_round_trip():
    # pulling back along the inverse change-of-basis recovers the model form
    w = (KForm.basis(4, (1, 3), 2) + KForm.basis(4, (1, 4), -1)
         + KForm.basis(4, (2, 3), 5))
    res = two_form_normal_form(w)
    model = sum((KForm.basis(4, (2 * i + 1, 2 * i + 2))
                 for i in range(res.k)), KForm.zero(4, 2))
    assert pullback(w, res.basis_change) == model


def test_normal_form_rank_matches_matrix_rank():
    import random
    rng = random.Random(5)
    n = 5
    for _ in range(15):
        rows = [[Scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = Scalar(rng.randint(-2, 2))
                rows[i][j] = x
                rows[j][i] = -x
        w = KForm.from_terms(
            n, [((i + 1, j + 1), rows[i][j]) for i in range(n)
                for j in range(i + 1, n)])
        res = two_form_normal_form(w)
        assert 2 * res.k == Matrix.from_rows(rows).rank()


def test_construct_nondegenerate_grid():
    for n in range(3, 9):
        for r in range(3, n + 1):
            got = construct_nondegenerate(r, n)
            if n == r + 1 and r >= 2:
                assert got is None
            else:
                assert got is not None
                assert got.degree == r and got.n == n
                assert weak_nondegenerate(got)


def _recursive_nondegenerate(r, n):
    """construct_nondegenerate's r > 3 case as a recursion on (r, n) that
    splits off the last coordinate: the loop must build the same form."""
    if r == 3 or n < r or n == r + 1 or r == n:
        return construct_nondegenerate(r, n)
    inner = _recursive_nondegenerate(r - 1, n - 1)
    return KForm(n, r - 1, dict(inner.terms)).wedge(KForm.basis(n, [n]))


def test_construct_nondegenerate_loop_equals_the_recursion():
    for n in range(13):
        for r in range(4, 13):
            got, want = construct_nondegenerate(r, n), _recursive_nondegenerate(r, n)
            assert got == want and (got is None or list(got.terms) == list(want.terms))


def test_construct_nondegenerate_large_degree():
    """A degree far past the interpreter's recursion limit is built, one
    wedge per degree above 3."""
    got = construct_nondegenerate(1500, 1502)
    assert (got.degree, got.n) == (1500, 1502)
    assert got == KForm(1502, 1497, dict(construct_nondegenerate(1497, 1499).terms)).wedge(
        KForm.basis(1502, range(1500, 1503)))


def test_construct_nondegenerate_known_values():
    assert construct_nondegenerate(3, 4) is None
    got = construct_nondegenerate(3, 6)
    assert got is not None and weak_nondegenerate(got)
    assert construct_nondegenerate(7, 7) is not None


def test_admissibility_tables():
    assert stability_admissible(3, 7)
    assert stability_admissible(2, 6)
    assert not stability_admissible(4, 9)
    assert not stability_admissible(3, 9)
    assert stability_admissible(5, 8)  # n - 3 with n = 8
    assert fully_nondeg_admissible(3, 7)
    assert fully_nondeg_admissible(4, 8)
    assert fully_nondeg_admissible(5, 5)
    assert not fully_nondeg_admissible(3, 8)
    assert not fully_nondeg_admissible(4, 7)


def test_holonomy_identities_all_hold():
    for which in ("g2metric", "spin7vol", "spin7bivector", "spin7split"):
        assert holonomy_identities(which)["ok"]


def test_g2metric_diagonal():
    out = holonomy_identities("g2metric")
    assert out["ok"]
