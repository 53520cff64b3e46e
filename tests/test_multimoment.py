"""Multi-moment solving, orbit-stabilizer condition, inner-product three-forms."""
import pytest

from conftest import bracket_basis
from lmmt import cohomology, multimoment
from lmmt.cohomology import betti, ce_differential, cocycle_basis, d_form, is_exact
from lmmt.exterior import KForm
from lmmt.liealg import builtin, parse_salamon
from lmmt.multimoment import (Cocycle, PDualElement, d_P, orbit_stab_condition,
                              solutions_to_json, solve_multimoment, solve_multimoments,
                              triple_form)
from lmmt.scalars import Scalar


def test_cocycle_rejects_non_closed():
    g = parse_salamon("0,0,12")
    with pytest.raises(ValueError):
        Cocycle.checked(g, KForm.basis(3, (3,)))
    assert Cocycle.checked(g, KForm.basis(3, (1, 2))).degree == 2


def test_cocycle_rejects_a_form_of_another_degree():
    """A 4-form given as a 3-cocycle is an error, not a solve that reads none
    of its terms."""
    with pytest.raises(ValueError, match="degree mismatch"):
        Cocycle(3, KForm.basis(5, (1, 2, 3, 4)))


def same_class(g, a, b):
    """Whether two representatives differ by a coboundary."""
    return is_exact(g, a.representative - b.representative)


def test_pdual_class_representatives():
    g = parse_salamon("0,0,12")
    a = PDualElement(2, KForm.basis(3, (1, 3)))
    b = PDualElement(2, KForm.basis(3, (1, 3)) + KForm.basis(3, (1, 2)))
    # e12 is a coboundary, so the two representatives name the same class
    assert same_class(g, a, b)
    assert not same_class(g, a, PDualElement(2, KForm.basis(3, (2, 3))))


def test_d_P_well_defined_on_classes():
    g = parse_salamon("0,0,12")
    a = PDualElement(1, KForm.basis(3, (1,)))
    assert d_P(g, a).is_zero()
    b = PDualElement(1, KForm.basis(3, (3,)))
    assert d_P(g, b) == KForm.basis(3, (1, 2))


def test_unique_solutions_on_b34_trivial_algebra():
    g = parse_salamon("0,12,13,14,15")
    assert betti(g).betti[3] == 0 and betti(g).betti[4] == 0
    for z in cocycle_basis(g, 4):
        sol = solve_multimoment(g, Cocycle(4, z))
        assert sol.status == "unique"
        assert sol.kernel == []
        assert d_form(g, sol.nu.representative) == z


def test_su2_obstruction():
    su2 = builtin("su2")
    identity = [[Scalar(1) if i == j else Scalar(0) for j in range(3)]
                for i in range(3)]
    gamma = triple_form(su2, identity)
    sol = solve_multimoment(su2, Cocycle(3, gamma))
    assert sol.status == "no-existence"
    assert sol.obstruction is not None
    assert not is_exact(su2, sol.obstruction)


def test_nonunique_kernel_on_heisenberg():
    g = parse_salamon("0,0,12")
    # d e3 = e12 is exact; solutions differ by the two closed 1-form classes
    sol = solve_multimoment(g, Cocycle(2, KForm.basis(3, (1, 2))))
    assert sol.status == "non-unique"
    assert len(sol.kernel) == betti(g).betti[1] == 2
    assert d_form(g, sol.nu.representative) == KForm.basis(3, (1, 2))


def test_kernel_is_a_basis_of_H_r_minus_1():
    # five cocycle-basis 3-forms are not exact here, but b_3 = 4
    g = parse_salamon("0,0,12,13,14,15")
    psi = next(z for z in cocycle_basis(g, 4) if is_exact(g, z))
    sol = solve_multimoment(g, Cocycle(4, psi))
    assert sol.status == "non-unique"
    assert len(sol.kernel) == betti(g).betti[3] == 4


@pytest.mark.parametrize("salamon", ["0,0,12", "0,0,12,13", "0,12,13,14,1.15", "0,0,13+24,14"])
def test_batched_solutions_equal_single_solves(salamon):
    """One elimination of [d | Z] per degree gives, cocycle by cocycle, what
    one solve per cocycle gives: statuses, particular solutions, kernels."""
    g = parse_salamon(salamon)
    for r in range(1, g.n + 1):
        psis = [Cocycle(r, z) for z in cocycle_basis(g, r)]
        batch = solve_multimoments(g, psis)
        assert [s.to_json() for s in batch] == [solve_multimoment(g, p).to_json() for p in psis]


@pytest.mark.parametrize("salamon", ["0,0,12", "0,0,12,13", "0,12,13,14,1.15", "0,0,13+24,14"])
def test_solutions_to_json_equals_each_to_json(salamon):
    """The kernel shared by a batch is serialised once, into equal entries;
    solutions of several batches keep their own kernels."""
    g = parse_salamon(salamon)
    every = []
    for r in range(1, g.n + 1):
        batch = solve_multimoments(g, [Cocycle(r, z) for z in cocycle_basis(g, r)])
        assert solutions_to_json(batch) == [s.to_json() for s in batch]
        every += batch
    assert solutions_to_json(every) == [s.to_json() for s in every]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_one_degree_builds_each_differential_once(monkeypatch, r):
    """A batch builds d on (r-1)-forms once, for its solve and for the basis
    of H^(r-1), and d on (r-2)-forms for the coboundaries when r >= 2 and
    some cocycle is solvable."""
    calls = []

    def counted(g, k, block=None):
        calls.append(k)
        return ce_differential(g, k, block)

    g = parse_salamon("0,12,13,14,15")
    psis = [Cocycle(r, z) for z in cocycle_basis(g, r)]
    monkeypatch.setattr(cohomology, "ce_differential", counted)
    monkeypatch.setattr(multimoment, "ce_differential", counted)
    sols = solve_multimoments(g, psis)
    solvable = any(s.status != "no-existence" for s in sols)
    assert solvable == (r > 1)
    assert calls == [r - 1] + ([r - 2] if solvable else [])


def test_batched_solutions_edge_cases():
    g = parse_salamon("0,0,12")
    # e12 = d(-e3) is exact, e13 and e23 are not: one batch, both outcomes
    psis = [Cocycle(2, KForm.basis(3, m)) for m in ((1, 2), (1, 3), (2, 3))]
    assert [s.status for s in solve_multimoments(g, psis)] == [
        "non-unique", "no-existence", "no-existence"]
    assert solve_multimoments(g, []) == []
    with pytest.raises(ValueError):
        solve_multimoments(g, [Cocycle(1, KForm.basis(3, (1,))), Cocycle(2, KForm.basis(3, (1, 2)))])


def test_solution_json():
    g = parse_salamon("0,12,13,14,15")
    sol = solve_multimoment(g, Cocycle(4, cocycle_basis(g, 4)[0]))
    payload = sol.to_json()
    assert payload["status"] == "unique"


def test_orbit_stab_heisenberg_center():
    g = parse_salamon("0,0,12")
    rep = orbit_stab_condition(g, PDualElement(1, KForm.basis(3, (3,))))
    assert rep.holds
    assert len(rep.stab_basis) == len(rep.ker_basis) == 1


def test_orbit_stab_abelian_everything_fixed():
    g = builtin("abelian:4")
    rep = orbit_stab_condition(g, PDualElement(2, KForm.basis(4, (1, 2))))
    assert rep.holds
    assert len(rep.stab_basis) == 4


def test_orbit_stab_su2():
    su2 = builtin("su2")
    rep = orbit_stab_condition(su2, PDualElement(1, KForm.basis(3, (3,))))
    assert rep.holds


def test_triple_form_su2_is_cartan_form():
    su2 = builtin("su2")
    identity = [[Scalar(1) if i == j else Scalar(0) for j in range(3)]
                for i in range(3)]
    gamma = triple_form(su2, identity)
    assert gamma == KForm.basis(3, (1, 2, 3), -2)
    assert d_form(su2, gamma).is_zero()


def test_triple_form_validates_input():
    su2 = builtin("su2")
    asym = [[Scalar(0), Scalar(1), Scalar(0)],
            [Scalar(-1), Scalar(0), Scalar(0)],
            [Scalar(0), Scalar(0), Scalar(0)]]
    with pytest.raises(ValueError):
        triple_form(su2, asym)
    not_invariant = [[Scalar(1) if i == j else Scalar(0) for j in range(3)]
                     for i in range(3)]
    not_invariant[0][0] = Scalar(2)
    with pytest.raises(ValueError):
        triple_form(su2, not_invariant)


def _dense_triple_form(g, inner):
    """triple_form as first written: dense bracket vectors of the identity
    rows, summed over every pair of basis indices; None when the pairing is
    not ad-invariant."""
    n = g.n
    e = [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]

    def bracket(u, v):
        out = [Scalar(0)] * n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k, c in bracket_basis(g, i, j).items():
                    out[k - 1] = out[k - 1] + u[i - 1] * v[j - 1] * c
        return out

    def pair(u, j):
        return sum((u[i] * inner[i][j] for i in range(n)), Scalar(0))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if pair(bracket(e[i], e[j]), k) + pair(bracket(e[i], e[k]), j):
                    return None
    terms = [((i + 1, j + 1, k + 1), c) for i in range(n) for j in range(i + 1, n)
             for k in range(j + 1, n) if (c := pair(bracket(e[i], e[j]), k))]
    return KForm.from_terms(n, terms) if terms else KForm.zero(n, 3)


def test_triple_form_equals_the_dense_formula():
    def diag(values):
        return [[values[i] if i == j else 0 for j in range(len(values))]
                for i in range(len(values))]

    su2, su3 = builtin("su2"), builtin("su3")
    cases = [(su2, diag([1, 1, 1])), (su2, diag([3, 3, 3])), (su2, diag([1, 2, 1])),
             (su3, diag([1] * 8)), (su3, diag([Scalar(0, 1, 3)] * 8)),
             (su3, diag([1] * 7 + [2])),
             (su2.direct_sum(builtin("abelian:1")), diag([2, 2, 2, 5]))]
    invariant = []
    for g, inner in cases:
        expect = _dense_triple_form(g, inner)
        invariant.append(expect is not None)
        if expect is None:
            with pytest.raises(ValueError, match="not ad-invariant"):
                triple_form(g, inner)
        else:
            assert triple_form(g, inner) == expect and not expect.is_zero()
    assert invariant.count(False) == 2
