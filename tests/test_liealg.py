"""Lie algebra structures, the structure-constant string notation, derivations."""
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bracket_basis, filiform
from lmmt import liealg
from lmmt.claims import CATALOG, NILPOTENT
from lmmt.cli import main
from lmmt.liealg import (Derivation, JacobiError, LeibnizError, LieAlgebra,
                         SalamonSyntaxError, builtin, extend_by_derivations,
                         grading_derivation, parse_salamon, structural_report)
from lmmt.linalg import Matrix, row_space_basis
from lmmt.scalars import ZERO, FieldError, Scalar
from lmmt.spectral import diagonal_extension


def test_parse_heisenberg_bracket():
    g = parse_salamon("0,0,12")
    # de3 = e1^e2 corresponds to [e1, e2] = -e3
    assert bracket_basis(g, 1, 2) == {3: Scalar(-1)}
    assert bracket_basis(g, 1, 3) == {}


def test_parse_coefficients_and_sums():
    g = parse_salamon("0,12,2.13")
    assert bracket_basis(g, 1, 3) == {3: Scalar(-2)}
    h = parse_salamon("0,0,12,1/2.13")
    assert bracket_basis(h, 1, 3) == {4: Scalar(Fraction(-1, 2))}


def test_parse_negative_trailing_term():
    g = parse_salamon("0,0,13+24,14-23")
    assert bracket_basis(g, 2, 3) == {4: Scalar(1)}
    assert bracket_basis(g, 1, 4) == {4: Scalar(-1)}


def test_parse_parameters():
    g = parse_salamon("0,12,t.13", params={"t": Fraction(5)})
    assert bracket_basis(g, 1, 3) == {3: Scalar(-5)}
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("0,12,t.13")


def test_parse_error_reports_position():
    with pytest.raises(SalamonSyntaxError) as exc:
        parse_salamon("0,0,1$2")
    assert exc.value.position is not None


def test_parse_rejects_non_jacobi():
    with pytest.raises(JacobiError):
        parse_salamon("0,12,13+23")


def test_jacobi_error_carries_triple():
    bad = {(1, 2): {2: Scalar(-1)}, (1, 3): {3: Scalar(-1)},
           (2, 3): {3: Scalar(-1)}}
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(3, bad)
    assert exc.value.triple == (1, 2, 3)


def _triple_loop_jacobi_check(g):
    """The first i < j < k whose Jacobiator, summed over all three cyclic
    terms through bracket_basis, is non-zero; None if there is none."""
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            for k in range(j + 1, g.n + 1):
                acc = [ZERO] * g.n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in bracket_basis(g, a, b).items():
                        for p, cp in bracket_basis(g, m, c).items():
                            acc[p - 1] = acc[p - 1] + cm * cp
                if any(acc):
                    return (i, j, k)
    return None


def _random_brackets(rng, n, sqrt3):
    """Random sparse structure constants in -2..2 (plus b sqrt 3 when
    sqrt3); most of them break Jacobi somewhere."""
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.3:
                comp = {}
                for k in rng.sample(range(1, n + 1), rng.randint(1, 2)):
                    c = Fraction(rng.randint(-2, 2))
                    comp[k] = Scalar(c, rng.randint(-1, 1), 3) if sqrt3 else c
                brackets[(i, j)] = comp
    return brackets


def test_jacobi_check_equals_the_triple_loop(capsys):
    """The walk over stored brackets against the loop over all triples, on
    random (mostly non-Jacobi) algebras and on the catalog: the same first
    failing triple, the same JacobiError and CLI error line, or None for
    both."""
    rng = random.Random(7)
    failing = 0
    for trial in range(300):
        n = rng.randint(0, 8)
        g = LieAlgebra(n, _random_brackets(rng, n, trial % 2 == 1), validate=False)
        want = _triple_loop_jacobi_check(g)
        assert g.jacobi_check() == want
        if want is None:
            assert LieAlgebra(n, g.brackets).brackets == g.brackets
            continue
        failing += 1
        with pytest.raises(JacobiError) as exc:
            LieAlgebra(n, g.brackets)
        assert exc.value.triple == want
        assert str(exc.value) == f"Jacobi identity fails on basis triple {want}"
        assert main(["betti", json.dumps(g.to_json())]) == 1
        assert capsys.readouterr().err == f"error: Jacobi identity fails on basis triple {want}\n"
    assert failing > 100
    for g in ([parse_salamon(t) for t in CATALOG + NILPOTENT]
              + [builtin(name) for name in ("su2", "su3", "nplus:4", "borel:4")]):
        assert g.jacobi_check() is None and _triple_loop_jacobi_check(g) is None


def test_upper_triangular_builtins():
    """n+(sl_3) is h3 on E_12, E_13, E_23; borel:k adds the k - 1 diagonal
    elements H_a, which act on E_ij by the root H_a(i) - H_a(j)."""
    g = builtin("nplus:3")
    assert g.n == 3 and g.brackets == {(1, 3): {2: Scalar(1)}}
    b = builtin("borel:3")
    assert b.n == 5 and b.inner_torus() == {
        1: {3: Scalar(2), 4: Scalar(1), 5: Scalar(-1)},
        2: {3: Scalar(-1), 4: Scalar(1), 5: Scalar(2)}}
    assert builtin("nplus:1").n == builtin("borel:1").n == 0
    for bad in ("nplus:0", "borel:-2", "borel:x"):
        with pytest.raises(ValueError):
            builtin(bad)


def test_round_trips():
    for text in ["0,0,12", "0,12,13,14,15", "0,0,13+24,14-23,2.15"]:
        g = parse_salamon(text)
        assert g.to_salamon() == text
        assert parse_salamon(g.to_salamon()).brackets == g.brackets
        assert LieAlgebra.from_json(g.to_json()).brackets == g.brackets
    assert parse_salamon("0,12,13,14,1.15").to_salamon() == "0,12,13,14,15"
    # dimension 0 is written as the empty string and read back from it
    for name in ("abelian:0", "nplus:1"):
        g = builtin(name)
        assert g.to_salamon() == ""
        h = parse_salamon(g.to_salamon())
        assert (h.n, h.brackets) == (0, {})


def test_su2_brackets():
    g = builtin("su2")
    assert bracket_basis(g, 1, 2) == {3: Scalar(-2)}
    assert bracket_basis(g, 2, 3) == {1: Scalar(-2)}
    assert bracket_basis(g, 1, 3) == {2: Scalar(2)}
    assert g.jacobi_check() is None


def test_su3_is_a_lie_algebra():
    g = builtin("su3")
    assert g.n == 8
    assert g.jacobi_check() is None


def test_abelian_builtin():
    g = builtin("abelian:4")
    assert g.n == 4 and not g.brackets


def _dense_bracket(g, u, v):
    """[u, v] of two dense coordinate lists, summed over every pair of
    basis indices: the bracket on vectors as first written."""
    out = [ZERO] * g.n
    for i, ui in enumerate(u, start=1):
        for j, vj in enumerate(v, start=1):
            for k, c in bracket_basis(g, i, j).items():
                out[k - 1] += ui * vj * c
    return out


def _ad_matrix(g, i):
    """The matrix of ad(e_i): column j holds [e_i, e_j]."""
    return Matrix(g.n, g.n, {(k - 1, j - 1): c for j in range(1, g.n + 1)
                             for k, c in bracket_basis(g, i, j).items()})


def test_bracket_of_general_vectors():
    g = builtin("su2")
    x = Matrix.from_columns([[Scalar(1), Scalar(0), Scalar(0)]])
    y = Matrix.from_columns([[Scalar(0), Scalar(1), Scalar(0)]])
    assert g.bracket_columns(x, y, [(0, 0)]).column(0) == [Scalar(0), Scalar(0), Scalar(-2)]


def test_ad_matrix_oracle():
    g = parse_salamon("0,0,12")
    ad1 = _ad_matrix(g, 1)
    assert (ad1 @ Matrix.from_columns([[Scalar(0), Scalar(1), Scalar(0)]])).column(0) == [
        Scalar(0), Scalar(0), Scalar(-1)]
    # column j of ad(e_i) is the bracket column of the pair (e_i, e_j)
    for h in STRUCTURE_ALGEBRAS:
        e = Matrix.identity(h.n)
        for i in range(1, h.n + 1):
            pairs = [(i - 1, j) for j in range(h.n)]
            assert _ad_matrix(h, i) == h.bracket_columns(e, e, pairs)


def test_direct_sum():
    g = builtin("su2").direct_sum(parse_salamon("0,0,12"))
    assert g.n == 6
    assert bracket_basis(g, 4, 5) == {6: Scalar(-1)}
    assert bracket_basis(g, 1, 4) == {}


def test_structural_report_oracles():
    heis = structural_report(parse_salamon("0,0,12"))
    assert heis.nilpotent and heis.solvable and heis.unimodular
    assert heis.codim_derived == 2
    su2 = structural_report(builtin("su2"))
    assert not su2.solvable and su2.codim_derived == 0
    aff = structural_report(parse_salamon("0,12"))
    assert aff.solvable and not aff.nilpotent and not aff.unimodular


@pytest.mark.parametrize("text,steps", [("builtin:su2", 1), ("0,0,12", 3), ("0,12", 3)])
def test_structural_report_eliminates_g_prime_once(monkeypatch, text, steps):
    """g' = [g, g] is eliminated once and begins both series: su2 is perfect,
    so that is its only step; the Heisenberg algebra and aff(1) add one step
    per series, which reaches 0 or repeats g'."""
    calls = []
    span = liealg._span_brackets
    monkeypatch.setattr(liealg, "_span_brackets", lambda *a: calls.append(a) or span(*a))
    g = builtin(text[8:]) if text.startswith("builtin:") else parse_salamon(text)
    rep = structural_report(g)
    assert len(calls) == steps
    assert rep.derived_basis.cols == g.n - rep.codim_derived


STRUCTURE_ALGEBRAS = ([parse_salamon(s) for s in CATALOG + NILPOTENT]
                      + [builtin("su2"), builtin("su3"), parse_salamon("0,12,-1.13")])


def test_bracket_columns_equal_dense_brackets():
    rng = random.Random(3)
    for g in STRUCTURE_ALGEBRAS:
        vecs = [[rng.choice([0, 0, 1, -2, Fraction(1, 2), Scalar(1, 1, 3)]) for _ in range(g.n)]
                for _ in range(4)]
        us, vs = vecs[:3], vecs[1:]
        pairs = [(i, j) for i in range(3) for j in range(3)]
        mat = g.bracket_columns(Matrix.from_columns(us, nrows=g.n),
                                Matrix.from_columns(vs, nrows=g.n), pairs)
        assert [mat.column(t) for t in range(mat.cols)] == [_dense_bracket(g, us[i], vs[j])
                                                            for i, j in pairs]


def _dense_series(g, lower):
    """The derived (or lower central) series as first written: dense bracket
    vectors and one row-space basis per step."""
    full = Matrix.identity(g.n).to_rows()
    series = [full]
    while series[-1]:
        nxt = row_space_basis([_dense_bracket(g, u, v) for u in (full if lower else series[-1])
                               for v in series[-1]], g.n)
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
    return series


def test_structural_report_equals_the_dense_series():
    for g in STRUCTURE_ALGEBRAS:
        rep = structural_report(g)
        derived, lower = _dense_series(g, False), _dense_series(g, True)
        assert rep.derived_series_dims == [len(b) for b in derived]
        assert rep.lower_central_dims == [len(b) for b in lower]
        dprime = row_space_basis([_dense_bracket(g, u, v) for u in derived[0] for v in derived[0]],
                                 g.n)
        basis = rep.derived_basis
        assert [basis.column(j) for j in range(basis.cols)] == dprime


# tr ad = 0 or not, beyond the catalog: "0,12" is not unimodular,
# "0,12,-1.13" is but is not nilpotent, and "12,0,23" / "12,0,2.23" act by
# e_2 in the middle of the basis, with trace zero and non-zero; in
# "0,-12+13,-12+13" ad e_1 is nilpotent but not diagonal, with diagonal (1, -1)
TRACE_CASES = ["0,12", "0,12,-1.13", "12,0,23", "12,0,2.23", "0,-12+13,-12+13"]


def test_is_unimodular_is_the_trace_of_ad():
    algebras = ([parse_salamon(s) for s in CATALOG + NILPOTENT + TRACE_CASES]
                + [builtin(name) for name in ("su2", "su3", "abelian:0")]
                + [diagonal_extension([Fraction(x) for x in lam])
                   for lam in ((1, -1), (1, 2), (1, 2, -3), (0, 1), (1, -1, 1))])
    verdicts = []
    for g in algebras:
        traces = [sum((_ad_matrix(g, i).entries.get((j, j), ZERO) for j in range(g.n)), ZERO)
                  for i in range(1, g.n + 1)]
        verdicts.append(g.is_unimodular())
        assert verdicts[-1] == (not any(traces))
        assert structural_report(g).unimodular == verdicts[-1]
    assert True in verdicts and False in verdicts


def test_inner_torus_is_the_diagonal_ad():
    algebras = ([parse_salamon(s) for s in CATALOG + NILPOTENT + TRACE_CASES]
                + [builtin(name) for name in ("su2", "su3", "abelian:3")]
                + [diagonal_extension([Fraction(x) for x in lam])
                   for lam in ((1, -1), (1, 2), (0, 1), (0, 0))]
                + [LieAlgebra(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}),
                   LieAlgebra(3, {(1, 2): {2: Scalar(0, 1, 3)}, (1, 3): {3: 1}, (2, 3): {}})])
    found = []
    for g in algebras:
        expect = {}
        for t in range(1, g.n + 1):
            ad = _ad_matrix(g, t).entries
            if ad and all(r == c for r, c in ad):
                expect[t] = {c + 1: x for (r, c), x in ad.items()}
        assert g.inner_torus() == expect
        found.append(len(expect))
    assert 0 in found and 1 in found and 2 in found


def test_components_are_commuting_ideals():
    """components() against its definition: the parts partition 1..n in
    order, each is closed under the bracket, brackets across parts vanish,
    and no part splits further."""
    algebras = ([parse_salamon(s) for s in CATALOG + NILPOTENT + TRACE_CASES]
                + [builtin(name) for name in ("su2", "su3", "abelian:0", "abelian:3")]
                + [diagonal_extension([Fraction(x) for x in lam]) for lam in ((0, 1), (1, 0, 2))]
                + [parse_salamon(s) for s in ("0,0,0,12", "0,0,0,0,13,24", "0,0,0,0,0,0,0,45")]
                + [builtin("su2").direct_sum(builtin("abelian:1")).direct_sum(builtin("su3"))])
    sizes = []
    for g in algebras:
        parts = g.components()
        sizes += [len(p) for p in parts]
        assert sorted(i for p in parts for i in p) == list(range(1, g.n + 1))
        assert all(p == sorted(p) for p in parts) and parts == sorted(parts)
        where = {i: a for a, p in enumerate(parts) for i in p}
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                comp = bracket_basis(g, i, j)
                if where[i] != where[j]:
                    assert comp == {}
                else:
                    assert all(where[k] == where[i] for k in comp)
        for p in parts:
            assert g.restrict(p).components() == [list(range(1, len(p) + 1))]
    assert 1 in sizes and max(sizes) > 3
    assert builtin("su3").direct_sum(builtin("su2")).components() == [
        list(range(1, 9)), [9, 10, 11]]
    assert parse_salamon("0,0,0,0,13,24").components() == [[1, 3, 5], [2, 4, 6]]


def test_restrict_renumbers_a_closed_span():
    g = parse_salamon("0,0,0,0,13,24")
    assert g.restrict([2, 4, 6]).brackets == {(1, 2): {3: Scalar(-1)}}
    h3 = parse_salamon("0,0,12")
    assert h3.restrict([1, 3]).brackets == {}  # a subalgebra, not an ideal
    with pytest.raises(ValueError, match="leaves the span"):
        h3.restrict([1, 2])


def test_from_json_rejects_wrong_shapes():
    for data in ([1],
                 {"dim": 2, "brackets": [1]},
                 {"dim": 2, "brackets": {"a": 1}},
                 {"dim": 2, "brackets": [{"i": 1, "j": 2, "c": [1]}]},
                 {"dim": 2, "brackets": [{"i": 1, "j": 2, "c": {"2": 1}}]},
                 {"dim": 2, "brackets": [{"i": 1, "j": 2, "c": {"2": 0.5}}]}):
        with pytest.raises(ValueError):
            LieAlgebra.from_json(data)


def test_derivation_validation():
    heis = parse_salamon("0,0,12")
    d = grading_derivation(heis, [1, 1, 2])
    assert isinstance(d, Derivation)
    with pytest.raises(LeibnizError):
        Derivation.from_rows(heis, [[Scalar(1), Scalar(0), Scalar(0)],
                                    [Scalar(0), Scalar(1), Scalar(0)],
                                    [Scalar(0), Scalar(0), Scalar(1)]])
    with pytest.raises(ValueError):
        grading_derivation(heis, [1, 1, 3])


def _dense_leibniz_violation(g, rows):
    """The least basis pair i < j where T, given as dense rows with T(e_j)
    in column j, breaks T[e_i, e_j] = [Te_i, e_j] + [e_i, Te_j]: the i < j
    loop over dense brackets that the sparse check replaced."""
    n = g.n
    e = Matrix.identity(n).to_rows()

    def image(v):
        return [sum((rows[i][j] * v[j] for j in range(n)), ZERO) for i in range(n)]

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            comp = [bracket_basis(g, i, j).get(k, ZERO) for k in range(1, n + 1)]
            lhs = image(comp)
            rhs1 = _dense_bracket(g, image(e[i - 1]), e[j - 1])
            rhs2 = _dense_bracket(g, e[i - 1], image(e[j - 1]))
            if any(lhs[k] - rhs1[k] - rhs2[k] for k in range(n)):
                return (i, j)
    return None


def test_leibniz_check_equals_the_dense_pair_loop():
    """Random near-derivations: an inner derivation sum_t x_t ad(e_t), plus a
    grading derivation where one is known, with up to two entries moved.
    The sparse check gives the dense loop's verdict and first failing pair."""
    rng = random.Random(7)
    gradings = {"0,0,12": [1, 1, 2], "0,0,12,13": [1, 1, 2, 3], "0,0,12,13,14": [1, 1, 2, 3, 4]}
    algebras = [(g, None) for g in STRUCTURE_ALGEBRAS] + [(builtin("abelian:3"), None)]
    algebras += [(parse_salamon(s), w) for s, w in gradings.items()]
    seen = []
    for g, weights in algebras:
        for _ in range(6):
            rows = [[ZERO] * g.n for _ in range(g.n)]
            for t in range(1, g.n + 1):
                x = Fraction(rng.choice([0, 1, -2, 3]))
                for (r, c), y in _ad_matrix(g, t).entries.items():
                    rows[r][c] += x * y
            if weights:
                for i, w in enumerate(weights):
                    rows[i][i] += w
            for _ in range(rng.choice([0, 1, 1, 2])):
                rows[rng.randrange(g.n)][rng.randrange(g.n)] += rng.choice([1, -1, Fraction(1, 2)])
            try:
                Derivation.from_rows(g, rows)
                got = None
            except LeibnizError as exc:
                got = exc.pair
            assert got == _dense_leibniz_violation(g, rows)
            seen.append(got)
    assert None in seen and len(set(seen)) > 3


def test_extension_by_grading_derivation():
    heis = parse_salamon("0,0,12")
    d = grading_derivation(heis, [1, 1, 2])
    g = extend_by_derivations(heis, [d])
    assert g.n == 4
    assert g.jacobi_check() is None
    # the new generator comes first and acts diagonally on the old basis
    assert bracket_basis(g, 1, 2) == {2: Scalar(1)}
    assert bracket_basis(g, 1, 4) == {4: Scalar(2)}


def test_extension_requires_commuting_derivations():
    a3 = builtin("abelian:3")
    d1 = grading_derivation(a3, [1, 2, 3])
    rot = Derivation.from_rows(a3, [[Scalar(0), Scalar(-1), Scalar(0)],
                                    [Scalar(1), Scalar(0), Scalar(0)],
                                    [Scalar(0), Scalar(0), Scalar(0)]])
    assert not d1.commutes_with(rot)
    with pytest.raises(ValueError):
        extend_by_derivations(a3, [d1, rot])
    d2 = grading_derivation(a3, [1, 1, 2])
    g = extend_by_derivations(a3, [d1, d2])
    assert g.n == 5 and g.jacobi_check() is None


def test_bracket_components_are_checked():
    for k in (0, 3):
        with pytest.raises(ValueError, match=f"bad component index {k}"):
            LieAlgebra(2, {(1, 2): {k: 1}})
    with pytest.raises(FieldError):
        LieAlgebra(3, {(1, 2): {3: Scalar(0, 1, 2)}, (1, 3): {2: Scalar(0, 1, 3)}})
    g = LieAlgebra(3, {(1, 2): {3: Scalar(0, 1, 3)}, (1, 3): {2: Scalar(1, 1, 3)}},
                   validate=False)
    assert g.to_json()["field"] == {"sqrt": 3}


# -- the two text grammars -------------------------------------------------

# rational algebras as the tests build them: the catalog, n+(sl_k), the
# Borel subalgebras and diagonal extensions with multi-digit coefficients;
_EIGENVALUES = st.fractions(min_value=-30, max_value=30, max_denominator=12)
_RATIONAL_ALGEBRAS = st.one_of(
    st.sampled_from(CATALOG + NILPOTENT).map(parse_salamon),
    st.integers(1, 6).map(lambda k: builtin(f"nplus:{k}")),
    st.integers(1, 5).map(lambda k: builtin(f"borel:{k}")),
    st.lists(_EIGENVALUES, max_size=10).map(diagonal_extension),
)


@settings(max_examples=80, deadline=None)
@given(_RATIONAL_ALGEBRAS)
def test_salamon_round_trip(g):
    h = parse_salamon(g.to_salamon())
    assert (h.n, h.brackets) == (g.n, g.brackets)


# spellings the readers used to take by dropping or merging a token, with
# the position of the error (None for a scalar, whose message quotes it)
NEWLY_REJECTED = [
    (parse_salamon, "0,0,12+", 6),  # dangling sign
    (parse_salamon, "0,0,12-", 6),
    (parse_salamon, "0,0,12+2.", 6),  # dangling coefficient
    (parse_salamon, "0,0,12 3", 7),
    (parse_salamon, "0,0,2 12", 4),  # coefficient with no dot
    (parse_salamon, "0,0,0,13 24", 9),  # two terms with no sign between
    (parse_salamon, "0,0,12[1,2]", 6),
    (parse_salamon, "0,0,2..12", 4),  # two dots
    (Scalar.parse, "2sqrt(3)", None),  # rational part juxtaposed with the radical
    (Scalar.parse, "1/2 sqrt(3)", None),
    (Scalar.parse, "1 2*sqrt(3)", None),
]


@pytest.mark.parametrize("reader,text,position", NEWLY_REJECTED)
def test_newly_rejected_spellings(reader, text, position):
    with pytest.raises(ValueError) as exc:
        reader(text)
    if position is None:
        assert str(exc.value) == f"cannot parse scalar {text!r}"
    else:
        assert isinstance(exc.value, SalamonSyntaxError) and exc.value.position == position


def test_salamon_grammar_keeps_its_spellings():
    """Signs: the first term takes only "-", a later one "+" or "-" and then
    any further "-"; whitespace may stand anywhere between tokens."""
    assert parse_salamon("0,0,-12").brackets == {(1, 2): {3: Scalar(1)}}
    assert parse_salamon("0,0,--12").brackets == {(1, 2): {3: Scalar(-1)}}
    assert parse_salamon("0,0,0,0,12+-34").brackets == parse_salamon("0,0,0,0,12-34").brackets
    assert parse_salamon(" 0 , 12 , 2 . 13 ").brackets == parse_salamon("0,12,2.13").brackets
    assert parse_salamon("0,[1, 2],[1,3]").brackets == parse_salamon("0,12,13").brackets
    assert parse_salamon("0,0,12-12").brackets == {}
    with pytest.raises(SalamonSyntaxError, match=r"^expected \[sign\]\[coefficient\.\]pair, "
                                                  r"got '\+12' \(at position 4\)$"):
        parse_salamon("0,0,+12")
    with pytest.raises(SalamonSyntaxError, match=r"^unbound parameter 'x' \(at position 4\)$"):
        parse_salamon("0,0,x")
    with pytest.raises(SalamonSyntaxError, match=r"^unexpected character '\$' \(at position 5\)$"):
        parse_salamon("0,0,1$2")
    with pytest.raises(SalamonSyntaxError, match=r"^bad index pair 14 \(at position 7\)$"):
        parse_salamon("0,0,12+14")
    with pytest.raises(SalamonSyntaxError, match=r"^empty expression \(at position 2\)$"):
        parse_salamon("0, ,12")


def test_from_json_rejects_what_it_cannot_read():
    heisenberg = {"dim": 3, "brackets": [{"i": 1, "j": 2, "c": {"3": "1"}}]}
    twice = {"dim": 3, "brackets": heisenberg["brackets"] + [{"i": 1, "j": 2, "c": {"3": "5"}}]}
    cases = [
        (twice, "bracket (1,2) is listed twice"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "c": {"3": "1", "03": "5"}}]},
         "bracket (1,2) lists a component index twice"),
        ({"brackets": []}, "missing dim"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2}]}, "missing bracket components c"),
        ({"dim": 3, "brackets": [{"j": 2, "c": {}}]}, "missing bracket index i"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "c": {"x": "1"}}]},
         "component index in bracket (1,2) must be an integer, got 'x'"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError) as exc:
            LieAlgebra.from_json(data)
        assert str(exc.value) == message
    assert LieAlgebra.from_json(heisenberg).brackets == parse_salamon("0,0,-12").brackets
    for name, message in (("abelian:", "the size in builtin 'abelian:' must be an integer, got ''"),
                          ("nplus:x", "the size in builtin 'nplus:x' must be an integer, got 'x'"),
                          ("abelian", "unknown builtin algebra 'abelian'")):
        with pytest.raises(ValueError) as exc:
            builtin(name)
        assert str(exc.value) == message


# -- the torus of diagonal derivations --------------------------------------


def _full_derivation_system(g):
    """w_i + w_j - w_k = 0 for every c^k_ij != 0, one row per constant, with
    no weight read as zero first: the system diagonal_derivations solves."""
    rows = []
    for (i, j), comp in g.brackets.items():
        for k in comp:
            row = [0] * g.n
            row[i - 1] += 1
            row[j - 1] += 1
            row[k - 1] -= 1
            rows.append(row)
    return Matrix(len(rows), g.n, {(r, c): x for r, row in enumerate(rows)
                                   for c, x in enumerate(row) if x})


def _check_diagonal_derivations(g):
    torus = g.diagonal_derivations()
    assert list(torus) == list(range(1, len(torus) + 1))
    for w in torus.values():
        assert w and all(x for x in w.values())
        Derivation(g, Matrix(g.n, g.n, {(o - 1, o - 1): x for o, x in w.items()}))
    # every w solves the full system, so equal dimensions mean equal spaces
    assert len(torus) == _full_derivation_system(g).kernel().cols
    return torus


def test_diagonal_derivations_of_the_catalog():
    for g in STRUCTURE_ALGEBRAS + [diagonal_extension([Fraction(1), Fraction(-1)]),
                                   builtin("abelian:3"), builtin("abelian:0")]:
        _check_diagonal_derivations(g)


@pytest.mark.parametrize("g,rank", [
    (filiform(11), 2), (filiform(12), 2), (filiform(13), 2),
    (builtin("heisenberg"), 2), (builtin("su2"), 0), (builtin("su3"), 0),
    (builtin("abelian:3"), 3),
] + [(builtin(f"nplus:{k}"), k - 1) for k in range(2, 7)],
    ids=lambda case: case.to_salamon()[:24] if isinstance(case, LieAlgebra) else str(case))
def test_diagonal_derivation_rank(g, rank):
    assert len(_check_diagonal_derivations(g)) == rank


@settings(max_examples=60, deadline=None)
@given(_RATIONAL_ALGEBRAS, st.sampled_from([None, "su2", "su3", "heisenberg"]))
def test_diagonal_derivations_solve_the_full_system(g, summand):
    """Random algebras, some summed with one whose weights are all forced to
    zero (su2, su3: rotated pairs c^k_ij, c^j_ik) or with none forced."""
    if summand is not None:
        g = g.direct_sum(builtin(summand))
    _check_diagonal_derivations(g)
