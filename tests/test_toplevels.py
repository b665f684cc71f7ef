import re
from fractions import Fraction

import pytest

from w2345 import exprs, reference, report, toplevels
from w2345.linalg import SpanSolver
from w2345.scalars import domain
from w2345.walgebra import G3, G4, Session
from w2345.zhu import ZhuC2


def test_closed_form_examples():
    assert toplevels.eigenvalues_closed_form(6, 1, 0) == (
        Fraction(5, 96),
        20,
        780,
        -1560,
    )
    k = 4
    assert toplevels.eigenvalues_closed_form(k, 0, 0) == (0, 0, 0, 0)
    assert toplevels.eigenvalues_closed_form(5, 1, 0)[0] == Fraction(2, 35)


def _value_at(poly, point):
    """The exact value of poly at the point: sum over its terms of
    c * prod x_i^e_i, in Fractions."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        term = Fraction(c)
        for x, a in zip(point, e):
            term *= Fraction(x) ** a
        total += term
    return total


def test_closed_form_matches_the_parsed_polynomials_at_every_top_vector():
    texts = (
        reference.EIG_OMEGA_TEXT,
        reference.EIG_W3_TEXT,
        reference.EIG_W4_TEXT,
        reference.EIG_W5_TEXT,
    )
    cases = 0
    for k in range(2, 7):
        polys = [exprs.parse_multipoly(t, ("m", "p", "q"), domain(k)) for t in texts]
        for i in range(k + 1):
            for j in range(i + 1):
                point = (i - 2 * j, (i - j + 1) * j, (i - j + 1) * (i - j + 2) * (j - 1) * j)
                got = toplevels.eigenvalues_closed_form(k, i, j)
                assert got == tuple(_value_at(p, point) for p in polys), (k, i, j)
                assert all(type(x) is Fraction for x in got), (k, i, j)
                cases += 1
    assert cases == 80


def test_check_toplevels_evaluates_each_top_vector_once(monkeypatch):
    # the quartet table, the symmetry sweep and the oracle comparison all
    # read one cache per level: 80 evaluations for k = 2..6, not 215
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    evaluated = []
    closed_form = toplevels._closed_form

    def counted(kval, i, j):
        evaluated.append((kval, i, j))
        return closed_form(kval, i, j)

    monkeypatch.setattr(toplevels, "_closed_form", counted)
    toplevels._quartets.cache_clear()
    try:
        ctx = report.Context()
        for k in range(2, 7):
            assert all(r.status == "pass" for r in report.check_toplevels(ctx, k)), k
    finally:
        toplevels._quartets.cache_clear()
    assert len(evaluated) == len(set(evaluated)) == 80


def test_oracle_examples(ses6):
    assert toplevels.eigenvalues_oracle(ses6, 5, 0)[1] == -20
    assert toplevels.eigenvalues_oracle(ses6, 5, 0)[3] == 1560
    assert toplevels.eigenvalues_oracle(Session(2), 1, 0)[0] == Fraction(1, 16)


def test_oracle_agrees_with_closed_form():
    for k in range(2, 7):
        ses = Session(k)
        for i in range(0, k + 1):
            for j in range(0, i + 1):
                assert toplevels.eigenvalues_closed_form(
                    k, i, j
                ) == toplevels.eigenvalues_oracle(ses, i, j), (k, i, j)


def test_quartet_tables():
    t5 = toplevels.quartet_table(5)
    assert len(t5) == 15
    assert toplevels.quartets_distinct(t5)
    assert toplevels.pairs_distinct(t5)
    t6 = toplevels.quartet_table(6)
    assert len(t6) == 21
    assert toplevels.quartets_distinct(t6)
    assert toplevels.pairs_distinct(t6)


def test_energy_sets():
    assert toplevels.a2_set(toplevels.quartet_table(5)) == {
        Fraction(x) for x in reference.E_K5
    }
    assert toplevels.a2_set(toplevels.quartet_table(6)) == {
        Fraction(x) for x in reference.E_K6
    }
    assert toplevels.no_integer_differences(
        {Fraction(x) for x in reference.E_K5}
    )
    lam = Fraction(5, 96)
    hits = {
        x for x in (Fraction(t) for t in reference.E_K6) if (x - lam).denominator == 1
    }
    assert hits == {lam, lam + 1}


def test_symmetry():
    for k in range(2, 7):
        assert toplevels.symmetry_check(k)
    a = toplevels.eigenvalues_closed_form(6, 5, 0)
    b = toplevels.eigenvalues_closed_form(6, 5, 5)
    assert a[1] == -20 and b[1] == 20
    # antisymmetry forces the odd eigenvalues to vanish in the middle
    mid = toplevels.eigenvalues_closed_form(6, 4, 2)
    assert mid[1] == 0 and mid[3] == 0


def test_descendant_matrix_consistency(ses6):
    # the commutator matrix agrees with an honest computation inside the
    # level-6 module on the top vector e(-1)|0>
    from w2345 import pbw
    from w2345.modes import element_mode

    d = ses6.domain
    alg = ses6.pbw
    u = {((pbw.E, -1),): d.one}
    gens = [ses6.conformal()[2], *ses6.primaries()]
    quartet = []
    for wt, g in zip((2, 3, 4, 5), gens):
        res = element_mode(alg, g, wt - 1, u)
        quartet.append(res.get(((pbw.E, -1),), Fraction(0)))
    honest = []
    for wtp, gp in zip((2, 3, 4, 5), gens):
        row = []
        for wts, gs in zip((2, 3, 4, 5), gens):
            v = element_mode(alg, gs, wts - 2, u)
            res = element_mode(alg, gp, wtp, v)
            row.append(res.get(((pbw.E, -1),), Fraction(0)))
        honest.append(row)
    assert toplevels.descendant_matrix(ses6, quartet) == honest


def row_proportional(row, ref_row):
    """Projective comparison; returns the scalar row = scalar * ref_row."""
    ref = [Fraction(x) for x in ref_row]
    pivot = next(i for i, x in enumerate(ref) if x)
    if not row[pivot]:
        return None
    scalar = Fraction(row[pivot]) / ref[pivot]
    if all(Fraction(row[i]) == scalar * ref[i] for i in range(len(ref))):
        return scalar
    return None


def test_descendant_first_row(ses6):
    # the first raising row is a nonzero multiple of the first reference row
    hw1 = tuple(Fraction(x) for x in reference.F_K6_HW_1)
    mat = toplevels.descendant_matrix(ses6, hw1)
    lam = row_proportional(mat[0], reference.F_K6_ROWS[0])
    assert lam == Fraction(5, 48)


def test_descendant_analysis(ses6):
    from w2345 import singular
    from w2345.walgebra import G3, G4

    nulls = [singular.ur_normal_form(ses6, r) for r in range(4)]
    for mono in (
        ((G3, -2), (G3, -2)),
        ((G3, -1), (G4, -3)),
        ((G3, -3), (G3, -3)),
    ):
        nulls.append(ses6.null_field_for(mono))
    for hw, flip in ((reference.F_K6_HW_1, False), (reference.F_K6_HW_5, True)):
        rows = []
        for p in range(4):
            ref = [Fraction(x) for x in reference.F_K6_ROWS[p]]
            if flip:
                ref = [ref[0], -ref[1], ref[2], -ref[3]]
            rows.append(ref)
        res = toplevels.descendant_analysis(
            ses6, tuple(Fraction(x) for x in hw), nulls, rows
        )
        assert res["relation_rank"] == 3
        assert res["kernel_in_relations"]
        assert res["combined_rank"] == 4
        assert all(a for a in res["alphas"])


def test_descendant_analysis_kernel_path(ses6):
    # with no null relations the raising matrix has rank 1, so its kernel
    # has dimension 3 and does not lie in the (empty) relation span
    hw1 = tuple(Fraction(x) for x in reference.F_K6_HW_1)
    mat = toplevels.descendant_matrix(ses6, hw1)
    res = toplevels.descendant_analysis(ses6, hw1, [], [mat[0]])
    assert res["kernel_dim"] == 3
    assert res["kernel_in_relations"] is False
    assert res["relation_rank"] == 0
    assert res["combined_rank"] == 1
    assert res["alphas"] == [1]


def test_f_matrix_fails_on_a_relation_span_larger_than_the_kernel(ses6, monkeypatch):
    # one extra relation outside the kernel: the relation span then has
    # rank 4 > kernel dim 3, while the kernel still lies in it, the combined
    # rank is still 4 and every alpha stays nonzero
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    relations = toplevels.descendant_relations

    def planted(ses, hw, null_elements):
        return relations(ses, hw, null_elements) + [toplevels.descendant_matrix(ses, hw)[0]]

    monkeypatch.setattr(toplevels, "descendant_relations", planted)
    ctx = report.Context()
    ctx.kept["session"] = {(6,): ses6}
    hw1 = tuple(Fraction(x) for x in reference.F_K6_HW_1)
    rows = [[Fraction(x) for x in row] for row in reference.F_K6_ROWS]
    res = toplevels.descendant_analysis(ses6, hw1, report._k6_null_elements(ctx), rows)
    assert (res["kernel_dim"], res["relation_rank"], res["combined_rank"]) == (3, 4, 4)
    assert res["kernel_in_relations"] and all(res["alphas"])
    assert [r.status for r in report.check_f_matrix(ctx)] == ["fail", "fail"]


def _first_two_rows(ses6):
    """Reference rows for the first two raising rows at the i = 1 quartet,
    with no null relations: the second is the raising row itself, the
    first is its raising row with one entry moved off the row's line."""
    hw1 = tuple(Fraction(x) for x in reference.F_K6_HW_1)
    mat = toplevels.descendant_matrix(ses6, hw1)
    off = list(mat[0])
    j = next(j for j, x in enumerate(off) if x)
    off[(j + 1) % 4] += 1
    return hw1, [off, mat[1]]


def test_descendant_analysis_uses_the_given_session(ses6, monkeypatch):
    hw1, rows = _first_two_rows(ses6)

    def no_new_session(self, level=None):
        raise AssertionError("the descendant analysis built a new Session")

    monkeypatch.setattr(Session, "__init__", no_new_session)
    res = toplevels.descendant_analysis(ses6, hw1, [], rows)
    assert res["alphas"] == [None, 1]


def test_descendant_analysis_propagates_other_express_errors(ses6, monkeypatch):
    hw1, rows = _first_two_rows(ses6)

    def broken(self, vec):
        raise ZeroDivisionError("express failed")

    monkeypatch.setattr(SpanSolver, "express", broken)
    with pytest.raises(ZeroDivisionError):
        toplevels.descendant_analysis(ses6, hw1, [], rows)


@pytest.mark.parametrize(
    "elem, text",
    [
        ({}, "0"),
        ({((G3, -1),): Fraction(1), ((G4, -1),): Fraction(1)}, "W3[-1]|0> + W4[-1]|0>"),
    ],
    ids=["zero", "inhomogeneous"],
)
def test_descendant_relations_refuse_a_zero_or_inhomogeneous_element(ses6, elem, text):
    hw1 = tuple(Fraction(x) for x in reference.F_K6_HW_1)
    message = "^" + re.escape(text) + " is not a nonzero homogeneous element"
    with pytest.raises(ValueError, match=message):
        toplevels.descendant_relations(ses6, hw1, [elem])
    # the Zhu star product shares the check for its left factor
    with pytest.raises(ValueError, match=message):
        ZhuC2(ses6).zhu_star(elem, {(): Fraction(1)})
