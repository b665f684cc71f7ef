"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The generic-level session is shared across the
whole run; the weight-10 normal-form basis dominates the runtime.
"""

import random
from fractions import Fraction

from w2345 import exprs, pbw, reference, singular, toplevels, zhu
from w2345.groebner import (
    buchberger,
    lex_order,
    normalized,
    point_membership,
    quotient_dimension,
    radical_multiplicity_check,
    standard_monomials,
)
from w2345.modes import element_mode, encode
from w2345.scalars import comb_z
from w2345.walgebra import G3, G4, Session, enumerate_nf, nf_parity, nf_weight
from w2345.zhu import W_VARS, X_VARS, ZhuC2


def _line(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)
    assert ok, name


# -- criterion 1: the full product table at generic level ---------------------


def test_criterion_1_ope_table(gses):
    d = gses.domain
    table = gses.ope_table()
    assert len(table) == 48  # 33 nonzero slots plus the forced zeros
    bad = []
    for key, got in table.items():
        want = exprs.parse_nf(reference.OPE_TEXT[key], d)
        if got != want:
            bad.append(key)
    _line("criterion 1: 33 products match the reference table exactly", not bad)


# -- criterion 2: commutant dimensions and unique primaries -------------------


def test_criterion_2_commutant(gses):
    dims_ok = (
        len(gses.commutant_weight_space(3)) == 2
        and len(gses.commutant_weight_space(4)) == 4
        and len(gses.commutant_weight_space(5)) == 6
    )
    prim_ok = True
    for dd in (3, 4, 5):
        state, lam = gses.find_primary(dd)  # raises if not 1-dimensional
        prim_ok = prim_ok and bool(lam)
    _line("criterion 2: commutant dimensions 2/4/6 with unique primaries", dims_ok and prim_ok)


# -- criterion 3: null fields -------------------------------------------------


def test_criterion_3_null_fields(gses):
    d = gses.domain
    ok = gses.nf_dimensions(8) == (29, 27)
    ok = ok and gses.nf_dimensions(9) == (44, 40)
    total10, rank10 = gses.nf_dimensions(10)
    even = gses._nf_basis(10, 1)
    ok = ok and total10 == 72 and len(even.monos) == 40 and len(even.relations) == 5
    ok = ok and all(nf_parity(m) == 1 for m in (*even.monos, *even.relations))
    for mono, text in (
        (((G3, -2), (G3, -2)), reference.REL_W3m2_SQ),
        (((G3, -1), (G4, -2)), reference.REL_W3m1_W4m2),
        (((G3, -1), (G4, -3)), reference.REL_W3m1_W4m3),
    ):
        rel = gses.null_field_for(mono)
        got = {m: -c for m, c in rel.items() if m != mono}
        ok = ok and got == exprs.parse_nf(text, d)
    for w in (8, 9, 10):
        for rel in gses.null_fields(w):
            ok = ok and not gses.nf_expand_element(rel)
        # positive control: the same sum with one coefficient shifted by 1
        # is that word's expansion, so an empty result means a vanishing sum
        mono, c = next(iter(rel.items()))
        ok = ok and bool(gses.nf_expand_element({**rel, mono: c + 1}))
    _line("criterion 3: null-field dimensions and displayed relations", ok)


# -- criterion 4: quotient polynomial images ----------------------------------


def test_criterion_4_zhu_c2(gses):
    d = gses.domain
    red = ZhuC2(gses)
    q0, q1 = red.q_polynomials()
    ok = q0 == exprs.parse_multipoly(reference.Q0_TEXT, W_VARS, d)
    ok = ok and q1 == exprs.parse_multipoly(reference.Q1_TEXT, W_VARS, d)
    e3, e4, e5 = ({((1, -1),): 1}, {((2, -1),): 1}, {((3, -1),): 1})
    for a, b in ((e3, e4), (e3, e5), (e4, e5)):
        ok = ok and not (red.zhu_star(a, b) - red.zhu_star(b, a))
    b0, b1, b2, scal = red.b_polynomials()
    ok = ok and b0 == exprs.parse_multipoly(reference.B0_TEXT, X_VARS, d)
    ok = ok and b1 == exprs.parse_multipoly(reference.B1_TEXT, X_VARS, d)
    ok = ok and b2 == exprs.parse_multipoly(reference.B2_TEXT, X_VARS, d)
    ok = ok and bool(scal)
    _line("criterion 4: Q0/Q1 exact, star commutators zero, B0/B1/B2 matched", ok)


# -- criterion 5: singular vectors --------------------------------------------


def test_criterion_5_singular(ses5, ses6):
    ok = True
    for k, want in ((2, "-3"), (3, "-8/13"), (4, "15/22")):
        ses = Session(k)
        ok = ok and singular.degenerate_identity(ses) == Fraction(want)
        ok = ok and singular.theta_parity_u0(ses) == (-1) ** (k + 1)
    d5 = ses5.domain
    for r, text in enumerate(
        (
            reference.U0_K5_TEXT,
            reference.U1_K5_TEXT,
            reference.U2_K5_TEXT,
            reference.U3_K5_TEXT,
        )
    ):
        nf = singular.ur_normal_form(ses5, r)
        ok = ok and nf == exprs.parse_nf(text, d5)
    d6 = ses6.domain
    nf6 = singular.ur_normal_form(ses6, 0)
    ok = ok and nf6 == exprs.parse_nf(reference.U0_K6_TEXT, d6)
    for k, ses in ((5, ses5), (6, ses6)):
        ok = ok and singular.theta_parity_u0(ses) == (-1) ** (k + 1)
    _line("criterion 5: singular vectors u^r at levels 2..6", ok)


# -- criteria 6 and 7: Groebner certificates -----------------------------------


def _p_ideal(gses, ses):
    red = ZhuC2(gses)
    polys, _ = singular.p_polynomials(ses)
    q0, q1 = red.q_polynomials()
    extra = [
        q0.specialize_level(ses.level).primitive_integer()[0],
        q1.specialize_level(ses.level).primitive_integer()[0],
    ]
    return polys + extra


def _a_ideal(gses, ses):
    red = ZhuC2(gses)
    polys, _ = singular.a_polynomials(ses)
    b0, b1, b2, _ = red.b_polynomials()
    extra = [
        p.specialize_level(ses.level).primitive_integer()[0] for p in (b0, b1, b2)
    ]
    return polys + extra


def test_criterion_6_zhu_ideals(gses, ses5, ses6):
    from w2345.report import _check_r_basis

    ok = True
    for ses, m_max, n_max, dim_want in ((ses5, 8, 5, 15), (ses6, 12, 7, 21)):
        gens = _p_ideal(gses, ses)
        gb = buchberger(gens, lex_order(("w5", "w4", "w3", "w2")))
        dim = quotient_dimension(gb)
        std = standard_monomials(gb)
        want_std = sorted(
            [(m, 0, 0, 0) for m in range(m_max + 1)]
            + [(n, 1, 0, 0) for n in range(n_max + 1)]
        )
        ok = ok and dim == dim_want and std == want_std
        rok, details = _check_r_basis(gb, ses.level)
        ok = ok and rok
    _line(
        "criterion 6: Zhu-quotient ideals, dimensions 15/21 with printed bases", ok
    )


def test_criterion_7_c2_ideals(gses, ses5, ses6):
    gens5 = _a_ideal(gses, ses5)
    gb5 = buchberger(gens5, lex_order(("x5", "x4", "x3", "x2")))
    wants = [
        exprs.parse_multipoly(t, X_VARS, ses5.domain) for t in reference.S_K5_TEXT
    ]
    wants = [normalized(p, gb5.key) for p in wants]
    ok = len(gb5.elements) == len(wants) and set(gb5.elements) == set(wants)
    ok = ok and quotient_dimension(gb5) is not None
    gens6 = _a_ideal(gses, ses6)
    gb6 = buchberger(gens6, lex_order(("x5", "x4", "x3", "x2")))
    ok = ok and quotient_dimension(gb6) is not None
    _line("criterion 7: C2 ideals, printed level-5 basis and finite quotients", ok)


# -- criterion 8: top levels ----------------------------------------------------


def test_criterion_8_toplevels(gses, ses5, ses6):
    ok = True
    for k in range(2, 7):
        ses = Session(k)
        for i in range(0, k + 1):
            for j in range(0, i + 1):
                ok = ok and toplevels.eigenvalues_closed_form(
                    k, i, j
                ) == toplevels.eigenvalues_oracle(ses, i, j)
    t5 = toplevels.quartet_table(5)
    t6 = toplevels.quartet_table(6)
    ok = ok and len(t5) == 15 and len(t6) == 21
    ok = ok and toplevels.quartets_distinct(t5) and toplevels.pairs_distinct(t5)
    ok = ok and toplevels.quartets_distinct(t6) and toplevels.pairs_distinct(t6)
    ok = ok and toplevels.a2_set(t5) == {Fraction(x) for x in reference.E_K5}
    ok = ok and toplevels.a2_set(t6) == {Fraction(x) for x in reference.E_K6}
    ok = ok and toplevels.no_integer_differences(toplevels.a2_set(t5))
    for k in range(2, 7):
        ok = ok and toplevels.symmetry_check(k)
    for ses, table in ((ses5, t5), (ses6, t6)):
        gens = _p_ideal(gses, ses)
        gb = buchberger(gens, lex_order(("w5", "w4", "w3", "w2")))
        pts = list(table.values())
        ok = ok and all(point_membership(gens, p) for p in pts)
        ok = ok and radical_multiplicity_check(gb, pts)
    _line("criterion 8: top-level eigenvalues, distinctness, variety match", ok)


# -- criterion 9: the level-6 descendant system ---------------------------------


def test_criterion_9_descendants(ses6):
    """The raising conditions on the weight-(5/96 + 1) layer.

    The raw commutator matrix of the four raisings has kernel exactly the
    span of the relations imposed by the vanishing elements u^0..u^3 and the
    three null fields (so honest modules of the simple quotient carry no
    singular vector at that weight: the combined system has rank 4), and
    each printed reference row is a nonzero multiple of the corresponding
    raising row plus a relation vector."""
    nulls = [singular.ur_normal_form(ses6, r) for r in range(4)]
    for mono in (
        ((G3, -2), (G3, -2)),
        ((G3, -1), (G4, -3)),
        ((G3, -3), (G3, -3)),
    ):
        nulls.append(ses6.null_field_for(mono))
    ok = True
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
        ok = ok and res["combined_rank"] == 4
        ok = ok and res["kernel_in_relations"] and res["relation_rank"] == 3
        ok = ok and all(a for a in res["alphas"])
    _line(
        "criterion 9: descendant system rank 4 with reference rows matched"
        " modulo the null relations",
        ok,
    )


# -- criterion 10: randomized property suites -----------------------------------

N_CASES = 1000


def test_criterion_10a_affine_commutation(ses3):
    from w2345.pbw import E, F, H

    d = ses3.domain
    alg = ses3.pbw
    brackets = {
        (H, E): (2, E),
        (H, F): (-2, F),
        (E, F): (1, H),
        (E, H): (-2, E),
        (F, H): (2, F),
        (F, E): (-1, H),
    }
    forms = {(H, H): 2, (E, F): 1, (F, E): 1}
    monos = [m for dd in range(0, 4) for m in pbw.enumerate_monomials(dd)]
    rng = random.Random(101)
    failures = 0
    for _ in range(N_CASES):
        a, b = rng.choice((H, E, F)), rng.choice((H, E, F))
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        w = encode(rng.choice(monos))
        lhs = {}
        for m2, c2 in alg.apply_gen(b, n, w).items():
            pbw.add_into(lhs, alg.apply_gen(a, m, m2), c2)
        for m2, c2 in alg.apply_gen(a, m, w).items():
            pbw.add_into(lhs, alg.apply_gen(b, n, m2), -c2)
        rhs = {}
        br = brackets.get((a, b))
        if br:
            pbw.add_into(rhs, alg.apply_gen(br[1], m + n, w), br[0])
        if m + n == 0 and (a, b) in forms:
            pbw.add_into(rhs, {w: 1}, m * forms[(a, b)] * d.k)
        if pbw.canonical(d, lhs) != pbw.canonical(d, rhs):
            failures += 1
    _line(f"criterion 10a: affine commutation identity, {N_CASES} cases", failures == 0)


def test_criterion_10b_mode_commutator(ses3):
    alg = ses3.pbw
    monos = [m for dd in range(0, 3) for m in pbw.enumerate_monomials(dd)]
    rng = random.Random(103)
    failures = 0
    for _ in range(N_CASES):
        u = {rng.choice(monos): rng.randint(1, 3)}
        v = {rng.choice(monos): rng.randint(-3, -1)}
        w = {rng.choice(monos): 1}
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = element_mode(alg, u, m, element_mode(alg, v, n, w))
        pbw.add_into(lhs, element_mode(alg, v, n, element_mode(alg, u, m, w)), -1)
        rhs = {}
        bound = pbw.weight(u) + pbw.weight(v)
        for i in range(0, bound + 1):
            c = comb_z(m, i)
            if not c:
                continue
            uiv = element_mode(alg, u, i, v)
            if uiv:
                pbw.add_into(rhs, element_mode(alg, uiv, m + n - i, w), c)
        if lhs != rhs:
            failures += 1
    _line(f"criterion 10b: mode commutator identity, {N_CASES} cases", failures == 0)


def test_criterion_10c_weight_additivity(ses3):
    alg = ses3.pbw
    monos = [m for dd in range(0, 4) for m in pbw.enumerate_monomials(dd)]
    rng = random.Random(107)
    failures = 0
    for _ in range(N_CASES):
        v = {rng.choice(monos): rng.randint(1, 4)}
        w = {rng.choice(monos): rng.randint(1, 4)}
        n = rng.randint(-3, 3)
        out = element_mode(alg, v, n, w)
        if out and pbw.weight(out) != pbw.weight(v) + pbw.weight(w) - n - 1:
            failures += 1
    _line(f"criterion 10c: weight additivity, {N_CASES} cases", failures == 0)


def test_criterion_10d_theta(ses3):
    d = ses3.domain
    alg = ses3.pbw
    monos = [m for dd in range(0, 4) for m in pbw.enumerate_monomials(dd)]
    rng = random.Random(109)
    failures = 0
    for _ in range(N_CASES):
        st = {m: rng.randint(-2, 2) for m in rng.sample(monos, 2)}
        st = pbw.canonical(d, st)
        if pbw.canonical(d, pbw.theta(alg, pbw.theta(alg, st))) != st:
            failures += 1
            continue
        v = {rng.choice(monos): 1}
        w = {rng.choice(monos): 1}
        n = rng.randint(-2, 2)
        lhs = pbw.theta(alg, element_mode(alg, v, n, w))
        rhs = element_mode(alg, pbw.theta(alg, v), n, pbw.theta(alg, w))
        if pbw.canonical(d, lhs) != pbw.canonical(d, rhs):
            failures += 1
    _line(
        f"criterion 10d: theta involution and equivariance, {N_CASES} cases",
        failures == 0,
    )


def test_criterion_10e_zhu_multiplicativity(ses7):
    red = ZhuC2(ses7)
    d = ses7.domain
    q0 = exprs.parse_multipoly(reference.Q0_TEXT, W_VARS, d)
    q1 = exprs.parse_multipoly(reference.Q1_TEXT, W_VARS, d)
    gb = buchberger([q0, q1], lex_order(("w5", "w4", "w3", "w2")))
    monos = [m for dd in range(2, 8) for m in enumerate_nf(dd)]
    rng = random.Random(113)
    failures = 0
    for _ in range(N_CASES):
        um, vm = rng.choice(monos), rng.choice(monos)
        u, v = {um: d.one}, {vm: d.one}
        diff = red.zhu_star(u, v) - red.zhu_reduce(u) * red.zhu_reduce(v)
        if nf_weight(um) + nf_weight(vm) <= 7:
            if diff:
                failures += 1
        elif gb.normal_form(diff):
            failures += 1
    _line(
        f"criterion 10e: quotient multiplicativity (exact below the first"
        f" relation weight, modulo the kernel above), {N_CASES} cases",
        failures == 0,
    )
