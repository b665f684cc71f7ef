import random
from fractions import Fraction

from w2345 import exprs, modes, reference, zhu
from w2345.walgebra import G3, G4, G5, GW, Session, enumerate_nf, nf_weight
from w2345.zhu import W_VARS, X_VARS, ZhuC2


def test_basic_images(ses7):
    red = ZhuC2(ses7)
    d = ses7.domain
    one = MultiConst = exprs.parse_multipoly("1", W_VARS, d)
    assert red.zhu_reduce({(): d.one}) == one
    assert red.zhu_reduce({((GW, -1),): d.one}) == exprs.parse_multipoly(
        "w2", W_VARS, d
    )
    for g, name in ((G3, "w3"), (G4, "w4"), (G5, "w5")):
        assert red.zhu_reduce({((g, -1),): d.one}) == exprs.parse_multipoly(
            name, W_VARS, d
        )


def test_vm1_formula(ses7):
    # [x_{-m-1}|0>] = ((-1)^m / m!) (prod_{i<m} (wt x + i)) [x]
    from math import factorial

    red = ZhuC2(ses7)
    d = ses7.domain
    for g, wt, name in ((GW, 2, "w2"), (G3, 3, "w3"), (G4, 4, "w4")):
        for m in range(0, 4):
            got = red.zhu_reduce({((g, -m - 1),): d.one})
            coeff = Fraction((-1) ** m, factorial(m))
            for i in range(m):
                coeff *= wt + i
            want = exprs.parse_multipoly(name, W_VARS, d) * coeff
            assert got == want, (g, m)


def test_c2_reduce_examples(ses7):
    red = ZhuC2(ses7)
    d = ses7.domain
    elem = {((GW, -1), (G3, -1)): d.scalar(5), ((G3, -2), (G3, -2)): d.one}
    got = red.c2_reduce(elem)
    assert got == exprs.parse_multipoly("5*x2*x3", X_VARS, d)


def test_zhu_multiplicativity_small_generic(gses):
    red = ZhuC2(gses)
    d = gses.domain
    monos = [m for dd in range(2, 6) for m in enumerate_nf(dd)]
    pairs = [
        (((GW, -1),), ((G3, -1),)),
        (((G3, -1),), ((G3, -1),)),
        (((GW, -2),), ((G4, -1),)),
        (((GW, -1), (GW, -1)), ((G3, -2),)),
    ]
    for u_mono, v_mono in pairs:
        u = {u_mono: d.one}
        v = {v_mono: d.one}
        lhs = red.zhu_star(u, v)
        rhs = red.zhu_reduce(u) * red.zhu_reduce(v)
        assert lhs == rhs, (u_mono, v_mono)


def test_zhu_multiplicativity_random_k7(ses7):
    # polynomial-exact up to total weight 7 (the spanning set is a basis
    # there); beyond that the product identity holds modulo the kernel of
    # the quotient map, witnessed by reduction against (Q0, Q1)
    from w2345.groebner import buchberger, lex_order

    red = ZhuC2(ses7)
    d = ses7.domain
    q0 = exprs.parse_multipoly(reference.Q0_TEXT, W_VARS, d)
    q1 = exprs.parse_multipoly(reference.Q1_TEXT, W_VARS, d)
    gb = buchberger([q0, q1], lex_order(("w5", "w4", "w3", "w2")))
    rng = random.Random(43)
    monos = [m for dd in range(2, 8) for m in enumerate_nf(dd)]
    for _ in range(60):
        um, vm = rng.choice(monos), rng.choice(monos)
        u, v = {um: d.one}, {vm: d.one}
        diff = red.zhu_star(u, v) - red.zhu_reduce(u) * red.zhu_reduce(v)
        if nf_weight(um) + nf_weight(vm) <= 7:
            assert not diff, (um, vm)
        else:
            assert not gb.normal_form(diff), (um, vm)


def test_star_commutators_specialized(ses7):
    red = ZhuC2(ses7)
    d = ses7.domain
    e3, e4, e5 = ({((G3, -1),): d.one}, {((G4, -1),): d.one}, {((G5, -1),): d.one})
    for a, b in ((e3, e4), (e3, e5), (e4, e5)):
        assert not (red.zhu_star(a, b) - red.zhu_star(b, a))


def test_star_commutators_word_apply_calls(monkeypatch):
    """The level-5 product table and the three star commutators on a fresh
    session make 17168 word_apply calls, counted through the modes global
    as the benchmark tracer counts them: the table bracket runs the mode
    calculus on the kept word targets, with no extra work, and the table
    expands only the words of the theta sectors its products lie in.  Each
    expansion applies the generator's words with an e or f factor to the
    image of its tail (lemma (A)), and each product the h-free words of x
    to the target of y that the table build shares (lemma (B)).  A
    single-factor word visits only the one index where the vacuum mode is
    nonzero, so it calls word_apply on the empty word for its branch-1
    truncation check alone."""
    calls = 0
    word_apply = modes.word_apply

    def counted(*args):
        nonlocal calls
        calls += 1
        return word_apply(*args)

    monkeypatch.setattr(modes, "word_apply", counted)
    red = ZhuC2(Session(5))
    d = red.dom
    e3, e4, e5 = ({((G3, -1),): d.one}, {((G4, -1),): d.one}, {((G5, -1),): d.one})
    for a, b in ((e3, e4), (e3, e5), (e4, e5)):
        assert not (red.zhu_star(a, b) - red.zhu_star(b, a))
    assert calls == 17168


def test_q_polynomials_generic(gses):
    red = ZhuC2(gses)
    d = gses.domain
    q0, q1 = red.q_polynomials()
    assert q0 == exprs.parse_multipoly(reference.Q0_TEXT, W_VARS, d)
    assert q1 == exprs.parse_multipoly(reference.Q1_TEXT, W_VARS, d)


def test_q_specialize_nonzero(gses):
    red = ZhuC2(gses)
    q0, q1 = red.q_polynomials()
    for k0 in (5, 6):
        assert q0.specialize_level(k0)
        assert q1.specialize_level(k0)


def test_c2_image_of_odd_weight8_relation_vanishes(gses):
    # the odd-sector weight-8 relation is built from words that all die in
    # the C2 quotient
    red = ZhuC2(gses)
    rel = gses.null_field_for(((G3, -1), (G4, -2)))
    assert not red.c2_reduce(rel)


def test_termination_filtration(ses7):
    # the reduction of any small word terminates and lands in the span of
    # the filtration monomials (sanity of the weight-descent argument)
    red = ZhuC2(ses7)
    d = ses7.domain
    for mono in enumerate_nf(6):
        poly = red.reduce_word(mono)
        assert all(
            2 * e[0] + 3 * e[1] + 4 * e[2] + 5 * e[3] <= 6 for e in poly.terms
        )


def test_the_reducers_of_a_session_share_one_word_memo(gses, ses5, monkeypatch):
    # a second reducer on the same session reduces no word again
    first = ZhuC2(gses)
    want = first.q_polynomials()
    assert ZhuC2(gses)._memo is first._memo is gses.kept["reduce_word"]
    assert ZhuC2(ses5)._memo is ses5.kept["reduce_word"] is not first._memo
    reduced = []
    reduce_word = ZhuC2.reduce_word

    def counted(self, mono):
        if mono not in self._memo:
            reduced.append(mono)
        return reduce_word(self, mono)

    monkeypatch.setattr(ZhuC2, "reduce_word", counted)
    assert ZhuC2(gses).q_polynomials() == want
    assert reduced == []
