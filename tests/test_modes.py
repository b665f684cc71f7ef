import random
from fractions import Fraction
from math import factorial

import pytest

from w2345 import pbw
from w2345.modes import TruncationError, element_mode, mode_power_apply, word_apply
from w2345.pbw import E, F, H
from w2345.scalars import comb_z


def _random_state(rng, dom, max_weight=3, terms=2):
    monos = []
    for d in range(0, max_weight + 1):
        monos += pbw.enumerate_monomials(d)
    st = {}
    for mono in rng.sample(monos, terms):
        st[mono] = rng.randint(-3, 3)
    return pbw.canonical(dom, st)


def test_vacuum_creation(ses3):
    d = ses3.domain
    rng = random.Random(5)
    vac = {(): 1}
    for _ in range(40):
        v = _random_state(rng, d)
        if not v:
            continue
        assert pbw.canonical(d, element_mode(ses3.pbw, v, -1, vac)) == v
        for n in range(0, 4):
            assert not pbw.canonical(d, element_mode(ses3.pbw, v, n, vac))


def test_single_generator_modes_match_apply_gen(ses3):
    d = ses3.domain
    alg = ses3.pbw
    rng = random.Random(9)
    monos = pbw.enumerate_monomials(2) + pbw.enumerate_monomials(3)
    for _ in range(60):
        g = rng.choice((H, E, F))
        n = rng.randint(-3, 3)
        w = rng.choice(monos)
        got = element_mode(alg, {((g, -1),): 1}, n, {w: 1})
        want = alg.apply_gen(g, n, w)
        assert pbw.canonical(d, got) == pbw.canonical(d, want)


def test_commutator_identity(ses3):
    # u_m v_n w - v_n u_m w = sum_i C(m, i) (u_i v)_{m+n-i} w
    d = ses3.domain
    alg = ses3.pbw
    rng = random.Random(13)
    for _ in range(40):
        u = _random_state(rng, d, 2, 1)
        v = _random_state(rng, d, 2, 1)
        w = _random_state(rng, d, 2, 1)
        if not (u and v and w):
            continue
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = element_mode(alg, u, m, element_mode(alg, v, n, w))
        pbw.add_into(lhs, element_mode(alg, v, n, element_mode(alg, u, m, w)), -1)
        rhs = {}
        wu, wv = pbw.weight(u), pbw.weight(v)
        for i in range(0, wu + wv + 1):
            c = comb_z(m, i)
            if not c:
                continue
            uiv = element_mode(alg, u, i, v)
            if uiv:
                pbw.add_into(rhs, element_mode(alg, uiv, m + n - i, w), c)
        assert pbw.canonical(d, lhs) == pbw.canonical(d, rhs)


def test_weight_additivity(ses3):
    d = ses3.domain
    rng = random.Random(17)
    for _ in range(40):
        v = _random_state(rng, d, 3, 1)
        w = _random_state(rng, d, 3, 1)
        if not (v and w):
            continue
        n = rng.randint(-3, 3)
        out = pbw.canonical(d, element_mode(ses3.pbw, v, n, w))
        if out:
            assert pbw.weight(out) == pbw.weight(v) + pbw.weight(w) - n - 1


def test_theta_equivariance(ses3):
    d = ses3.domain
    alg = ses3.pbw
    rng = random.Random(21)
    for _ in range(30):
        v = _random_state(rng, d, 2, 2)
        w = _random_state(rng, d, 2, 1)
        n = rng.randint(-2, 2)
        lhs = pbw.theta(alg, element_mode(alg, v, n, w))
        rhs = element_mode(alg, pbw.theta(alg, v), n, pbw.theta(alg, w))
        assert pbw.canonical(d, lhs) == pbw.canonical(d, rhs)


def test_skew_symmetry_spot(ses3):
    # v_n w = sum_i (-1)^{n+1+i} / i! L(-1)^i (w_{n+i} v), with L(-1) the
    # translation operator of the ambient algebra (the affine conformal
    # vector's zero mode)
    d = ses3.domain
    alg = ses3.pbw
    omega = ses3.conformal()[0]
    rng = random.Random(25)
    for _ in range(15):
        v = _random_state(rng, d, 2, 1)
        w = _random_state(rng, d, 2, 1)
        if not (v and w):
            continue
        n = rng.randint(-2, 2)
        lhs = pbw.canonical(d, element_mode(alg, v, n, w))
        rhs = {}
        bound = pbw.weight(v) + pbw.weight(w) - n
        for i in range(0, bound + 1):
            term = element_mode(alg, w, n + i, v)
            if not term:
                continue
            for _ in range(i):
                term = element_mode(alg, omega, 0, term)
            sign = -1 if (n + 1 + i) % 2 else 1
            pbw.add_into(rhs, term, Fraction(sign, factorial(i)))
        assert lhs == pbw.canonical(d, rhs)


def test_w3_products(gses):
    d = gses.domain
    w3 = gses.primaries()[0]
    got5 = pbw.canonical(d, element_mode(gses.pbw, w3, 5, w3))
    want = pbw.canonical(d, {(): d.parse("12*k^3*(k-2)*(k-1)*(3*k+4)")})
    assert got5 == want
    assert not pbw.canonical(d, element_mode(gses.pbw, w3, 4, w3))
    omega = gses.conformal()[2]
    got1 = pbw.canonical(d, element_mode(gses.pbw, omega, 1, w3))
    assert got1 == pbw.canonical(d, pbw.scale(w3, 3))


def test_mode_power(ses3):
    # the affine conformal vector's L(0) reads off the weight everywhere
    d = ses3.domain
    omega = ses3.conformal()[0]
    rng = random.Random(29)
    monos = pbw.enumerate_monomials(3)
    w = pbw.canonical(d, {m: rng.randint(-2, 2) for m in rng.sample(monos, 3)})
    assert mode_power_apply(ses3.pbw, omega, 1, 0, w) == w
    if w:
        got = pbw.canonical(d, mode_power_apply(ses3.pbw, omega, 1, 2, w))
        assert got == pbw.canonical(d, pbw.scale(w, Fraction(9)))


class _NeverVanishing:
    """Stub algebra: every generator mode sends every monomial to the vacuum,
    so both truncation bounds of word_apply are violated."""

    def __init__(self, mono_weight):
        self.word_memo = {}
        self._mono_weight = mono_weight

    def gen_weight(self, g):
        return 1

    def mono_weight(self, mono):
        return self._mono_weight

    def apply_gen(self, g, t, mono):
        return {(): 1}


def test_truncation_error_names_word_mode_and_monomial():
    word = (("a", -1),)
    # mono weight -1: u_{n+1} w survives past the branch-1 bound
    with pytest.raises(TruncationError) as err:
        word_apply(_NeverVanishing(-1), word, -2, ())
    assert str(err.value) == (
        "branch-1 truncation bound violated at word=(('a', -1),), n=-2, mono=()"
    )
    # mono weight 0: a(1) w survives past the branch-2 bound
    with pytest.raises(TruncationError) as err:
        word_apply(_NeverVanishing(0), word, 0, ())
    assert str(err.value) == (
        "branch-2 truncation bound violated at word=(('a', -1),), n=0, mono=()"
    )
