import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from w2345 import pbw
from w2345.linalg import carrier_for
from w2345.modes import (
    TruncationError,
    add_into,
    apply_modes,
    as_target,
    decode,
    decode_state,
    element_mode,
    element_modes,
    encode,
    word_apply,
)
from w2345.pbw import E, F, H
from w2345.scalars import IP_ONE, IntPoly, RatFunc, comb_z
from w2345.walgebra import Session, enumerate_nf


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
        assert element_mode(ses3.pbw, v, -1, vac) == v
        for n in range(0, 4):
            assert not element_mode(ses3.pbw, v, n, vac)


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
        want = decode_state(alg.apply_gen(g, n, encode(w)))
        assert got == pbw.canonical(d, want)
        assert apply_modes(alg, ((g, n),), {w: 1}) == got


def test_apply_modes_builds_every_monomial_from_the_vacuum(ses5):
    # the factors of a PBW-ordered monomial or word, rightmost first, only
    # prepend creating modes: the vacuum goes to the monomial itself
    one = ses5.domain.one
    for d in range(5):
        for mono in pbw.enumerate_monomials(d):
            assert apply_modes(ses5.pbw, mono, {(): 1}) == {mono: one}, mono
    walg = ses5.walg()
    for d in range(7):
        for word in enumerate_nf(d):
            assert apply_modes(walg, word, {(): 1}) == {word: one}, word


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
        assert lhs == rhs


def test_weight_additivity(ses3):
    d = ses3.domain
    rng = random.Random(17)
    for _ in range(40):
        v = _random_state(rng, d, 3, 1)
        w = _random_state(rng, d, 3, 1)
        if not (v and w):
            continue
        n = rng.randint(-3, 3)
        out = element_mode(ses3.pbw, v, n, w)
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
        lhs = element_mode(alg, v, n, w)
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
        assert lhs == rhs


def test_w3_products(gses):
    d = gses.domain
    w3 = gses.primaries()[0]
    got5 = element_mode(gses.pbw, w3, 5, w3)
    assert got5 == {(): d.parse("12*k^3*(k-2)*(k-1)*(3*k+4)")}
    assert not element_mode(gses.pbw, w3, 4, w3)
    omega = gses.conformal()[2]
    assert element_mode(gses.pbw, omega, 1, w3) == pbw.scale(w3, 3)


def _cleared_target(alg, state):
    """A target over the cleared coefficients of state, as element_modes
    builds it, held here so that its memos can be inspected."""
    raws, _ = carrier_for(alg.domain).clear(list(state.values()))
    return as_target(alg, dict(zip(state, raws)))[1]


def _target_scalars(*targets):
    """Every coefficient the targets hold, and the targets derived from
    them hold: target states, (word, n) results and derived scales."""
    seen = set()
    stack = list(targets)
    while stack:
        tgt = stack.pop()
        if id(tgt) in seen:
            continue
        seen.add(id(tgt))
        yield from tgt.state.values()
        for state in tgt.results.values():
            yield from state.values()
        for derived in tgt.derived.values():
            if derived is not None:
                yield derived[0]
                stack.append(derived[1])


def test_level_memo_tables_hold_ints(ses5):
    # the central term uses the integer level, so no Fraction reaches the
    # PBW memo tables or the targets
    ses5.ope_entry(3, 3)
    alg = ses5.pbw
    w3 = ses5.primaries()[0]
    target = _cleared_target(alg, w3)
    for n in range(6):
        for word in w3:
            word_apply(alg, encode(word), n, target)
    assert alg._gen_memo and alg.word_memo and target.results and target.derived
    for state in alg._gen_memo.values():
        assert all(type(c) is int for c in state.values())
    assert all(type(c) is int for c in _target_scalars(target, *alg.word_memo.values()))


def test_element_mode_with_fractions_matches_double_loop(ses5):
    alg = ses5.pbw
    omega = ses5.conformal()[2]
    assert max(c.denominator for c in omega.values()) == 70
    w = {
        ((H, -2), (E, -1)): Fraction(3, 4),
        ((E, -1), (F, -2)): Fraction(-5, 6),
        ((H, -1), (H, -1), (H, -1)): Fraction(2, 9),
        ((E, -3),): Fraction(7),
    }
    for n in range(-2, 5):
        want = {}
        for word, cv in omega.items():
            for mono, cw in w.items():
                add_into(want, word_apply(alg, encode(word), n, encode(mono)), cv * cw)
        got = element_mode(alg, omega, n, w)
        assert got == decode_state(want)
    assert any(c.denominator > 1 for c in got.values())


def test_element_mode_over_qk_matches_double_loop(gses):
    # the generic mirror of the level test above: v and w carry RatFunc
    # denominators, which element_mode clears on entry and divides out once
    d = gses.domain
    alg = gses.pbw
    k = d.k
    omega = gses.conformal()[2]
    assert {c.d for c in omega.values()} == {(0, 4, 2), (2, 1), (4, 2)}  # 2k(k+2), k+2, 2(k+2)
    w = {
        ((H, -2), (E, -1)): 3 / (k - 1),
        ((E, -1), (F, -2)): (k + 5) / (6 * k + 6),
        ((H, -1), (H, -1), (H, -1)): k * k / 9,
        ((E, -3),): d.scalar(7),
    }
    target = _cleared_target(alg, w)
    for n in range(-2, 5):
        want = {}
        for word, cv in omega.items():
            for mono, cw in w.items():
                add_into(want, word_apply(alg, encode(word), n, encode(mono)), cv * cw)
            word_apply(alg, encode(word), n, target)
        got = element_mode(alg, omega, n, w)
        assert got == decode_state(want)
    assert any(c.d != IP_ONE for c in got.values())
    # the PBW memo tables and the targets hold ints and integer
    # polynomials, never a RatFunc
    assert alg._gen_memo and alg.word_memo and target.results and target.derived
    for state in alg._gen_memo.values():
        assert all(type(c) in (int, IntPoly) for c in state.values())
    scalars = list(_target_scalars(target, *alg.word_memo.values()))
    assert all(type(c) in (int, IntPoly) for c in scalars)
    assert any(type(c) is IntPoly for c in scalars)


# -- composite targets against the per-monomial oracle -------------------------

_MONOS = [m for d in range(4) for m in pbw.enumerate_monomials(d)]
_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
_ratfunc = st.builds(
    lambda n, d: RatFunc(n, d),
    st.lists(st.integers(-4, 4), max_size=3).map(tuple).filter(any),
    st.lists(st.integers(-4, 4), min_size=1, max_size=2).map(tuple).filter(any),
)


def _states(scalar, max_size):
    return st.dictionaries(st.sampled_from(_MONOS), scalar, min_size=1, max_size=max_size)


def _inhomogeneous(scalar):
    return _states(scalar, 4).filter(lambda w: len({pbw.mono_weight(m) for m in w}) > 1)


def _composite_matches_monomials(ses, v, w, ns):
    alg = ses.pbw
    multi = element_modes(alg, v, ns, w)
    assert list(multi) == list(ns)
    for n in ns:
        want = {}
        for word, cv in v.items():
            for mono, cw in w.items():
                add_into(want, word_apply(alg, encode(word), n, encode(mono)), cv * cw)
        got = element_mode(alg, v, n, w)
        assert got == decode_state(want)
        assert multi[n] == got


_modes = st.lists(st.integers(-3, 4), min_size=1, max_size=4, unique=True)


@given(_states(_fraction, 3), _inhomogeneous(_fraction), _modes)
def test_composite_target_matches_the_monomials_at_a_level(ses5, v, w, ns):
    _composite_matches_monomials(ses5, v, w, ns)


@given(_states(_ratfunc, 2), _inhomogeneous(_ratfunc), _modes)
def test_composite_target_matches_the_monomials_over_qk(gses, v, w, ns):
    _composite_matches_monomials(gses, v, w, ns)


def test_add_into_skips_explicit_zeros_on_missing_keys():
    assert add_into({}, {0: 0}, 1) == {}
    assert add_into({0: 1}, {0: 0}) == {0: 1}
    assert add_into({0: 1}, {0: 1, 1: 0}, -1) == {}


@pytest.mark.parametrize("k0", (7, 11))
def test_level_nf_expand_is_generic_specialized(gses, k0):
    # the integer-level mode calculus against the generic one, on every
    # normal-form word of weight 2..8
    lev = Session(k0)
    words = [m for d in range(2, 9) for m in enumerate_nf(d)]
    assert len(words) == 69
    for m in words:
        want = pbw.canonical(lev.domain, gses.nf_expand_element({m: gses.domain.one}))
        assert lev.nf_expand_element({m: lev.domain.one}) == want


class _NeverVanishing:
    """Stub algebra on codes: every generator mode sends every monomial to
    the vacuum, so both truncation bounds of word_apply are violated."""

    def __init__(self, mono_weight):
        self.word_memo = {}
        self._gen_memo = {}
        self._mono_weight = mono_weight

    def gen_weight(self, g):
        return 1

    def mono_weight(self, mono):
        return self._mono_weight

    def apply_gen(self, g, t, mono):
        return {b"": 1}


def test_truncation_error_names_word_mode_and_monomial():
    # the word and the monomial are printed decoded, as tuples
    word = encode(((0, -1),))
    # mono weight -1: u_{n+1} w survives past the branch-1 bound
    with pytest.raises(TruncationError) as err:
        word_apply(_NeverVanishing(-1), word, -2, b"")
    assert str(err.value) == (
        "branch-1 truncation bound violated at word=((0, -1),), n=-2, mono=()"
    )
    # mono weight 0: a(1) w survives past the branch-2 bound
    with pytest.raises(TruncationError) as err:
        word_apply(_NeverVanishing(0), word, 0, b"")
    assert str(err.value) == (
        "branch-2 truncation bound violated at word=((0, -1),), n=0, mono=()"
    )


# -- an independent oracle of the iterate formula -------------------------------


def _binom(t, i):
    """C(t, i) for any integer t."""
    num = 1
    for j in range(i):
        num *= t - j
    return Fraction(num, factorial(i))


def _oracle(alg, word, n, state):
    """(word . vacuum)_n state by the iterate formula on tuples, with no
    memo and no target: the vacuum at the bottom, both branches summed two
    terms past their weight bounds, every mode applied through the codec."""
    dom = alg.domain

    def apply(g, t, st):
        out = {}
        for m, c in st.items():
            add_into(out, pbw.canonical(dom, decode_state(alg.apply_gen(g, t, encode(m)))), c)
        return out

    if not word:
        return dict(state) if n == -1 else {}
    if not state:
        return {}
    (g, t), rest = word[0], word[1:]
    wt_rest = sum(alg.gen_weight(a) - s - 1 for a, s in rest)
    wt_w = max(pbw.mono_weight(m) for m in state)
    out = {}
    for i in range(wt_rest + wt_w - n + 2):
        c = dom.scalar(_binom(t, i) * (-1) ** (i % 2))
        add_into(out, apply(g, t - i, _oracle(alg, rest, n + i, state)), c)
    for i in range(alg.gen_weight(g) + wt_w + 2):
        c = dom.scalar(_binom(t, i) * (-1) ** ((i + t + 1) % 2))
        add_into(out, _oracle(alg, rest, t + n - i, apply(g, i, state)), c)
    return out


_WORDS = [m for m in _MONOS if 1 <= len(m) <= 3]
_oracle_modes = st.lists(st.integers(-4, 3), min_size=1, max_size=3, unique=True)


def _matches_oracle(ses, v, w, ns):
    alg = ses.pbw
    got = element_modes(alg, v, ns, w)
    for n in ns:
        want = {}
        for word, cv in v.items():
            add_into(want, _oracle(alg, word, n, w), cv)
        assert got[n] == want, (v, n, w)


@given(st.dictionaries(st.sampled_from(_WORDS), _fraction, min_size=1, max_size=2), _states(_fraction, 3), _oracle_modes)
def test_element_modes_match_the_oracle_at_a_level(ses5, v, w, ns):
    _matches_oracle(ses5, v, w, ns)


@given(st.dictionaries(st.sampled_from(_WORDS), _ratfunc, min_size=1, max_size=2), _states(_ratfunc, 2), _oracle_modes)
def test_element_modes_match_the_oracle_over_qk(gses, v, w, ns):
    _matches_oracle(gses, v, w, ns)


def test_single_factor_words_match_the_oracle_on_every_mode(ses5):
    # every creation mode of every generator, on every monomial of weight
    # <= 2, for each n at which the result can be nonzero
    alg = ses5.pbw
    one = ses5.domain.one
    monos = [m for m in _MONOS if pbw.mono_weight(m) <= 2]
    for g in (H, E, F):
        for t in (-1, -2, -3):
            for mono in monos:
                ns = range(-1 - t - 2, pbw.mono_weight(mono) - t + 1)
                got = element_modes(alg, {((g, t),): one}, ns, {mono: one})
                for n in ns:
                    assert got[n] == _oracle(alg, ((g, t),), n, {mono: one}), (g, t, n, mono)


# -- the monomial codec ----------------------------------------------------------

_PBW_MONOS = [m for d in range(7) for m in pbw.enumerate_monomials(d)]
_NF_WORDS = [m for d in range(11) for m in enumerate_nf(d)]
_FACTORS = st.tuples(st.integers(0, 3), st.integers(-128, 127))


@given(
    st.lists(
        st.one_of(
            st.sampled_from(_PBW_MONOS),
            st.sampled_from(_NF_WORDS),
            st.lists(_FACTORS, max_size=5).map(tuple),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_codec_round_trips_and_keeps_the_order(monos):
    codes = [encode(m) for m in monos]
    assert [decode(c) for c in codes] == monos
    assert all(len(c) == 2 * len(m) for m, c in zip(monos, codes))
    assert [decode(c) for c in sorted(codes)] == sorted(monos)


@pytest.mark.parametrize("mode", (128, -129, 300, -1000))
def test_encode_rejects_a_mode_out_of_range(mode):
    with pytest.raises(ValueError):
        encode(((0, -1), (1, mode)))
