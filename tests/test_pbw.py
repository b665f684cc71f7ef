import hashlib
import random

import pytest

from w2345 import pbw
from w2345.exprs import format_pbw, parse_pbw
from w2345.modes import decode_state, encode
from w2345.pbw import E, F, H
from w2345.scalars import domain

GEN = domain()


def parse(text, dom=GEN):
    return parse_pbw(text, dom)


def test_generator_action_examples(gses):
    alg = gses.pbw
    d = gses.domain
    st = decode_state(alg.apply_gen(E, 1, encode(((F, -1),))))
    assert pbw.canonical(d, st) == {(): d.k}
    for r in (1, 2, 4):
        mono = tuple((E, -1) for _ in range(r))
        got = pbw.canonical(d, decode_state(alg.apply_gen(F, 1, encode(mono))))
        assert got == {tuple((E, -1) for _ in range(r - 1)): r * (d.k - r + 1)}
    assert not pbw.canonical(d, alg.apply_gen(H, 0, encode(((E, -1), (F, -1)))))


def test_weight_examples(gses):
    d = gses.domain
    assert pbw.weight({((H, -2), (H, -1)): d.one}) == 3
    omega = gses.conformal()[2]
    assert pbw.weight(omega) == 2
    assert pbw.weight({(): d.one, ((H, -1),): d.one}) is None
    with pytest.raises(ValueError):
        pbw.weight({})


def test_theta_examples(gses):
    d = gses.domain
    alg = gses.pbw
    st = parse("h(-1)e(-2)|0>")
    want = parse("-h(-1)f(-2)|0>")
    assert pbw.canonical(d, pbw.theta(alg, st)) == want


def test_theta_involution_random(gses):
    rng = random.Random(31)
    d = gses.domain
    alg = gses.pbw
    monos = pbw.enumerate_monomials(3) + pbw.enumerate_monomials(4)
    for _ in range(50):
        st = {}
        for mono in rng.sample(monos, 3):
            st[mono] = rng.randint(-3, 3)
        st = pbw.canonical(d, st)
        assert pbw.canonical(d, pbw.theta(alg, pbw.theta(alg, st))) == st


def test_theta_h0_negation(gses):
    # theta commutes with negating the h(0) charge
    d = gses.domain
    alg = gses.pbw
    for mono in pbw.enumerate_monomials(4):
        img = pbw.canonical(d, pbw.theta(alg, {mono: d.one}))
        if img:
            assert {pbw.mono_h0(m) for m in img} == {-pbw.mono_h0(mono)}


def dim_weight_space(d):
    """Number of PBW monomials of weight d (3-colored partitions)."""
    ways = [1] + [0] * d
    for n in range(1, d + 1):
        for _ in range(3):
            for j in range(n, d + 1):
                ways[j] += ways[j - n]
    return ways[d]


def test_dim_weight_space():
    assert dim_weight_space(0) == 1
    assert dim_weight_space(2) == 9
    # brute-force enumeration is checked against the generating function
    for d in range(0, 9):
        assert len(pbw.enumerate_monomials(d)) == dim_weight_space(d)
    assert dim_weight_space(10) == 2640


# sha256 of repr([enumerate_monomials(d) for d in range(9)]) and of the same
# list with the h(0) = 0 filter: the word order fixes the order of the
# commutant weight spaces
MONOMIALS_SHA256 = "093f86bcdd1b294654c07efdc657c374c69fe1e6245519ed2f0e0e85ef2dbcb2"
MONOMIALS_H0_SHA256 = "7cbcb45156fd865d7914c9d3511904753d5f7a5e453673e13295024f0ea59bec"


def test_enumerate_monomials_matches_the_pinned_digests():
    def digest(words):
        return hashlib.sha256(repr(words).encode()).hexdigest()

    assert digest([pbw.enumerate_monomials(d) for d in range(9)]) == MONOMIALS_SHA256
    assert digest([pbw.enumerate_monomials(d, 0) for d in range(9)]) == MONOMIALS_H0_SHA256


def test_h0_grading():
    for mono in pbw.enumerate_monomials(5):
        q = sum(1 for g, _ in mono if g == E)
        r = sum(1 for g, _ in mono if g == F)
        assert pbw.mono_h0(mono) == 2 * (q - r)


def test_affine_commutation_random(gses):
    # a(m) b(n) w - b(n) a(m) w = [a,b](m+n) w + m <a,b> delta k w
    rng = random.Random(37)
    d = gses.domain
    alg = gses.pbw
    brackets = {
        (H, E): (2, E),
        (H, F): (-2, F),
        (E, F): (1, H),
        (E, H): (-2, E),
        (F, H): (2, F),
        (F, E): (-1, H),
    }
    forms = {(H, H): 2, (E, F): 1, (F, E): 1}
    monos = pbw.enumerate_monomials(0) + pbw.enumerate_monomials(1) + pbw.enumerate_monomials(2) + pbw.enumerate_monomials(3)
    for _ in range(150):
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
            coef, g2 = br
            pbw.add_into(rhs, alg.apply_gen(g2, m + n, w), coef)
        if m + n == 0 and (a, b) in forms:
            pbw.add_into(rhs, {w: 1}, m * forms[(a, b)] * d.k)
        assert pbw.canonical(d, lhs) == pbw.canonical(d, rhs)


def test_weight_grading_of_action(gses):
    d = gses.domain
    alg = gses.pbw
    rng = random.Random(41)
    monos = pbw.enumerate_monomials(3)
    for _ in range(60):
        w = rng.choice(monos)
        a = rng.choice((H, E, F))
        n = rng.randint(-3, 3)
        out = pbw.canonical(d, decode_state(alg.apply_gen(a, n, encode(w))))
        if out:
            assert pbw.weight(out) == 3 - n


def test_parse_print_round_trip(gses):
    d = gses.domain
    texts = [
        "h(-1)h(-1)|0>",
        "(72/7) * e(-2)f(-1)|0> - k * h(-3)|0>",
        "k^2 * h(-3)|0> + 3*k * h(-2)h(-1)|0>",
    ]
    for t in texts:
        st = parse(t)
        again = parse_pbw(format_pbw(st, d), d)
        assert again == st


def test_parse_rejects_non_creation():
    from w2345.exprs import ParseError

    with pytest.raises(ParseError):
        parse("h(0)|0>")
    with pytest.raises(ParseError):
        parse("h(-1)h(-3)|0>")  # out of canonical order
