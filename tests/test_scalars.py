import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from w2345.linalg import _PolyCarrier
from w2345.scalars import (
    RF_K,
    RF_ONE,
    RatFunc,
    SpecializationError,
    UniPoly,
    _ip_gcd_subresultant,
    _ip_primitive_pos,
    comb_z,
    domain,
    ip_content,
    ip_gcd,
    ip_mul,
    ip_mul_int,
    ip_neg,
    ip_trim,
    ratfunc_normalize,
    specialize,
)

GEN = domain()


def rf(text):
    return GEN.parse(text)


def test_ratfunc_normalize_examples():
    x = UniPoly.x()
    one = UniPoly.const(1)
    assert ratfunc_normalize(x * x - 4, x + 2 * one) == rf("k-2")
    assert ratfunc_normalize(2 * x, 4 * x * x) == rf("1/(2*k)")
    assert ratfunc_normalize(-x - 2 * one, UniPoly.const(-1)) == rf("k+2")
    with pytest.raises(ZeroDivisionError):
        ratfunc_normalize(x, UniPoly())


def test_specialize_examples():
    s = rf("(36*k*(2*k+3))/(16*k+17)")
    assert specialize(s, 2) == Fraction(72, 7)
    assert specialize(rf("(k-2)/(k+2)"), 2) == 0
    with pytest.raises(SpecializationError) as err:
        rf("1/(16*k+17)").specialize(Fraction(-17, 16))
    assert "16*k + 17" in str(err.value)


def test_scalar_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if not any(den):
            den = (1,)
        s = RatFunc(num, den)
        assert GEN.parse(s.format()) == s
    lv = domain(4)
    assert lv.parse("(72/7)") == Fraction(72, 7)
    assert lv.parse("k+1") == 5


def _rand_ratfunc(rng):
    num = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 4)))
    den = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (1,)
    return RatFunc(num, den)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (_rand_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if b:
            assert (a / b) * b == a


def test_unipoly_ring_axioms():
    rng = random.Random(13)
    for _ in range(200):
        a, b, c = (
            UniPoly(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))))
            for _ in range(3)
        )
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
    z = UniPoly()
    assert z.degree is None
    assert UniPoly((1, 2)).degree == 1


def test_specialize_is_ring_hom():
    rng = random.Random(17)
    for _ in range(200):
        a, b, c = (_rand_ratfunc(rng) for _ in range(3))
        for k0 in (2, 3, 5, 11):
            try:
                lhs = specialize(a * b + c, k0)
                rhs = specialize(a, k0) * specialize(b, k0) + specialize(c, k0)
            except SpecializationError:
                continue
            assert lhs == rhs


def test_gcd_fuzz():
    from w2345.scalars import ip_trim

    rng = random.Random(19)
    for _ in range(150):
        a = ip_trim(tuple(rng.randint(-8, 8) for _ in range(rng.randint(1, 6))))
        b = ip_trim(tuple(rng.randint(-8, 8) for _ in range(rng.randint(1, 6))))
        g = ip_trim(tuple(rng.randint(-8, 8) for _ in range(rng.randint(1, 4))))
        if not any(g):
            g = (1,)
        ag, bg = ip_mul(a, g), ip_mul(b, g)
        got = ip_gcd(ag, bg)
        if any(a) and any(b):
            # the common factor divides the gcd exactly
            from w2345.scalars import ip_divexact

            ip_divexact(got, ip_gcd(g, got))  # no remainder
            q1 = ip_divexact(ag, got)
            q2 = ip_divexact(bg, got)
            assert ip_gcd(q1, q2) in ((1,), (-1,))


def test_comb_z():
    assert comb_z(-1, 3) == -1
    assert comb_z(-2, 2) == 3
    assert comb_z(4, 2) == 6
    assert comb_z(3, 5) == 0


def test_power_and_k():
    assert RF_K**2 + RF_ONE == rf("k^2+1")
    assert (RF_K + 1) ** 3 == rf("(k+1)^3")


# Integer polynomials, low degree first, times an integer content: zero,
# constants, negative leads and contents above 1 all occur.
ipoly = st.builds(
    lambda c, p: ip_mul_int(ip_trim(p), c),
    st.integers(-6, 6),
    st.lists(st.integers(-9, 9), max_size=5),
)


def _primitive_gcd(a, b):
    """Primitive gcd with positive lead, by the subresultant sequence."""
    if not a or not b:
        return _ip_primitive_pos(a or b)
    return _ip_gcd_subresultant(_ip_primitive_pos(a), _ip_primitive_pos(b))


def test_ip_gcd_keeps_content_when_one_side_is_zero():
    assert ip_gcd((), (-4,)) == (4,)
    assert ip_gcd((), (4,)) == (4,)
    assert ip_gcd((), (-6, -4)) == (6, 4)
    assert ip_gcd((-6, -4), ()) == (6, 4)
    assert _PolyCarrier.content_reduce([(-6,), (4,)]) == [(-3,), (2,)]


@given(ipoly)
def test_ip_gcd_with_zero_is_the_other_side_with_positive_lead(b):
    want = ip_neg(b) if b and b[-1] < 0 else b
    assert ip_gcd((), b) == want
    assert ip_gcd(b, ()) == want


@given(ipoly, ipoly, ipoly)
def test_ip_gcd_is_content_gcd_times_primitive_gcd(a, b, f):
    # a shared factor f makes the primitive gcd nontrivial
    a, b = ip_mul(a, f), ip_mul(b, f)
    got = ip_gcd(a, b)
    if not a and not b:
        assert got == ()
        return
    assert got[-1] > 0
    c = gcd(ip_content(a), ip_content(b))
    assert got == ip_mul_int(_primitive_gcd(a, b), c)


@given(ipoly, ipoly, ipoly)
def test_ip_gcd_matches_subresultant_on_primitive_inputs(a, b, f):
    a = _ip_primitive_pos(ip_mul(a, f))
    b = _ip_primitive_pos(ip_mul(b, f))
    if a and b:
        assert ip_gcd(a, b) == _ip_gcd_subresultant(a, b)


@given(st.lists(ipoly, min_size=1, max_size=5), ipoly)
def test_content_reduce_leaves_content_one(row, f):
    row = [ip_mul(v, f) for v in row]
    got = _PolyCarrier.content_reduce(row)
    g = ()
    for v in got:
        g = ip_gcd(g, v)
    if any(row):
        assert g == (1,)
        # the row is a multiple of the reduced row by one polynomial
        h = ()
        for v in row:
            h = ip_gcd(h, v)
        assert [ip_mul(v, h) for v in got] == row
    else:
        assert got == row
