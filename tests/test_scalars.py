import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from w2345.linalg import _PolyCarrier
from w2345.scalars import (
    RF_K,
    RF_ONE,
    IntPoly,
    RatFunc,
    ReconstructionError,
    SpecializationError,
    _ip_gcd_subresultant,
    _ip_primitive_pos,
    comb_z,
    domain,
    ip_gcd,
    ip_mul,
    ip_mul_int,
    ip_neg,
    ip_trim,
    reconstruct,
    specialize,
)

GEN = domain()


def rf(text):
    return GEN.parse(text)


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
    assert _PolyCarrier.content_reduce([(-6,), (4,)]) == ([(-3,), (2,)], (2,))


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
    c = gcd(*a, *b)
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
    got, content = _PolyCarrier.content_reduce(row)
    g = ()
    for v in got:
        g = ip_gcd(g, v)
    if any(row):
        assert g == (1,)
        # the row is the reduced row times its content
        h = ()
        for v in row:
            h = ip_gcd(h, v)
        assert content == h
        assert [ip_mul(v, h) for v in got] == row
    else:
        assert got is row and content == (1,)


# -- IntPoly: the engines' raw numbers over Q(k) -----------------------------


@given(ipoly, ipoly, st.integers(-9, 9))
def test_intpoly_arithmetic_matches_ratfunc(a, b, c):
    # against ints, IntPolys and plain tuples, on either side: a plain tuple
    # on the left must not concatenate or repeat
    pa, pb = IntPoly(a), IntPoly(b)
    ra, rb = RatFunc(a), RatFunc(b)
    cases = [
        (pa + pb, ra + rb),
        (pa * pb, ra * rb),
        (-pa, -ra),
        (pa + -pb, ra - rb),
        (pa + c, ra + c),
        (c + pa, c + ra),
        (pa * c, ra * c),
        (c * pa, c * ra),
        (pa + b, ra + rb),
        (b + pa, rb + ra),
        (pa * b, ra * rb),
        (b * pa, rb * ra),
    ]
    for got, want in cases:
        assert type(got) is IntPoly
        assert want.d == (1,) and got == want.n
        assert GEN.scalar(got) == want


def test_intpoly_leaves_other_operands_to_them():
    p = IntPoly((1, 2))
    for other in (Fraction(1, 2), 0.5, "k", [1]):
        assert p.__add__(other) is NotImplemented
        assert p.__mul__(other) is NotImplemented
    assert p * RF_K == RatFunc((0, 1, 2)) == RF_K * p
    assert p + RF_K == RatFunc((1, 3))
    with pytest.raises(TypeError):
        p * Fraction(1, 2)


# -- outside oracle: sympy's rational functions in k --------------------------

K = sympy.Symbol("k")
ratfunc = st.builds(RatFunc, ipoly, ipoly.filter(bool))


def _expr(r):
    """A RatFunc as a sympy expression in k."""
    num = sum(c * K**i for i, c in enumerate(r.n))
    return num / sum(c * K**i for i, c in enumerate(r.d))


def _normal_form(expr):
    """Numerator and denominator coefficient tuples of a rational function
    in k, coprime in Z[k] (contents included), positive denominator lead."""
    num, den = sympy.fraction(sympy.cancel(expr))
    p, q = (sympy.Poly(x, K, domain="QQ") for x in (num, den))
    c = 1
    for x in p.coeffs() + q.coeffs():
        c = sympy.ilcm(c, x.q)
    p, q = ((x * c).set_domain("ZZ") for x in (p, q))
    g = p.gcd(q)
    p, q = p.exquo(g), q.exquo(g)
    if q.LC() < 0:
        p, q = -p, -q
    return tuple(
        tuple(int(x) for x in reversed(f.all_coeffs())) if not f.is_zero else ()
        for f in (p, q)
    )


@given(ratfunc, ratfunc, st.integers(-4, 4))
def test_ratfunc_arithmetic_matches_sympy_cancel(a, b, c):
    ea, eb = _expr(a), _expr(b)
    cases = [(a, ea), (a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb)]
    cases += [(a * c, ea * c), (a + c, ea + c)]
    if b:
        cases.append((a / b, ea / eb))
    for got, want in cases:
        assert (got.n, got.d) == _normal_form(want)


@given(ratfunc, st.integers(-6, 6))
def test_specialize_matches_substitution(r, k0):
    # dividing by k - k0 makes the denominator vanish at k0, unless the
    # numerator cancels the factor
    for s in (r, r / (RF_K - k0)):
        num, den = sympy.fraction(sympy.cancel(_expr(s)))
        dv = den.subs(K, k0)
        if dv == 0:
            with pytest.raises(SpecializationError):
                s.specialize(k0)
        else:
            v = num.subs(K, k0) / dv
            assert s.specialize(k0) == Fraction(int(v.p), int(v.q))


# -- hashing agrees with equality ---------------------------------------------


@given(st.fractions())
def test_constant_ratfunc_hashes_as_its_fraction(q):
    r = RatFunc.from_fraction(q)
    assert r == q and hash(r) == hash(q)
    assert len({r, q}) == 1 and q in {r}


@given(ratfunc, ipoly.filter(bool))
def test_equal_scalars_hash_equal(r, f):
    # the same function built from an unreduced pair, and as a plain number
    same = RatFunc(ip_mul(r.n, f), ip_mul(r.d, f))
    assert same == r and hash(same) == hash(r)
    if len(r.n) <= 1 and len(r.d) == 1:
        q = Fraction(r.n[0] if r.n else 0, r.d[0])
        assert q == r and hash(q) == hash(r)
        if q.denominator == 1:
            assert int(q) == r and hash(int(q)) == hash(r)


# -- rational reconstruction from values at levels ----------------------------


def _sampled(*fs):
    """sample(k0) for reconstruct: the values of fs at k0, plus the levels seen."""
    seen = []

    def sample(k0):
        seen.append(k0)
        return [f.specialize(k0) for f in fs]

    return sample, seen


poly8 = st.lists(st.integers(-9, 9), max_size=9).map(tuple)  # degree <= 8


@given(poly8, poly8.filter(any))
def test_reconstruct_recovers_a_sampled_ratfunc(n, d):
    f = RatFunc(n, d)
    sample, _ = _sampled(f)
    assert reconstruct(sample, 7) == [f]


def test_reconstruct_skips_a_level_where_the_denominator_vanishes():
    f = rf("(k^2 - 3)/((k - 8)*(k + 1))")
    sample, seen = _sampled(f, rf("k"))
    assert reconstruct(sample, 7) == [f, rf("k")]
    assert 8 in seen  # sampled, raised SpecializationError, skipped


def test_reconstruct_zero_constant_and_polynomial():
    fs = [rf("0"), rf("-5/3"), rf("2*k^5 - k + 7")]
    sample, seen = _sampled(*fs)
    assert reconstruct(sample, 7) == fs
    # degree 5 needs 10 Thiele points (type (5, 4)) and two confirmations
    assert len(seen) == 12


def test_reconstruct_gives_up_at_the_level_cap():
    with pytest.raises(ReconstructionError):
        reconstruct(lambda k0: [Fraction(2) ** k0], 7)  # not rational in k

    def never(k0):
        raise SpecializationError(f"no value at k = {k0}")

    with pytest.raises(ReconstructionError):
        reconstruct(never, 7)
