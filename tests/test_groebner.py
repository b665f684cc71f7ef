import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from w2345 import exprs, groebner
from w2345.groebner import (
    MonomialOrder,
    buchberger,
    lex_order,
    normalized,
    point_membership,
    quotient_dimension,
    radical_multiplicity_check,
    spoly_reductions_vanish,
    standard_monomials,
)
from w2345.multipoly import MultiPoly
from w2345.scalars import domain
from w2345.zhu import X_VARS

QQ = domain(0)
VARS = ("w2", "w3", "w4", "w5")


def poly(text, vars=VARS):
    return exprs.parse_multipoly(text, vars, QQ).map_coeffs(Fraction)


def test_the_zero_polynomial_hashes_like_0():
    # equal objects hash alike: a zero polynomial is one key with 0
    p = poly("w2 - w3")
    for zero in (MultiPoly.zero(VARS), MultiPoly(VARS), p - p):
        assert zero == 0 and hash(zero) == hash(0)
        assert len({zero, 0}) == 1 and {0: "zero"}[zero] == "zero"
    assert len({p, 0}) == 2 and hash(p) == hash(poly("w2 - w3"))


def test_trivial_basis():
    gb = buchberger([poly("w2"), poly("w3")], lex_order(("w5", "w4", "w3", "w2")))
    assert [p.format() for p in gb.elements] == ["w2", "w3"]
    assert quotient_dimension(gb) is None  # w4, w5 free


def test_katsura_like_example():
    # a small complete intersection: quotient dimension known by Bezout
    gens = [poly("w2^2 - 1"), poly("w3^2 - w2"), poly("w4 - 1"), poly("w5")]
    gb = buchberger(gens, lex_order(("w5", "w4", "w3", "w2")))
    assert quotient_dimension(gb) == 4
    assert spoly_reductions_vanish(gb)
    assert point_membership(gb.elements, (1, 1, 1, 0))
    assert not point_membership(gb.elements, (1, 1, 1, 1))


def test_reduction_and_normal_form():
    gens = [poly("w2^2 - w3"), poly("w3^2 - w2")]
    gb = buchberger(gens, lex_order(("w5", "w4", "w3", "w2")))
    nf = gb.normal_form(poly("w2^4"))
    # w2^4 = (w2^2)^2 -> w3^2 -> w2
    assert nf == poly("w2")


def test_order_independence_of_dimension():
    gens = [poly("w2^3 - 1"), poly("w3 - w2"), poly("w4^2 - w2"), poly("w5")]
    dims = set()
    for kind in ("lex", "grlex", "grevlex"):
        gb = buchberger(gens, MonomialOrder(kind, ("w5", "w4", "w3", "w2")))
        dims.add(quotient_dimension(gb))
        assert spoly_reductions_vanish(gb)
    assert len(dims) == 1


def test_ideal_equality_under_order_change():
    gens = [poly("w2^2 + w3 - 1"), poly("w3^2 - w2")]
    g1 = buchberger(gens, MonomialOrder("lex", ("w5", "w4", "w3", "w2")))
    g2 = buchberger(gens, MonomialOrder("grevlex", ("w5", "w4", "w3", "w2")))
    rng = random.Random(47)
    for _ in range(20):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(4)): Fraction(rng.randint(-3, 3))
            for _ in range(3)
        }
        p = MultiPoly(VARS, terms)
        assert bool(g1.normal_form(p)) == bool(g2.normal_form(p))


def test_radical_multiplicity_count_mismatch():
    gens = [poly("w2^2 - 1"), poly("w3"), poly("w4"), poly("w5")]
    gb = buchberger(gens, lex_order(("w5", "w4", "w3", "w2")))
    assert quotient_dimension(gb) == 2
    pts = [(1, 0, 0, 0)]
    assert not radical_multiplicity_check(gb, pts)
    pts = [(1, 0, 0, 0), (-1, 0, 0, 0)]
    assert radical_multiplicity_check(gb, pts)


def test_standard_monomials_listing():
    gens = [poly("w2^2"), poly("w3"), poly("w4"), poly("w5^3")]
    gb = buchberger(gens, lex_order(("w5", "w4", "w3", "w2")))
    std = standard_monomials(gb)
    assert len(std) == quotient_dimension(gb) == 6


def test_level5_dimension_order_independent(gses, ses5):
    # the quotient dimension of the level-5 Zhu ideal must not depend on
    # the chosen monomial order
    from w2345 import singular
    from w2345.zhu import ZhuC2

    red = ZhuC2(gses)
    polys, _ = singular.p_polynomials(ses5)
    q0, q1 = red.q_polynomials()
    gens = polys + [
        q0.specialize_level(5).primitive_integer()[0],
        q1.specialize_level(5).primitive_integer()[0],
    ]
    dims = set()
    for kind in ("lex", "grevlex"):
        gb = buchberger(gens, MonomialOrder(kind, ("w5", "w4", "w3", "w2")))
        dims.add(quotient_dimension(gb))
    assert dims == {15}


# A small zero-dimensional ideal (quotient dimension 20) whose Buchberger run
# selects, prunes and reduces enough pairs to pin the selection order.
PINNED = ["w2^2*w3 - w4", "w3^2 - w2 + w5", "w4^2 - w3", "w5^2 - w2*w4 - 1"]
PRECEDENCE = ("w5", "w4", "w3", "w2")


def test_reduced_basis_independent_of_generator_order():
    order = lex_order(("w5", "w4", "w3", "w2"))
    gens = [poly(t) for t in PINNED]
    want = [p.format() for p in buchberger(gens, order).elements]
    assert len(want) == 4
    rng = random.Random(11)
    for _ in range(5):
        rng.shuffle(gens)
        assert [p.format() for p in buchberger(gens, order).elements] == want


def test_stored_leading_terms_match_the_order():
    # each entry is its output element itself: the same lead, the same
    # terms as plain ints, primitive with a positive leading coefficient
    gens = [poly(t) for t in PINNED]
    for kind in ("lex", "grlex", "grevlex"):
        gb = buchberger(gens, MonomialOrder(kind, ("w5", "w4", "w3", "w2")))
        assert gb.leads == [max(g.terms, key=gb.key) for g in gb.elements]
        assert len(gb.entries) == len(gb.elements)
        for i, ((m, terms), g) in enumerate(zip(gb.entries, gb.elements)):
            assert m == gb.leads[i]
            assert all(type(c) is int for c in terms.values())
            assert terms == g.terms
            assert terms[m] > 0
            assert normalized(MultiPoly(VARS, terms), gb.key) == g


def test_spoly_check_rejects_a_set_that_is_not_a_basis():
    # the PINNED generators before completion: some S-polynomial of them does
    # not reduce to zero against them, so the certificate must fail
    order = lex_order(("w5", "w4", "w3", "w2"))
    gens = [poly(t) for t in PINNED]
    assert not spoly_reductions_vanish(groebner.GroebnerBasis(VARS, order, gens))
    assert spoly_reductions_vanish(buchberger(gens, order))


def test_buchberger_reduction_count_is_pinned(monkeypatch):
    # Same pair selection and the same two criteria give the same reductions:
    # 89 calls of _reduce_full on the direct lex path, generators and
    # inter-reduction included.  The routed call, a grevlex basis and its
    # change of order with the exact check, makes 52.
    calls = []
    reduce_full = groebner._reduce_full

    def counting(*args):
        calls.append(1)
        return reduce_full(*args)

    monkeypatch.setattr(groebner, "_reduce_full", counting)
    order = lex_order(("w5", "w4", "w3", "w2"))
    gens = [poly(t) for t in PINNED]
    gb = groebner._buchberger(gens, order)
    assert quotient_dimension(gb) == 20
    assert len(calls) == 89
    calls.clear()
    assert buchberger(gens, order).elements == gb.elements
    assert len(calls) == 52


# -- staircases -----------------------------------------------------------------

# quotient dimension 8
SMALL = ["w2^2 + w3 - 1", "w3^2 - w2", "w4 - w2*w3", "w5^2 - w4"]


def _brute_force_staircase(leads):
    """Every exponent up to the total degree of the pure-power box that no
    lead divides, sorted."""
    box = [min(e[v] for e in leads if sum(e) == e[v]) for v in range(len(VARS))]
    return sorted(
        e
        for e in product(range(sum(box) + 1), repeat=len(VARS))
        if sum(e) <= sum(box) and not any(all(a <= b for a, b in zip(l, e)) for l in leads)
    )


@pytest.mark.parametrize("texts, dim", [(PINNED, 20), (SMALL, 8)], ids=["pinned", "small"])
@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_standard_monomials_match_a_brute_force_filter(texts, dim, kind):
    gb = buchberger([poly(t) for t in texts], MonomialOrder(kind, PRECEDENCE))
    std = standard_monomials(gb)
    assert std == _brute_force_staircase(gb.leads)
    assert quotient_dimension(gb) == len(std) == dim
    # a copy: the caller may change it without touching the basis
    std.clear()
    assert standard_monomials(gb) == _brute_force_staircase(gb.leads)


def test_staircase_is_none_without_a_pure_power_per_variable():
    gb = buchberger([poly("w2"), poly("w3")], MonomialOrder("grevlex", PRECEDENCE))
    assert gb.staircase is None
    assert groebner._staircase(gb.leads, len(VARS)) is None
    with pytest.raises(ValueError):
        standard_monomials(gb)


@pytest.mark.parametrize("texts", [PINNED, SMALL], ids=["pinned", "small"])
def test_dropping_a_lead_changes_the_staircase(texts):
    gb = buchberger([poly(t) for t in texts], MonomialOrder("grevlex", PRECEDENCE))
    assert groebner._staircase(gb.leads, len(VARS)) == gb.staircase
    for i in range(len(gb.leads)):
        fewer = gb.leads[:i] + gb.leads[i + 1 :]
        assert groebner._staircase(fewer, len(VARS)) != gb.staircase


fraction_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in VARS)),
    st.fractions(max_denominator=50).filter(bool),
    min_size=1,
    max_size=6,
).map(lambda terms: MultiPoly(VARS, terms))


@given(fraction_polys)
def test_primitive_integer_and_normalized_share_one_clearing(p):
    prim, s = p.primitive_integer()
    assert s * prim == p
    coeffs = list(prim.terms.values())
    assert all(type(c) is Fraction and c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert prim.terms[max(prim.terms, key=lambda e: (sum(e), e))] > 0
    for kind in ("lex", "grlex", "grevlex"):
        key = MonomialOrder(kind, PRECEDENCE).for_vars(VARS)
        norm = normalized(p, key)
        assert norm in (prim, -prim)
        assert norm.terms[max(norm.terms, key=key)] > 0


# -- change of order by FGLM ---------------------------------------------------

GREVLEX = MonomialOrder("grevlex", ("w5", "w4", "w3", "w2"))


@pytest.mark.parametrize("texts", [PINNED, SMALL], ids=["pinned", "small"])
@pytest.mark.parametrize("kind", ["lex", "grlex"])
def test_fglm_matches_direct_buchberger(texts, kind):
    gens = [poly(t) for t in texts]
    order = MonomialOrder(kind, ("w5", "w4", "w3", "w2"))
    direct = groebner._buchberger(gens, order)
    converted = groebner.fglm(groebner._buchberger(gens, GREVLEX), order, gens)
    assert converted.elements == direct.elements
    assert converted.leads == direct.leads
    assert buchberger(gens, order).elements == direct.elements


def test_positive_dimensional_input_takes_the_direct_path(monkeypatch):
    def no_fglm(*args):
        raise AssertionError("fglm called on a positive-dimensional ideal")

    monkeypatch.setattr(groebner, "fglm", no_fglm)
    order = lex_order(("w5", "w4", "w3", "w2"))
    gb = buchberger([poly("w2"), poly("w3")], order)
    assert [p.format() for p in gb.elements] == ["w2", "w3"]
    # w3 = w2^2 and then w2*w3 - w3 = w2^3 - w2^2; w4 and w5 are free
    gb = buchberger([poly("w2^2 - w3"), poly("w3*w2 - w3")], order)
    assert [p.format() for p in gb.elements] == ["w2^3 - w2^2", "-w2^2 + w3"]
    assert quotient_dimension(gb) is None


@pytest.mark.parametrize("texts", [PINNED, SMALL], ids=["pinned", "small"])
def test_fglm_raises_when_a_grevlex_element_is_dropped(texts):
    # Without one element the grevlex set is no longer the ideal's basis.
    # When its staircase is still finite, the walk or the exact check must
    # fail; when it is infinite, fglm refuses it outright.
    gens = [poly(t) for t in texts]
    gb = groebner._buchberger(gens, GREVLEX)
    order = lex_order(("w5", "w4", "w3", "w2"))
    checked = 0
    for i in range(len(gb.elements)):
        bad = groebner.GroebnerBasis(VARS, GREVLEX, gb.elements[:i] + gb.elements[i + 1 :])
        infinite = quotient_dimension(bad) is None
        with pytest.raises(ValueError if infinite else ArithmeticError):
            groebner.fglm(bad, order, gens)
        checked += not infinite
    assert checked >= 3


def _value_at(p, pt):
    """The exact value of p at the point: sum over its terms of
    c * prod x_i^e_i."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for x, a in zip(pt, e):
            term *= Fraction(x) ** a
        total += term
    return total


def test_point_membership_matches_evaluate():
    rng = random.Random(29)
    for _ in range(40):
        p = _random_poly(rng)
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in VARS)
        value = _value_at(p, pt)
        # a member: p minus its value at the point vanishes there
        member = p - value
        assert point_membership([member], pt)
        assert point_membership([p], pt) == (value == 0)
        assert point_membership([member, p], pt) == (value == 0)
    assert point_membership([MultiPoly(VARS)], (1, 2, 3, 4))
    with pytest.raises(ValueError):
        point_membership([poly("w2")], (1, 2, 3))


# -- outside oracle: sympy's Groebner bases and remainders ----------------------


def _monic(terms, lead):
    """A polynomial as a set of (exponent, coefficient) pairs divided by the
    coefficient of its leading exponent ``lead``."""
    lc = terms[lead]
    return frozenset((e, Fraction(c) / lc) for e, c in terms.items())


def _to_sympy(p, syms):
    """A polynomial as a sympy expression in ``syms``, its variables in
    reverse order."""
    terms = {e[::-1]: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *syms).as_expr()


def _from_sympy(p):
    """The terms of a sympy Poly, exponents in reverse generator order."""
    return {e[::-1]: Fraction(int(c.p), int(c.q)) for e, c in p.terms()}


def _random_poly(rng):
    terms = {}
    for _ in range(5):
        e = tuple(rng.randint(0, 4) for _ in VARS)
        terms[e] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
    return MultiPoly(VARS, terms)


@pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
def test_pinned_basis_and_normal_forms_match_sympy(kind):
    # the reduced basis is unique, and so is the remainder of a polynomial by
    # it, whatever the division order: both must agree with sympy's, the
    # remainders on polynomials with non-integer coefficients
    gens = [poly(t) for t in PINNED]
    gb = buchberger(gens, MonomialOrder(kind, PRECEDENCE))
    syms = sympy.symbols(PRECEDENCE)
    sym_gb = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order=kind, domain="QQ")
    want = {_monic(_from_sympy(g), g.monoms(order=kind)[0][::-1]) for g in sym_gb.polys}
    assert {_monic(g.terms, m) for g, m in zip(gb.elements, gb.leads)} == want
    rng = random.Random(17)
    nonzero = 0
    for _ in range(5):
        p = _random_poly(rng)
        _, rem = sympy.reduced(_to_sympy(p, syms), sym_gb.exprs, *syms, order=kind, domain="QQ")
        nf = gb.normal_form(p)
        assert nf.terms == _from_sympy(sympy.Poly(rem, *syms))
        assert all(type(c) is Fraction for c in nf.terms.values())
        nonzero += bool(nf)
    assert nonzero == 5


@pytest.mark.parametrize("level", [5, 6])
def test_lex_buchberger_matches_sympy_on_the_a_ideals(gses, ses5, ses6, level):
    from test_acceptance import _a_ideal

    gens = _a_ideal(gses, ses5 if level == 5 else ses6)
    gb = buchberger(gens, lex_order(("x5", "x4", "x3", "x2")))
    syms = sympy.symbols(X_VARS[::-1])  # x5 > x4 > x3 > x2
    sym_gb = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="lex", domain="QQ")
    want = {_monic(_from_sympy(g), g.monoms(order="lex")[0][::-1]) for g in sym_gb.polys}
    assert len(want) == len(gb.elements) == {5: 11, 6: 13}[level]
    assert {_monic(g.terms, m) for g, m in zip(gb.elements, gb.leads)} == want
