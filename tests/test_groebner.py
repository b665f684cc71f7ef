import random
from fractions import Fraction

from w2345 import exprs, groebner
from w2345.groebner import (
    MonomialOrder,
    buchberger,
    lex_order,
    point_membership,
    quotient_dimension,
    radical_multiplicity_check,
    spoly_reductions_vanish,
    standard_monomials,
)
from w2345.multipoly import MultiPoly
from w2345.scalars import domain

QQ = domain(0)
VARS = ("w2", "w3", "w4", "w5")


def poly(text, vars=VARS):
    return exprs.parse_multipoly(text, vars, QQ).map_coeffs(Fraction)


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
    gens = [poly(t) for t in PINNED]
    for kind in ("lex", "grlex", "grevlex"):
        gb = buchberger(gens, MonomialOrder(kind, ("w5", "w4", "w3", "w2")))
        key = gb.key()
        assert gb.leading_terms() == [max(g.terms, key=key) for g in gb.elements]
        assert all(gb.elements[i].terms[m] > 0 for i, m in enumerate(gb.leading_terms()))


def test_buchberger_reduction_count_is_pinned(monkeypatch):
    # Same pair selection and the same two criteria give the same reductions:
    # 89 calls of _reduce_full, generators and inter-reduction included.
    calls = []
    reduce_full = groebner._reduce_full

    def counting(*args):
        calls.append(1)
        return reduce_full(*args)

    monkeypatch.setattr(groebner, "_reduce_full", counting)
    gb = buchberger([poly(t) for t in PINNED], lex_order(("w5", "w4", "w3", "w2")))
    assert quotient_dimension(gb) == 20
    assert len(calls) == 89
