"""The engine contract: what the engines return holds exactly the session
domain's scalar type, a Fraction at a level and a RatFunc over Q(k).  No raw
int, IntPoly or float leaves the mode calculus, so no caller settles its
outputs again."""

from fractions import Fraction

import pytest

from w2345 import exprs, pbw, singular
from w2345.groebner import buchberger, lex_order
from w2345.linalg import carrier_for
from w2345.modes import apply_modes, decode_state, element_modes, encode
from w2345.multipoly import MultiPoly
from w2345.pbw import E, F, H
from w2345.scalars import RatFunc, domain
from w2345.walgebra import G3, G4, GW, enumerate_nf
from w2345.zhu import X_VARS, ZhuC2


@pytest.fixture(params=["ses5", "gses"])
def ses(request):
    return request.getfixturevalue(request.param)


def _assert_domain_scalars(dom, coeffs, what):
    want = RatFunc if dom.is_generic else Fraction
    coeffs = list(coeffs)
    assert coeffs, f"{what}: nothing to check"
    bad = sorted({type(c).__name__ for c in coeffs if type(c) is not want})
    assert not bad, f"{what}: {bad} coefficients, not {want.__name__}"


def _elem_coeffs(elems):
    return [c for elem in elems for c in elem.values()]


def test_element_modes_return_domain_scalars(ses):
    dom = ses.domain
    h, ef = {((H, -1),): dom.one}, {((E, -1), (F, -1)): dom.one}
    # both clearing factors are 1: nothing but the lift makes these scalars
    assert carrier_for(dom).clear(list(h.values()))[1] == 1
    outs = element_modes(ses.pbw, h, range(-1, 3), ef)
    assert outs[-1] and outs[1]
    _assert_domain_scalars(dom, _elem_coeffs(outs.values()), "h(-1)|0> on e(-1)f(-1)|0>")
    w3 = ses.generator_state(G3)
    outs = element_modes(ses.pbw, w3, range(6), w3)
    _assert_domain_scalars(dom, _elem_coeffs(outs.values()), "W3 on W3")


def test_apply_modes_returns_domain_scalars(ses):
    dom = ses.domain
    # the PBW memo holds ints and, over Q(k), IntPolys in the central term
    outs = [
        apply_modes(ses.pbw, ((H, 1),), {((H, -1),): 1}),
        apply_modes(ses.pbw, ((E, 1),), {((F, -1),): 1}),
        apply_modes(ses.pbw, ((F, 0),) * 2, {((E, -1),) * 2: 1}),
    ]
    assert all(outs)
    _assert_domain_scalars(dom, _elem_coeffs(outs), "apply_modes on the PBW algebra")
    walg = ses.walg()
    # apply_gen leaves a creating mode's coefficient a raw int
    assert [type(c) for c in walg.apply_gen(GW, -1, encode(((G3, -1),))).values()] == [int]
    outs = [
        apply_modes(walg, ((GW, -1),), {((G3, -1),): 1}),
        apply_modes(walg, ((G3, 1),), {((G3, -1),): 1}),
        apply_modes(walg, ((G4, 0), (G3, -1)), {((G3, -1),): 1}),
    ]
    assert all(outs)
    _assert_domain_scalars(dom, _elem_coeffs(outs), "apply_modes on the W-algebra")
    flipped = [pbw.theta(ses.pbw, ses.generator_state(g)) for g in (GW, G3)]
    _assert_domain_scalars(dom, _elem_coeffs(flipped), "theta of a generator")


def test_normal_form_outputs_return_domain_scalars(ses):
    dom = ses.domain
    words = [w for d in range(7) for w in enumerate_nf(d)]
    expansions = (ses.nf_expand_element({w: dom.one}) for w in words)
    _assert_domain_scalars(dom, _elem_coeffs(expansions), "nf_expand_element")
    _assert_domain_scalars(dom, _elem_coeffs(ses.ope_entry(3, 4).values()), "ope_entry(3, 4)")
    for d in (8, 9):
        _assert_domain_scalars(dom, _elem_coeffs(ses.null_fields(d)), f"null_fields({d})")


def test_ur_normal_forms_return_level_scalars(ses5):
    nfs = [singular.ur_normal_form(ses5, r) for r in range(4)]
    _assert_domain_scalars(ses5.domain, _elem_coeffs(nfs), "ur_normal_form")


def test_quotient_images_return_domain_scalars(ses):
    red = ZhuC2(ses)
    q0, q1 = red.q_polynomials()
    b0, b1, b2, scalar = red.b_polynomials()
    coeffs = [c for p in (q0, q1, b0, b1, b2) for c in p.terms.values()]
    _assert_domain_scalars(ses.domain, [*coeffs, scalar], "Q0, Q1, B0-B2 and the B2 scalar")
    rel = ses.null_field_for(((G3, -1), (G4, -3)))
    _assert_domain_scalars(ses.domain, red.zhu_reduce(rel).terms.values(), "zhu_reduce")


def test_c2_reduce_settles_raw_states(ses):
    # apply_gen leaves a creating mode's coefficient a raw int
    red = ZhuC2(ses)
    state = decode_state(ses.walg().apply_gen(GW, -1, encode(((G3, -1),))))
    assert [type(c) for c in state.values()] == [int]
    _assert_domain_scalars(ses.domain, red.c2_reduce(state).terms.values(), "c2_reduce")


def test_groebner_layer_returns_level_scalars(ses5):
    # Buchberger reduces on primitive integer entries; its elements and the
    # normal forms it returns carry Fractions, not those raw ints
    polys, _ = singular.a_polynomials(ses5)
    gb = buchberger(polys, lex_order(X_VARS[::-1]))
    _assert_domain_scalars(ses5.domain, _elem_coeffs(g.terms for g in gb.elements), "buchberger")
    probe = MultiPoly(X_VARS, {(1, 2, 0, 3): Fraction(2, 7), (0, 1, 0, 0): Fraction(-5, 3)})
    for p in (probe, polys[0] * Fraction(1, 3) + probe):
        _assert_domain_scalars(ses5.domain, gb.normal_form(p).terms.values(), "normal_form")


def test_parsers_at_a_level_return_fractions():
    # k is the int level inside the parser; each entry point settles
    dom = domain(5)
    for text, want in (("k^2", 25), ("k/2", Fraction(5, 2))):
        got = exprs.parse_scalar(text, dom)
        assert got == want and type(got) is Fraction
        poly = exprs.parse_multipoly(f"({text})*m + k", ("m",), dom)
        assert poly.terms == {(1,): want, (0,): 5}
        _assert_domain_scalars(dom, poly.terms.values(), f"parse_multipoly of {text}")
    # an int over a constant polynomial of int coefficients is a Fraction
    poly = exprs.parse_multipoly("m/k + 1/(k - m + m)", ("m",), dom)
    assert poly.terms == {(1,): Fraction(1, 5), (0,): Fraction(1, 5)}
    _assert_domain_scalars(dom, poly.terms.values(), "parse_multipoly of 1/(k - m + m)")
    # the first coefficient vanishes at k = 5 and is dropped
    elem = exprs.parse_nf("(k-5)*W3[-1]|0> + W4[-1]|0>", dom)
    assert elem == {((G4, -1),): 1}
    _assert_domain_scalars(dom, elem.values(), "parse_nf")
    state = exprs.parse_pbw("(k-5)*h(-1)|0> + k/2 * e(-1)f(-1)|0>", dom)
    assert state == {((E, -1), (F, -1)): Fraction(5, 2)}
    _assert_domain_scalars(dom, state.values(), "parse_pbw")
    with pytest.raises(exprs.ParseError):
        exprs.parse_scalar("k/(k-5)", dom)
