from fractions import Fraction

import pytest

from w2345 import exprs, pbw, reference, singular, walgebra, zhu


def test_u0_degenerate_values():
    for k, want in ((2, Fraction(-3)), (3, Fraction(-8, 13)), (4, Fraction(15, 22))):
        ses = walgebra.Session(k)
        assert singular.degenerate_identity(ses) == want


def test_u0_weight_and_commutant(ses5, ses6):
    for ses in (ses5, ses6):
        st = singular.u0_state(ses)  # includes the h(n) annihilation checks
        assert pbw.weight(st) == ses.level + 1
        assert {pbw.mono_h0(m) for m in st} == {0}


def test_ur_weight_and_commutant(ses5):
    for r in range(4):
        st = singular.ur_state(ses5, r)
        assert pbw.weight(st) == ses5.level + 1 + r
        assert {pbw.mono_h0(m) for m in st} == {0}
        img = {}
        for mono, c in st.items():
            pbw.add_into(img, ses5.pbw.apply_gen(pbw.H, 0, mono), c)
        assert not pbw.canonical(ses5.domain, img)


def test_theta_parities():
    for k in range(2, 7):
        ses = walgebra.Session(k)
        assert singular.theta_parity_u0(ses) == (-1) ** (k + 1)


def test_k5_normal_forms(ses5):
    d = ses5.domain
    texts = (
        reference.U0_K5_TEXT,
        reference.U1_K5_TEXT,
        reference.U2_K5_TEXT,
        reference.U3_K5_TEXT,
    )
    for r, text in enumerate(texts):
        nf = singular.ur_normal_form(ses5, r)
        assert nf == exprs.parse_nf(text, d), f"u{r}"


def test_k5_u0_spot_coefficients(ses5):
    nf = singular.ur_normal_form(ses5, 0)
    assert nf[((walgebra.GW, -5),)] == Fraction(-56260915200, 97)
    nf1 = singular.ur_normal_form(ses5, 1)
    assert nf1[((walgebra.G5, -3),)] == Fraction(-38413440, 61)


def test_k6_u0(ses6):
    d = ses6.domain
    nf = singular.ur_normal_form(ses6, 0)
    assert nf == exprs.parse_nf(reference.U0_K6_TEXT, d)
    assert nf[((walgebra.G3, -5),)] == Fraction(2043429304000, 55483)


def _full_sum(full, ses, elem):
    out = {}
    for m, c in elem.items():
        pbw.add_into(out, full(ses, m), c)
    return out


def test_k6_normal_forms_expand_back_to_the_states(ses6, full_expansion):
    # the k = 6 normal forms of u^0..u^3 have no outside reference value:
    # the full expansions give back the states, the session's images their
    # images
    for r in range(4):
        nf = singular.ur_normal_form(ses6, r)
        state = singular.ur_state(ses6, r)
        assert _full_sum(full_expansion, ses6, nf) == state, f"u{r}"
        assert ses6.nf_expand_element(nf) == pbw.h_free(state), f"u{r}"
    # positive control: one coefficient shifted by 1 breaks the round trip
    mono, c = next(iter(nf.items()))
    assert _full_sum(full_expansion, ses6, {**nf, mono: c + 1}) != state
    assert ses6.nf_expand_element({**nf, mono: c + 1}) != pbw.h_free(state)


def test_p_a_polynomials_k5(ses5):
    d = ses5.domain
    polys, muls = singular.p_polynomials(ses5)
    wants = [exprs.parse_multipoly(t, zhu.W_VARS, d) for t in reference.P_K5_TEXT]
    for r in range(4):
        assert polys[r] == wants[r] or polys[r] == -wants[r], f"P{r}"
        assert muls[r] != 0
    apolys, amuls = singular.a_polynomials(ses5)
    awants = [exprs.parse_multipoly(t, zhu.X_VARS, d) for t in reference.A_K5_TEXT]
    for r in range(4):
        assert apolys[r] == awants[r] or apolys[r] == -awants[r], f"A{r}"


def test_p1_contains_spot_term(ses5):
    d = ses5.domain
    polys, _ = singular.p_polynomials(ses5)
    want = exprs.parse_multipoly(reference.P_K5_TEXT[1], zhu.W_VARS, d)
    sign = 1 if polys[1] == want else -1
    # -3354260 w2 w5 term of the display
    e = (1, 0, 0, 1)  # exponents in (w2, w3, w4, w5)
    assert polys[1].terms[e] * sign == Fraction(-3354260)


def test_ur_normal_forms_are_computed_once_per_session(monkeypatch):
    from w2345 import report

    computed = []
    state = singular.ur_state
    monkeypatch.setattr(
        singular, "ur_state", lambda ses, r: computed.append((id(ses), r)) or state(ses, r)
    )
    ctx = report.Context()
    rows = report.check_singular(ctx, 5) + report.check_p_a_polynomials(ctx, 5)
    assert all(r.status == "pass" for r in rows)
    ses = ctx.session(5)
    assert computed == [(id(ses), r) for r in range(4)]
    # each call returns a copy: mutating one leaves the kept normal form
    nf = singular.ur_normal_form(ses, 0)
    nf.clear()
    assert singular.ur_normal_form(ses, 0) == exprs.parse_nf(reference.U0_K5_TEXT, ses.domain)
    assert len(computed) == 4


def test_ideal_membership_degenerate():
    ses2 = walgebra.Session(2)
    w3, w4, w5 = ses2.primaries()
    assert singular.ideal_span_membership(ses2, [w4, w5]) == [True, True]
    ses3_ = walgebra.Session(3)
    assert singular.ideal_span_membership(ses3_, [ses3_.primaries()[2]]) == [True]
    ses4 = walgebra.Session(4)
    # W3 is NOT in the ideal generated by u0 = (15/22) W5 at level 4
    assert singular.ideal_span_membership(ses4, [ses4.primaries()[0]]) == [False]


def test_u0_rejects_generic():
    with pytest.raises(ValueError):
        singular.u0_state(walgebra.Session())
