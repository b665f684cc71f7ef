import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w2345 import exprs, modes, pbw, reference, scalars, walgebra
from w2345.linalg import GenericSpan, NotInSpanError, SpanSolver, carrier_for
from w2345.modes import decode_state, element_mode, element_modes, encode
from w2345.scalars import RatFunc, ReconstructionError, specialize
from w2345.walgebra import (
    G3,
    G4,
    G5,
    GW,
    NF_GEN_WEIGHTS,
    Session,
    enumerate_nf,
    nf_parity,
    nf_weight,
)
from w2345.zhu import ZhuC2


def test_conformal_examples(gses):
    d = gses.domain
    alg = gses.pbw
    waff, wgam, om = gses.conformal()
    assert element_mode(alg, om, 1, om) == pbw.scale(om, 2)
    assert element_mode(alg, om, 3, om) == {(): d.parse("(k-1)/(k+2)")}
    assert not element_mode(alg, wgam, 0, om)


def test_primary_conditions(gses):
    d = gses.domain
    alg = gses.pbw
    om = gses.conformal()[2]
    for wt, W in zip((3, 4, 5), gses.primaries()):
        assert element_mode(alg, om, 1, W) == pbw.scale(W, wt)
        for n in range(2, wt + 2):
            assert not element_mode(alg, om, n, W)
        for m in range(0, wt + 1):
            img = {}
            for mono, c in W.items():
                pbw.add_into(img, alg.apply_gen(pbw.H, m, encode(mono)), c)
            assert not pbw.canonical(d, img)


def test_commutant_dimensions(gses):
    assert len(gses.commutant_weight_space(1)) == 0
    assert len(gses.commutant_weight_space(3)) == 2
    assert len(gses.commutant_weight_space(4)) == 4
    assert len(gses.commutant_weight_space(5)) == 6


def test_find_primary(gses):
    for d in (3, 4, 5):
        state, lam = gses.find_primary(d)
        assert state == gses.generator_state(d - 2)
        assert lam


def test_enumerate_nf_counts():
    expected = {0: 1, 1: 0, 2: 1, 3: 2, 4: 4, 5: 6, 6: 11, 7: 16, 8: 29, 9: 44, 10: 72}
    for d, n in expected.items():
        assert len(enumerate_nf(d)) == n, d


# sha256 of repr([enumerate_nf(d) for d in range(13)]): the word order fixes
# the insert order, hence the basis and relations, of _nf_basis
NF_WORDS_SHA256 = "a3da10f8c96e01ae0a5e8ff17e788c199db07d90f3222e95ebe40f669f1aa8a4"


def test_enumerate_nf_matches_the_pinned_digest():
    words = [enumerate_nf(d) for d in range(13)]
    assert hashlib.sha256(repr(words).encode()).hexdigest() == NF_WORDS_SHA256


def test_nf_weight_and_parity():
    mono = ((GW, -1), (G3, -2), (G5, -1))
    assert nf_weight(mono) == 2 + 4 + 5
    assert nf_parity(mono) == 1
    assert nf_parity(((G3, -2), (G3, -2))) == 1
    assert nf_parity(((G3, -1), (G4, -2))) == -1


def _expanded(ses, mono):
    """The scalar view of the image the session keeps of a word."""
    return ses.nf_expand_element({mono: ses.domain.one})


def test_expand_examples(gses, full_expansion):
    om = gses.conformal()[2]
    cases = (
        (((GW, -1),), om),
        (((G3, -1),), gses.primaries()[0]),
        (((GW, -1), (GW, -1)), element_mode(gses.pbw, om, -1, om)),
    )
    for word, want in cases:
        assert full_expansion(gses, word) == want
        assert _expanded(gses, word) == pbw.h_free(want)


def test_expand_parity_sector(gses, full_expansion):
    # theta maps I onto itself: the image of a theta eigenvector is one too,
    # once the reordered e and f factors are projected again
    d = gses.domain
    alg = gses.pbw
    for mono in enumerate_nf(5):
        sign = nf_parity(mono)
        st = full_expansion(gses, mono)
        assert pbw.canonical(d, pbw.theta(alg, st)) == pbw.scale(st, sign)
        img = _expanded(gses, mono)
        assert img == pbw.h_free(st)
        assert pbw.h_free(pbw.canonical(d, pbw.theta(alg, img))) == pbw.scale(img, sign)


def test_express_examples(gses):
    d = gses.domain
    w3 = gses.primaries()[0]
    prod = element_mode(gses.pbw, w3, 3, w3)
    got = gses.express(prod, 1)
    want = exprs.parse_nf(reference.OPE_TEXT[(3, 3, 3)], d)
    assert got == want
    for parity in (1, -1):
        with pytest.raises(NotInSpanError):
            gses.express({((pbw.E, -1),): d.one}, parity)
    # W3_3 W3 is even: the odd sector does not span it
    with pytest.raises(NotInSpanError):
        gses.express(prod, -1)


def test_express_expand_identity(gses, full_expansion):
    d = gses.domain
    for parity in (1, -1):
        for mono in gses._nf_basis(6, parity).monos:
            coords = gses.express(full_expansion(gses, mono), parity)
            assert coords == {mono: d.one}


def _h_led_term(w, parity):
    """An h-led PBW monomial of weight w >= 2 on which theta acts by parity."""
    return ((pbw.H, -(w - 1)), (pbw.H, -1)) if parity > 0 else ((pbw.H, -w),)


@pytest.mark.parametrize("g", range(4))
def test_a_wrong_parity_generator_term_fails_the_theta_certificate(g):
    # a term of the generator's weight on which theta has the other sign
    ses = Session(5)
    dom = ses.domain
    parity = nf_parity(((g, 0),))
    term = _h_led_term(NF_GEN_WEIGHTS[g], -parity)
    flipped = pbw.canonical(dom, pbw.theta(ses.pbw, {term: dom.one}))
    assert flipped == {term: -parity * dom.one}
    _plant_generator_term(ses, g, term)
    for _ in range(2):  # a failed certificate is kept nowhere: checked again
        with pytest.raises(AssertionError, match=f"theta does not act on generator {g}"):
            ses.nf_dimensions(2)
    assert not ses.kept["_certify_generators"] and not ses.kept.get("_nf_basis")


def _plant_generator_term(ses, g, term):
    states = [dict(st) for st in ses.generators()]
    pbw.add_into(states[g], {term: ses.domain.one})
    ses.kept["generators"][()] = tuple(states)


@pytest.mark.parametrize("g", range(4))
def test_a_theta_correct_h_led_generator_term_fails_the_commutant_certificate(g):
    # h(-1)h(-1) on omega, h(-3) on W3, ...: the images cannot see the term,
    # so only the certificate on the full generator states stops it
    ses = Session(5)
    dom = ses.domain
    parity = nf_parity(((g, 0),))
    term = _h_led_term(NF_GEN_WEIGHTS[g], parity)
    assert pbw.canonical(dom, pbw.theta(ses.pbw, {term: dom.one})) == {term: parity * dom.one}
    assert not pbw.h_free({term: dom.one})
    _plant_generator_term(ses, g, term)
    for _ in range(2):  # a failed certificate is kept nowhere: checked again
        with pytest.raises(AssertionError, match=f"does not annihilate generator {g}"):
            ses.nf_dimensions(2)
    assert not ses.kept["_certify_generators"] and not ses.kept.get("_nf_basis")


@pytest.mark.parametrize("name", ["ses7", "gses"])
def test_a_mixed_parity_state_is_in_neither_sector(request, name, full_expansion):
    ses = request.getfixturevalue(name)
    one = ses.domain.one
    words = enumerate_nf(6)
    even = next(m for m in words if nf_parity(m) > 0)
    odd = next(m for m in words if nf_parity(m) < 0)
    mixed = dict(full_expansion(ses, even))
    pbw.add_into(mixed, full_expansion(ses, odd))
    for parity in (1, -1):
        with pytest.raises(NotInSpanError):
            ses.express(mixed, parity)
    assert ses.express(full_expansion(ses, even), 1) == {even: one}
    assert ses.express(full_expansion(ses, odd), -1) == {odd: one}


@pytest.mark.parametrize("name", ["ses7", "gses"])
def test_express_refuses_a_state_outside_the_commutant(request, name, full_expansion):
    # one h-led monomial of the word's weight and parity: the image, hence
    # the image-level solve, is unchanged, and only the commutant check sees it
    ses = request.getfixturevalue(name)
    one = ses.domain.one
    for word in (((G3, -1), (G3, -1)), ((GW, -1), (G3, -1))):
        d, parity = nf_weight(word), nf_parity(word)
        state = full_expansion(ses, word)
        planted = dict(state)
        pbw.add_into(planted, {_h_led_term(d, parity): one})
        assert pbw.h_free(planted) == pbw.h_free(state)
        with pytest.raises(NotInSpanError, match="does not annihilate"):
            ses.express(planted, parity)
        assert ses.express(state, parity) == {word: one}


def test_the_level5_product_table_builds_no_odd_weight9_sector():
    # W^i_n W^j has weight i + j - n - 1 <= 9 and parity p_i p_j; the one
    # weight-9 product, W5_0 W5, is even
    ses = Session(5)
    ses.ope_table()
    assert (9, 1) in ses.kept["_nf_basis"]
    assert (9, -1) not in ses.kept["_nf_basis"]


def test_ope_spot_entries(gses):
    d = gses.domain
    for key in ((3, 4, 3), (3, 5, 2), (5, 5, 9), (3, 3, 1)):
        got = gses.ope_entry(*key[:2])[key[2]]
        want = exprs.parse_nf(reference.OPE_TEXT[key], d)
        assert got == want


def test_generation_by_w3(gses):
    # W3_3 W3 spans the omega direction, W3_1 W3 reaches W4, W3_1 W4
    # reaches W5, all with nonzero generic coefficients
    d = gses.domain
    t = gses.ope_table()
    assert t[(3, 3, 3)].get(((GW, -1),))
    assert t[(3, 3, 1)].get(((G4, -1),)) == d.parse("(36*k*(2*k+3))/(16*k+17)")
    assert t[(3, 4, 1)].get(((G5, -1),))


def test_w3_m1_u0_matches_table(gses):
    # spec example: the displayed expression for W3_1 W3 term by term
    d = gses.domain
    got = gses.ope_entry(3, 3)[1]
    assert got[((GW, -3),)] == d.parse("-(162*k^3*(k-2)*(k+2)*(3*k+4))/(16*k+17)")
    assert got[((GW, -1), (GW, -1))] == d.parse(
        "(288*k^3*(k-2)*(k+2)^2*(3*k+4))/(16*k+17)"
    )
    assert got[((G4, -1),)] == d.parse("(36*k*(2*k+3))/(16*k+17)")


def test_weight8_structure(gses):
    total, rank = gses.nf_dimensions(8)
    assert (total, rank) == (29, 27)
    rels = gses.null_fields(8)
    assert len(rels) == 2
    assert {nf_parity(m) for rel in rels for m in rel} == {1, -1}
    for rel in rels:
        parities = {nf_parity(m) for m in rel}
        assert len(parities) == 1
        assert not gses.nf_expand_element(rel)
        # positive control: one coefficient shifted by 1 leaves that word's
        # expansion, so the empty sums above are not an empty-result fault
        mono, c = next(iter(rel.items()))
        assert gses.nf_expand_element({**rel, mono: c + 1})


def test_weight8_17_even_12_odd():
    monos = enumerate_nf(8)
    even = [m for m in monos if nf_parity(m) > 0]
    assert len(even) == 17 and len(monos) - len(even) == 12


def test_null_field_for_reads_cached_null_fields(ses7, monkeypatch):
    ses7.null_fields(8)
    calls = []
    express = SpanSolver.express
    monkeypatch.setattr(
        SpanSolver, "express", lambda self, vec: calls.append(vec) or express(self, vec)
    )
    rel = ses7.null_field_for(((G3, -2), (G3, -2)))
    assert rel[((G3, -2), (G3, -2))] == ses7.domain.one
    ses7.null_field_for(((G3, -1), (G4, -2)))
    odd = [r for r in ses7.null_fields(8) if nf_parity(next(iter(r))) == -1]
    assert [next(iter(r)) for r in odd] == [((G3, -1), (G4, -2))]
    assert not calls


def test_null_fields_reuse_the_relations_insert_found(monkeypatch, full_expansion):
    ses = Session(7)
    calls = []
    express = SpanSolver.express
    monkeypatch.setattr(
        SpanSolver, "express", lambda self, vec: calls.append(vec) or express(self, vec)
    )
    rels = ses.null_fields(10)
    assert not calls
    sectors = {p: ses._nf_basis(10, p).relations for p in (1, -1)}
    eliminated = tuple(next(iter(rel)) for rel in rels)  # the first key is the anchor
    assert eliminated[:5] == walgebra.ELIMINATED[10]
    assert len(eliminated) == len(rels) == 9
    assert set(eliminated) == set(sectors[1]) | set(sectors[-1])
    # oracle: the word minus its coordinates over the basis of its sector
    for x, rel in zip(eliminated, rels):
        assert rel is sectors[nf_parity(x)][x]
        want = {x: ses.domain.one}
        for m, c in ses.express(full_expansion(ses, x), nf_parity(x)).items():
            want[m] = -c
        assert rel == want


def test_an_independent_table_word_fails_the_basis_build(monkeypatch):
    fixed = walgebra.ELIMINATED[8]
    extra = next(m for m in enumerate_nf(8) if m not in fixed)
    monkeypatch.setitem(walgebra.ELIMINATED, 8, fixed + (extra,))
    with pytest.raises(AssertionError, match="independent"):
        Session(5).nf_dimensions(8)


# -- the generic normal-form bases: certificate and level cross-checks ---------


def test_generic_null_fields_refuse_a_perturbed_reconstruction(monkeypatch):
    fit = scalars.reconstruct

    def perturbed(sample, first):
        out = fit(sample, first)
        i = next(i for i, c in enumerate(out) if c)
        out[i] = out[i] + 1
        return out

    monkeypatch.setattr(scalars, "reconstruct", perturbed)
    with pytest.raises(ReconstructionError):
        Session().null_fields(8)


def test_generic_null_fields_with_a_dropped_kept_row_raise_or_agree(gses, monkeypatch):
    first_level = GenericSpan._first_level

    def drop_one_key(self):
        level, full, independent, keys = first_level(self)
        return level, full, independent, keys - {sorted(keys)[len(keys) // 2]}

    monkeypatch.setattr(GenericSpan, "_first_level", drop_one_key)
    try:
        rels = Session().null_fields(8)
    except ReconstructionError:
        return
    assert rels == gses.null_fields(8)


def _specialized(elem, k0):
    return {m: specialize(c, k0) for m, c in elem.items() if specialize(c, k0)}


def _assert_relations_specialize(generic, level, k0):
    """Generic relations of one weight (anchor -> relation), specialized at
    k0, against a level session's: the same anchors in the same order, and
    the same relations."""
    assert list(generic) == list(level)
    got = [_specialized(rel, k0) for rel in generic.values()]
    assert got == [_specialized(rel, k0) for rel in level.values()]


@pytest.mark.parametrize("k0", [6, 7, 11])
def test_generic_tables_specialize_to_the_level_sessions(gses, ses6, ses7, k0):
    # k = 6 ties the weight-10 null fields that check_f_matrix reads to the
    # generic ones
    ses = {6: ses6, 7: ses7}.get(k0) or Session(k0)
    for w in (8, 9, 10):
        for p in (1, -1):
            generic, level = gses._nf_basis(w, p), ses._nf_basis(w, p)
            _assert_relations_specialize(generic.relations, level.relations, k0)
    level_table = ses.ope_table()
    for key, elem in gses.ope_table().items():
        assert _specialized(elem, k0) == _specialized(level_table[key], k0), key
    gred, red = ZhuC2(gses), ZhuC2(ses)
    gq, q = gred.q_polynomials(), red.q_polynomials()
    assert [p.specialize_level(k0) for p in gq] == list(q)
    *gb, gscalar = gred.b_polynomials()
    *b, scalar = red.b_polynomials()
    assert [p.specialize_level(k0) for p in gb] == b
    assert specialize(gscalar, k0) == scalar


def test_weight10_guard_fails_on_planted_faults(gses, ses7):
    generic = gses._nf_basis(10, -1).relations
    level = ses7._nf_basis(10, -1).relations
    a, b = list(generic)[:2]
    # one odd-sector coefficient shifted by 1
    rel = generic[a]
    m = next(m for m in rel if m != a)
    shifted = {**generic, a: {**rel, m: rel[m] + gses.domain.one}}
    # two odd-sector anchors swapped, each relation left in its place
    swapped = {(b if x == a else a if x == b else x): r for x, r in generic.items()}
    for fault in (shifted, swapped):
        with pytest.raises(AssertionError):
            _assert_relations_specialize(fault, level, 7)


# -- the stored expansions: clear_vector pairs --------------------------------


@pytest.mark.parametrize("name, wmax", [("ses7", 8), ("gses", 7)])
def test_stored_pairs_are_the_scalar_expansions(request, name, wmax, full_expansion):
    # each pair (raws, factor) against the image of the full expansion
    ses = request.getfixturevalue(name)
    dom = ses.domain
    car = carrier_for(dom)
    words = [w for d in range(2, wmax + 1) for w in enumerate_nf(d)]
    for word in words:
        raws, factor = ses.nf_expand(word)
        want = pbw.h_free(full_expansion(ses, word))
        assert {m: factor * r for m, r in raws.items()} == want, word
        assert car.content_reduce(list(raws.values()))[1] == car.one, word
        assert type(factor) is (RatFunc if dom.is_generic else Fraction), word


def test_a_planted_raw_fails_the_generic_weight8_build():
    ses = Session()
    word = walgebra.ELIMINATED[8][0]
    raws, factor = ses.nf_expand(word)
    mono = next(iter(raws))
    ses.kept["nf_expand"][(word,)] = ({**raws, mono: raws[mono] + 1}, factor)
    with pytest.raises((ReconstructionError, AssertionError)) as err:
        ses.null_fields(8)
    assert err.type is ReconstructionError or "is independent" in str(err.value)


def test_generic_fits_sample_pinned_levels():
    # the levels 7, 8, ... that the weight-8 and weight-9 bases solve at, in
    # a fresh session: a later express may sample more
    ses = Session()
    for w, p, count in ((8, 1, 14), (8, -1, 10), (9, 1, 18), (9, -1, 14)):
        span = ses._nf_basis(w, p).solver
        assert span.level == 7
        assert sorted(span._solvers) == list(range(7, 7 + count)), (w, p)


# sha256 of the canonical generic full expansions of the 185 normal-form
# words of weight 2..10, one line "word monomial coefficient" per term
GENERIC_EXPANSIONS_SHA256 = "8a042e4854dfa7fa68468bb20b0da9c01ef4360279f6ad1edb0c13b691f99066"


def test_generic_expansions_match_the_pinned_digest(gses, full_expansion):
    dom = gses.domain
    words = [w for d in range(2, 11) for w in enumerate_nf(d)]
    assert len(words) == 185
    h = hashlib.sha256()
    for word in words:
        state = full_expansion(gses, word)
        for mono, c in sorted(state.items()):
            h.update(f"{word!r} {mono!r} {dom.fmt(c)}\n".encode())
        assert _expanded(gses, word) == pbw.h_free(state), word
    assert h.hexdigest() == GENERIC_EXPANSIONS_SHA256


# the h-led PBW monomials of weight 1..5: they span I in those weights
_H_LED = [m for d in range(1, 6) for m in pbw.enumerate_monomials(d) if m[0][0] == pbw.H]


def _assert_generator_mode_keeps_h_led(ses, data):
    mono = data.draw(st.sampled_from(_H_LED), label="mono")
    g = data.draw(st.integers(0, 3), label="g")
    top = NF_GEN_WEIGHTS[g] + pbw.mono_weight(mono)
    t = data.draw(st.integers(top - 8, top - 1), label="t")  # lands at weight 0..7
    out = element_mode(ses.pbw, ses.generator_state(g), t, {mono: ses.domain.one})
    assert not pbw.h_free(out), (g, t, mono)


# the lemma behind the images: a commutant mode W_t commutes with every
# h(-n), so it maps I = sum_n h(-n) V into I
@settings(max_examples=100)
@given(st.data())
def test_generator_modes_map_h_led_monomials_to_h_led_states(ses5, data):
    _assert_generator_mode_keeps_h_led(ses5, data)


@settings(max_examples=40)
@given(st.data())
def test_generator_modes_map_h_led_monomials_to_h_led_states_over_qk(gses, data):
    _assert_generator_mode_keeps_h_led(gses, data)


@pytest.mark.parametrize("name", ["ses5", "gses"])
def test_a_mode_outside_the_commutant_leaves_the_h_led_monomials(request, name):
    # control: e(-1)|0> is no commutant state, and e(0) h(-1)|0> = -2 e(-1)|0>
    ses = request.getfixturevalue(name)
    one = ses.domain.one
    out = element_mode(ses.pbw, {((pbw.E, -1),): one}, 0, {((pbw.H, -1),): one})
    assert pbw.h_free(out) == {((pbw.E, -1),): -2 * one}


# lemma (A): a pure-h word in a raising mode maps any state into I
_PURE_H = [
    m for d in range(1, 6) for m in pbw.enumerate_monomials(d) if all(g == pbw.H for g, _ in m)
]
_MONOMIALS = [m for d in range(0, 5) for m in pbw.enumerate_monomials(d)]


def _assert_pure_h_raising_mode_lands_in_i(ses, data):
    one = ses.domain.one
    u = data.draw(st.sampled_from(_PURE_H), label="u")
    w = data.draw(st.sampled_from(_MONOMIALS), label="w")
    wt = pbw.mono_weight(u)
    n = data.draw(st.integers(wt - 6, wt - 2), label="n")  # raises the weight by 1..5
    out = element_mode(ses.pbw, {u: one}, n, {w: one})
    assert not pbw.h_free(out), (u, n, w)


@settings(max_examples=100)
@given(st.data())
def test_pure_h_words_in_raising_modes_land_in_i(ses5, data):
    _assert_pure_h_raising_mode_lands_in_i(ses5, data)


@settings(max_examples=40)
@given(st.data())
def test_pure_h_words_in_raising_modes_land_in_i_over_qk(gses, data):
    _assert_pure_h_raising_mode_lands_in_i(gses, data)


# lemma (B): an h-led word in any mode maps a commutant state into I
def _assert_h_led_word_on_a_commutant_state_lands_in_i(ses, data):
    one = ses.domain.one
    g = data.draw(st.integers(0, 3), label="g")
    u = data.draw(
        st.sampled_from(sorted(m for m in ses.generator_state(g) if m[0][0] == pbw.H)), label="u"
    )
    n = data.draw(st.integers(0, NF_GEN_WEIGHTS[g] + 4), label="n")
    targets = [ses.generator_state(y) for y in range(4)]
    targets += [v for d in (3, 4, 5) for v in ses.commutant_weight_space(d)]
    y = data.draw(st.integers(0, len(targets) - 1), label="target")
    out = element_mode(ses.pbw, {u: one}, n, targets[y])
    assert not pbw.h_free(out), (g, u, n, y)


@settings(max_examples=100)
@given(st.data())
def test_h_led_generator_words_on_commutant_states_land_in_i(ses5, data):
    _assert_h_led_word_on_a_commutant_state_lands_in_i(ses5, data)


@settings(max_examples=40)
@given(st.data())
def test_h_led_generator_words_on_commutant_states_land_in_i_over_qk(gses, data):
    _assert_h_led_word_on_a_commutant_state_lands_in_i(gses, data)


@pytest.mark.parametrize("name", ["ses5", "gses"])
def test_the_lemma_controls_leave_i(request, name):
    ses = request.getfixturevalue(name)
    one = ses.domain.one
    e1 = {((pbw.E, -1),): one}
    # (B) needs a commutant target: the h-led omega word h(-2) in mode 1 is
    # -h(0), and on e(-1)|0> it gives -2 e(-1)|0>
    h2 = ((pbw.H, -2),)
    assert h2 in ses.generator_state(GW)
    assert pbw.h_free(element_mode(ses.pbw, {h2: one}, 1, e1)) == {((pbw.E, -1),): -2 * one}
    # (A) needs a pure-h word: the omega word e(-1)f(-1) in mode -1 creates itself
    ef = ((pbw.E, -1), (pbw.F, -1))
    assert ef in ses.generator_state(GW)
    assert pbw.h_free(element_mode(ses.pbw, {ef: one}, -1, {(): one})) == {ef: one}


@pytest.mark.parametrize("name", ["ses5", "gses"])
def test_products_match_the_full_state_oracle(request, name):
    # every word of x on the full state of y, solved by the public express,
    # against the product table built one column y at a time
    ses = request.getfixturevalue(name)
    pairs = [(x, y) for x in range(4) for y in range(x, 4)]
    assert len(pairs) == 10
    table = ses.structure_constants()
    keys = set()
    for x, y in pairs:
        wt = NF_GEN_WEIGHTS[x] + NF_GEN_WEIGHTS[y]
        parity = nf_parity(((x, 0), (y, 0)))
        full = element_modes(ses.pbw, ses.generator_state(x), range(wt), ses.generator_state(y))
        for n in range(wt):
            keys.add((x, y, n))
            assert table[(x, y, n)] == (ses.express(full[n], parity) if full[n] else {}), (x, y, n)
    assert set(table) == keys


@pytest.mark.parametrize("g", range(4))
def test_products_certify_the_generators_before_any_word_acts(g, monkeypatch):
    # lemma (B) needs a commutant target: a theta-correct h-led term planted
    # in the generator must stop the product before the mode calculus runs
    ses = Session(5)
    _plant_generator_term(ses, g, _h_led_term(NF_GEN_WEIGHTS[g], nf_parity(((g, 0),))))
    calls = []
    monkeypatch.setattr(modes, "word_apply", lambda *args: calls.append(args))
    with pytest.raises(AssertionError, match=f"does not annihilate generator {g}"):
        ses.structure_constants()
    assert not calls and not ses.kept.get("_nf_basis")


def _watch_generator_targets(ses, monkeypatch):
    """Weak references to every target the session makes over a generator
    state, appended as they are made."""

    class Watched(modes.Target):
        __slots__ = ("__weakref__",)

    made = []
    as_target = walgebra.as_target

    def watched(alg, state):
        if not any(state is kept[0] for kept in ses.kept.get("_generator_words", {}).values()):
            return as_target(alg, state)
        target = Watched(alg, {encode(m): c for m, c in state.items()})
        made.append(weakref.ref(target))
        return 1, target

    monkeypatch.setattr(walgebra, "as_target", watched)
    return made


def test_a_table_build_shares_one_target_per_generator_and_releases_them(monkeypatch):
    # one target per column y of structure_constants, shared by its x, and
    # one of its own per ope_entry; none outlives its column
    ses = Session(5)
    made = _watch_generator_targets(ses, monkeypatch)
    ses.structure_constants()
    assert len(made) == 4
    ses.ope_entry(3, 3)
    assert len(made) == 5
    assert not any(ref() for ref in made)


def test_no_generator_target_is_alive_while_a_product_is_solved(monkeypatch):
    # a generator target holds the mode calculus of its whole column: it
    # must be gone before the normal-form bases of the products are built
    ses = Session(5)
    made = _watch_generator_targets(ses, monkeypatch)
    alive = []
    express = Session._express_image

    def checked(self, image, d, parity):
        alive.append(sum(1 for ref in made if ref()))
        return express(self, image, d, parity)

    monkeypatch.setattr(Session, "_express_image", checked)
    ses.structure_constants()
    ses.ope_entry(4, 5)
    assert len(made) == 5 and alive
    assert not any(alive)


def test_the_ope_table_is_the_primary_slice_of_the_one_product_table(monkeypatch):
    # either order builds each column once, one target of its generator
    # each, and ope_table re-keys the rows x >= 1 of structure_constants
    tables = []
    for first_ope in (True, False):
        ses = Session(5)
        made = _watch_generator_targets(ses, monkeypatch)
        if first_ope:
            ope = ses.ope_table()
            sc = ses.structure_constants()
        else:
            sc = ses.structure_constants()
            ope = ses.ope_table()
        assert ses.ope_table() == ope and ses.structure_constants() is sc
        assert len(made) == 4
        assert ope == {(x + 2, y + 2, n): elem for (x, y, n), elem in sc.items() if x >= 1}
        assert set(ope) == {(i, j, n) for i in range(3, 6) for j in range(i, 6) for n in range(i + j)}
        tables.append(sc)
    assert tables[0] == tables[1]


def test_commutant_weight_spaces_are_built_once_per_session(monkeypatch):
    # check_commutant asks for d = 1, 3, 4, 5, and find_primary again for
    # d = 3, 4, 5; each build of a basis enumerates its monomials once
    from w2345 import report

    built = []
    enumerate_monomials = pbw.enumerate_monomials

    def counted(d, h0=None):
        built.append(d)
        return enumerate_monomials(d, h0)

    monkeypatch.setattr(pbw, "enumerate_monomials", counted)
    ctx = report.Context()
    rows = report.check_commutant(ctx)
    assert all(r.status == "pass" for r in rows)
    assert sorted(built) == [1, 3, 4, 5]
    ses = ctx.session(None)
    assert sorted(ses.kept["_commutant_basis"]) == [(1,), (3,), (4,), (5,)]
    # each call returns a new list of the kept states
    ses.commutant_weight_space(3).clear()
    assert len(ses.commutant_weight_space(3)) == 2 and len(built) == 4


def test_keep_builds_once_per_argument_tuple_and_session():
    calls = []

    @walgebra.keep
    def square(ses, n):
        calls.append((ses, n))
        if n < 0:
            raise ValueError("negative")
        return n * n

    a, b = Session(5), Session(5)
    assert [square(a, 2), square(a, 2), square(a, 3), square(b, 2)] == [4, 4, 9, 4]
    assert calls == [(a, 2), (a, 3), (b, 2)]
    assert a.kept["square"] == {(2,): 4, (3,): 9}
    assert b.kept["square"] == {(2,): 4}
    # a build that raises keeps nothing: the next call builds again
    for _ in range(2):
        with pytest.raises(ValueError, match="negative"):
            square(a, -1)
    assert calls[3:] == [(a, -1), (a, -1)]
    assert a.kept["square"] == {(2,): 4, (3,): 9}


def test_kept_methods_live_in_their_session_only():
    # one table per session: results are shared by nobody else, and a
    # session that is let go of is freed with everything it kept
    a, b = Session(5), Session(5)
    assert a.generators() is a.generators()
    assert a.generators() is not b.generators() and a.generators() == b.generators()
    assert a.generator_state(2) is a.primaries()[1] is a.generators()[2]
    a.nf_dimensions(4)
    assert {"conformal", "generators", "_certify_generators", "nf_expand", "_nf_basis"} <= set(a.kept)
    assert set(b.kept) == {"conformal", "generators"}
    ref = weakref.ref(a)
    del a
    assert ref() is None


def _table_action_cases():
    """(g, modes t, w): every generator mode on every word of weight 2..6
    that lands at weight 0..8."""
    return [
        (g, range(gw + d - 9, gw + d), w)
        for d in range(2, 7)
        for w in enumerate_nf(d)
        for g, gw in enumerate(NF_GEN_WEIGHTS)
    ]


def _table_action_matches(ses, cases, full):
    walg = ses.walg()
    count = 0
    for g, ts, w in cases:
        wants = element_modes(ses.pbw, ses.generator_state(g), ts, full(ses, w))
        for t in ts:
            got = ses.nf_expand_element(decode_state(walg.apply_gen(g, t, encode(w))))
            assert got == pbw.h_free(wants[t]), (g, t, w)
            count += 1
    return count


def test_product_table_action_matches_the_pbw_action(ses7, full_expansion):
    # the table-driven W-algebra against the mode calculus on full PBW
    # states, compared on images, zero results included
    assert _table_action_matches(ses7, _table_action_cases(), full_expansion) == 864


def test_product_table_action_matches_the_pbw_action_over_qk(gses, full_expansion):
    # the generic mirror of the level test, on a seeded sample of its cases
    cases = [(g, (t,), w) for g, ts, w in _table_action_cases() for t in ts]
    sample = random.Random(12).sample(cases, 100)
    assert _table_action_matches(gses, sample, full_expansion) == 100


def test_hw_module_ground_vector(ses5):
    ev = (Fraction(3, 7), Fraction(-1, 2), 0, Fraction(5))
    mod = walgebra.HWModule(ses5.walg(), ev)
    def apply(g, t, mono):
        return decode_state(mod.apply_gen(g, t, encode(mono)))

    assert apply(GW, 1, ()) == {(): ev[0]}  # L(0)
    assert apply(G3, 2, ()) == {(): ev[1]}  # W3(0)
    assert apply(G4, 3, ()) == {}  # zero eigenvalue
    assert apply(GW, 2, ()) == {}  # L(1) lowers the weight
    assert apply(G5, 5, ()) == {}
    assert apply(G3, 1, ()) == {((G3, 1),): 1}  # W3(-1) creates
    # [L(1), L(-1)] = 2 L(0) on the ground vector
    assert apply(GW, 2, ((GW, 0),)) == {(): 2 * ev[0]}
