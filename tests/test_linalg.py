import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from w2345.linalg import (
    GenericSpan,
    NotInSpanError,
    SpanSolver,
    _IntCarrier,
    _PolyCarrier,
    carrier_for,
    clear_vector,
    exact_sum,
)
from w2345.modes import add_into
from w2345.pbw import canonical
from w2345.scalars import IntPoly, RatFunc, ReconstructionError, domain

QQ = domain(3)
GEN = domain()


def _solver_over_columns(cols, dom):
    solver = SpanSolver(dom)
    for col in cols:
        solver.insert({i: x for i, x in enumerate(col) if x})
    return solver


def _kernel(m, dom):
    """The kernel of a matrix: the relations among its columns, as dense
    vectors in insert order."""
    cols = len(m[0])
    rels = _solver_over_columns(zip(*m), dom).relations.values()
    return [[rel.get(j, dom.zero) for j in range(cols)] for rel in rels]


def test_identity_nullspace_empty():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _kernel(m, QQ) == []


def test_rank_deficient_nullspace():
    m = [[1, 2], [2, 4]]
    basis = _kernel(m, QQ)
    assert len(basis) == 1
    v = _primitive_coeffs(basis[0], QQ)
    # primitive with positive first entry: (2, -1)
    assert v == [(2,), (-1,)]
    assert basis[0][0] * 1 + basis[0][1] * 2 == 0


def test_express_target():
    # columns (1, 0) and (0, 1); the target (1, 1) is their sum
    solver = _solver_over_columns([[1, 0], [0, 1]], QQ)
    assert solver.express({0: 1, 1: 1}) == {0: Fraction(1), 1: Fraction(1)}
    solver = _solver_over_columns([[1, 0], [0, 0]], QQ)
    with pytest.raises(NotInSpanError):
        solver.express({1: 1})


def test_generic_express():
    k = GEN.k
    solver = _solver_over_columns([[k]], GEN)
    assert solver.express({0: k * k}) == {0: k}


def _random_matrix(rng, rows, cols, dom):
    if dom.is_generic:
        return [
            [dom.parse(f"{rng.randint(-3,3)}*k + {rng.randint(-3,3)}") for _ in range(cols)]
            for _ in range(rows)
        ]
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize("dom", [QQ, GEN])
def test_rank_nullity_and_annihilation(dom):
    rng = random.Random(23)
    for _ in range(25 if dom.is_generic else 60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, dom)
        basis = _kernel(m, dom)
        r = _solver_over_columns(zip(*m), dom).rank
        assert r + len(basis) == cols
        for v in basis:
            for i in range(rows):
                acc = dom.zero
                for j in range(cols):
                    acc = acc + m[i][j] * v[j]
                assert not acc


def test_span_solver_relations():
    solver = SpanSolver(QQ)
    v1 = {0: Fraction(1), 1: Fraction(2)}
    v2 = {1: Fraction(1)}
    assert solver.insert(v1) is None
    assert solver.insert(v2) is None
    rel = solver.insert({0: Fraction(2), 1: Fraction(5)})
    assert rel is not None
    # 2*v1 + 1*v2 - target = 0
    lam = rel[2]
    assert rel[0] / -lam == 2 and rel[1] / -lam == 1
    coords = solver.express({0: Fraction(3), 1: Fraction(7)})
    assert coords == {0: Fraction(3), 1: Fraction(1)}


# -- outside oracle: sympy's nullspace ----------------------------------------

K = sympy.Symbol("k")


def _to_sympy(x):
    if isinstance(x, RatFunc):
        num = sum(c * K**i for i, c in enumerate(x.n))
        return num / sum(c * K**i for i, c in enumerate(x.d))
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_normalized(vec):
    """A vector over Q(k) scaled to coprime integer polynomials, the first
    nonzero one with positive lead, as coefficient tuples."""
    den = sympy.Integer(1)
    for x in vec:
        den = sympy.lcm(den, sympy.fraction(sympy.cancel(x))[1])
    polys = [sympy.Poly(sympy.cancel(x * den), K, domain="QQ") for x in vec]
    c = 1
    for p in polys:
        for x in p.coeffs():
            c = sympy.ilcm(c, x.q)
    polys = [(p * c).set_domain("ZZ") for p in polys]
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
    polys = [p.exquo(g) for p in polys]
    if next(p for p in polys if not p.is_zero).LC() < 0:
        polys = [-p for p in polys]
    return [
        tuple(int(x) for x in reversed(p.all_coeffs())) if not p.is_zero else ()
        for p in polys
    ]


def _primitive_coeffs(vec, dom):
    """A kernel vector scaled to coprime integer (polynomial) entries, the
    first nonzero one with positive lead, as coefficient tuples: the
    normalization of _sympy_normalized."""
    raws, _ = carrier_for(dom).clear(vec)
    lead = next(r for r in raws if r)
    if (lead[-1] if dom.is_generic else lead) < 0:
        raws = [-r for r in raws]
    return [tuple(r) if dom.is_generic else ((r,) if r else ()) for r in raws]


@pytest.mark.parametrize("dom", [QQ, GEN])
def test_nullspace_matches_sympy(dom):
    # Both bases come from the same greedy pivot columns, so after the same
    # normalization they agree vector by vector; in particular they span the
    # same space.
    rng = random.Random(29)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, dom)
        want = sympy.Matrix([[_to_sympy(x) for x in row] for row in m]).nullspace()
        got = _kernel(m, dom)
        assert [_primitive_coeffs(v, dom) for v in got] == [
            _sympy_normalized(list(v)) for v in want
        ]


# -- SpanSolver round trips and the clearing invariant ------------------------

rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)
ratfunc = st.builds(
    lambda n, d: RatFunc(n, d),
    st.lists(st.integers(-4, 4), max_size=3).map(tuple),
    st.lists(st.integers(-4, 4), min_size=1, max_size=2).map(tuple).filter(any),
)


def _vectors(scalar):
    return st.lists(st.dictionaries(st.integers(0, 4), scalar, max_size=4), max_size=5)


def _combination(dom, coeffs, vecs):
    out = {}
    for c, v in zip(coeffs, vecs):
        for key, x in v.items():
            out[key] = out.get(key, dom.zero) + c * x
    return {key: x for key, x in out.items() if x}


def _span_round_trip(dom, vecs, coeffs):
    solver = SpanSolver(dom)
    returned = {}
    for i, v in enumerate(vecs):
        rel = solver.insert(v)
        if rel is None:
            assert solver.express(v) == ({i: dom.one} if v else {})
        else:
            # the relation annihilates the inserted vectors and involves this one
            assert rel.get(i)
            assert not _combination(dom, [rel.get(j, 0) for j in range(i + 1)], vecs)
            returned[i] = rel
    # the solver keeps exactly the relations insert returned, by insert index
    assert solver.relations == returned
    target = _combination(dom, coeffs, vecs)
    coords = solver.express(target)
    assert _combination(dom, [coords.get(j, 0) for j in range(len(vecs))], vecs) == target


@given(_vectors(rational), st.lists(rational, min_size=5, max_size=5))
def test_span_solver_insert_express_round_trip_over_q(vecs, coeffs):
    _span_round_trip(QQ, vecs, coeffs)


@given(_vectors(ratfunc), st.lists(ratfunc, min_size=5, max_size=5))
def test_span_solver_insert_express_round_trip_over_qk(vecs, coeffs):
    _span_round_trip(GEN, vecs, coeffs)


def _pair_inserts_match_vector_inserts(dom, vecs):
    """A clear_vector pair goes in as it is: with raws and factor both
    negated, which clear_vector never returns, it gives the relations of
    the vector itself, scaled to 1 on the inserted index."""
    by_vec, by_pair = SpanSolver(dom), SpanSolver(dom)
    for i, v in enumerate(vecs):
        raws, factor = clear_vector(dom, v)
        want = by_vec.insert(v)
        got = by_pair.insert({m: -r for m, r in raws.items()}, -factor)
        assert (got is None) == (want is None)
        if got is not None:
            assert {j: c / got[i] for j, c in got.items()} == {
                j: c / want[i] for j, c in want.items()
            }


@given(_vectors(rational))
def test_span_solver_inserts_pairs_over_q(vecs):
    _pair_inserts_match_vector_inserts(QQ, vecs)


@given(_vectors(ratfunc))
def test_span_solver_inserts_pairs_over_qk(vecs):
    _pair_inserts_match_vector_inserts(GEN, vecs)


@given(st.lists(st.one_of(rational, st.integers(-9, 9)), max_size=6))
def test_int_carrier_clear_is_exact(vals):
    raws, factor = _IntCarrier.clear(vals)
    assert all(type(r) is int for r in raws)
    assert [factor * r for r in raws] == [Fraction(v) for v in vals]
    # primitive: content 1, or a zero row
    assert reduce(gcd, raws, 0) == (1 if any(raws) else 0)


@given(st.lists(st.integers(-30, 30), max_size=6), st.integers(-6, 6))
def test_int_carrier_content_reduce(row, f):
    # a common factor f gives contents above 1
    row = [f * v for v in row]
    content = reduce(gcd, row, 0)
    got, g = _IntCarrier.content_reduce(row)
    if content <= 1:
        assert got is row and g == 1
    else:
        assert got is not row and g == content
        assert [g * v for v in got] == row
        assert reduce(gcd, got, 0) == 1


@given(st.lists(st.one_of(ratfunc, rational, st.integers(-9, 9)), max_size=5))
def test_poly_carrier_clear_is_exact(vals):
    raws, factor = _PolyCarrier.clear(vals)
    assert all(type(r) is IntPoly and all(type(c) is int for c in r) for r in raws)
    assert [factor * RatFunc(r) for r in raws] == [GEN.scalar(v) for v in vals]


# -- exact_sum against term-by-term scalar arithmetic -------------------------


def _exact_sum_matches_add_into(dom, vecs, coeffs):
    """exact_sum equals the add_into sum of RatFunc / Fraction products, and
    subtracting that sum as one more vector gives zero.  States carry no
    zero entries, as add_into expects."""
    vecs = [{m: x for m, x in v.items() if x} for v in vecs]
    want = {}
    for c, v in zip(coeffs, vecs):
        add_into(want, v, c)
    want = canonical(dom, want)
    terms = [(c, clear_vector(dom, v)) for c, v in zip(coeffs, vecs)]
    assert exact_sum(dom, terms) == want
    assert exact_sum(dom, terms + [(-1, clear_vector(dom, want))]) == {}


@given(
    _vectors(st.one_of(rational, st.integers(-9, 9))),
    st.lists(st.one_of(rational, st.integers(-9, 9)), min_size=5, max_size=5),
)
def test_exact_sum_matches_add_into_over_q(vecs, coeffs):
    _exact_sum_matches_add_into(QQ, vecs, coeffs)


@given(
    _vectors(st.one_of(ratfunc, rational, st.integers(-9, 9))),
    st.lists(st.one_of(ratfunc, rational, st.integers(-9, 9)), min_size=5, max_size=5),
)
def test_exact_sum_matches_add_into_over_qk(vecs, coeffs):
    _exact_sum_matches_add_into(GEN, vecs, coeffs)


# -- GenericSpan: levels, reconstruction and the certificate ------------------


def test_generic_span_relations_and_express():
    k = GEN.k
    v0 = {0: GEN.one, 1: k}
    v1 = {0: k, 2: 1 / (k - 8)}
    v2 = {0: (k + 1) / (k - 3), 1: k * k}
    v3 = _combination(GEN, [(k + 1) / (k - 3), k * k, GEN.zero], [v0, v1, v2])
    span = GenericSpan([clear_vector(GEN, v) for v in (v0, v1, v2, v3)])
    assert span.independent == [0, 1, 2]
    assert span.relations == {3: {3: GEN.one, 0: -(k + 1) / (k - 3), 1: -k * k}}
    coeffs = [k**3 - 2, 5 / (2 * k + 1), (k - 1) / (k + 4)]
    target = _combination(GEN, coeffs, [v0, v1, v2])
    assert span.express(target) == dict(enumerate(coeffs))
    with pytest.raises(NotInSpanError):
        span.express({3: k})


def test_generic_span_fits_over_the_cleared_vectors():
    # v_i = F_i * R_i with clearing factors F_i that depend on k; v0 has a
    # pole at k = 7, so the first level is 8, and v1 has one at k = 10, a
    # level the fit samples: the cleared rows R_i(10) are integers.  The
    # fitted coordinates must be rescaled by F_target / F_i over Q(k).
    k = GEN.k
    v0 = {0: 1 / (k - 7), 1: GEN.one}
    v1 = {0: k / (k - 10), 2: 1 / (k - 10)}
    v2 = {1: k * (k + 3), 2: 2 * (k + 3) / (k - 2)}
    assert [clear_vector(GEN, v)[1] for v in (v0, v1, v2)] == [
        1 / (k - 7),
        1 / (k - 10),
        (k + 3) / (k - 2),
    ]
    v3 = _combination(GEN, [(k + 1) / (k + 5), GEN.zero, k * k], [v0, v1, v2])
    span = GenericSpan([clear_vector(GEN, v) for v in (v0, v1, v2, v3)])
    assert span.level == 8
    assert span.independent == [0, 1, 2]
    assert span.relations == {3: {3: GEN.one, 0: -(k + 1) / (k + 5), 2: -k * k}}
    coeffs = [k**2 - 2, 5 / (2 * k + 1), (k - 1) / (k + 4)]
    target = _combination(GEN, coeffs, [v0, v1, v2])
    assert span.express(target) == dict(enumerate(coeffs))
    assert span._solvers[10] is not None


def test_generic_span_skips_a_level_where_the_kept_rows_lose_rank():
    # v1 equals v0 at k = 9 only; a solve there would give wrong coordinates
    k = GEN.k
    v0 = {0: GEN.one, 1: GEN.one}
    v1 = {0: GEN.one, 1: k - 8}
    span = GenericSpan([clear_vector(GEN, v) for v in (v0, v1)])
    assert span.express(_combination(GEN, [2, 3], [v0, v1])) == {0: 2, 1: 3}
    assert span._solvers[9] is None


def test_generic_span_certificate_rejects_a_degenerate_first_level():
    # at k = 7 the second vector equals the first, so the first level finds a
    # relation that does not hold over Q(k): the certificate must refuse it
    k = GEN.k
    with pytest.raises(ReconstructionError):
        GenericSpan([clear_vector(GEN, v) for v in ({0: GEN.one}, {0: GEN.one, 1: k - 7})])
    # here the relation over Q(k), v1 = v0 + (k - 7) v2, holds but needs the
    # later v2, so a greedy insert over Q(k) keeps v1: refused as well
    with pytest.raises(ReconstructionError):
        GenericSpan(
            [clear_vector(GEN, v) for v in ({0: GEN.one}, {0: GEN.one, 1: k - 7}, {1: GEN.one})]
        )
