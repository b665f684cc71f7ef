"""Groebner bases over exact rationals in few variables.

Buchberger with the coprime-leading-term and chain criteria, full reduction,
and a final inter-reduction; no modular shortcuts.  ``buchberger`` runs it in
grevlex and, when the ideal is zero-dimensional, changes to the asked order
by FGLM (``fglm``): a walk over the monomials of the new order, an exact
``SpanSolver`` for the first dependency, and an exact check of the result.
Positive-dimensional ideals run Buchberger in the asked order directly.
The ideals of interest live at a fixed level, so the inputs and outputs
carry Fractions: the generators, the basis elements and the normal forms.
Inside, the work is fraction-free over the integers: each basis entry is a
primitive integer polynomial with a positive leading coefficient, and
reduction cross-multiplies by leading coefficients and divides out the
content once at the end, with ``multipoly.cleared`` and
``multipoly.primitive``.  Each ``GroebnerBasis`` derives its staircase (the
standard exponents) once, when it is built; the route to FGLM, the walk, the
quotient dimension, the standard monomials and the radical check read it.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import count, product
from operator import add, le, sub

from .linalg import SpanSolver
from .multipoly import MultiPoly, cleared, primitive
from .scalars import domain


class MonomialOrder:
    """Total order on exponent tuples: lex / grlex / grevlex with an
    explicit variable precedence (most significant first)."""

    def __init__(self, kind, precedence):
        if kind not in ("lex", "grlex", "grevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.precedence = tuple(precedence)

    def for_vars(self, vars):
        idx = tuple(vars.index(name) for name in self.precedence)
        if self.kind == "lex":
            return lambda e: tuple(e[i] for i in idx)
        if self.kind == "grlex":
            return lambda e: (sum(e),) + tuple(e[i] for i in idx)
        return lambda e: (sum(e),) + tuple(-e[i] for i in reversed(idx))

    def __repr__(self):
        return f"MonomialOrder({self.kind}, {self.precedence})"


def lex_order(vars):
    return MonomialOrder("lex", vars)


def _lead(terms, key):
    return max(terms, key=key)


def _divides(a, b):
    return all(map(le, a, b))


def _quot(a, b):
    return tuple(map(sub, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


class _NegatedKeys(dict):
    """Memo of negated order keys, monomial -> tuple: the smallest negated
    key belongs to the leading monomial.  One memo serves one ``buchberger``
    call or one ``GroebnerBasis``."""

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, m):
        neg = self[m] = tuple(-x for x in self.key(m))
        return neg


class _Remainder(dict):
    """A primitive integer remainder with a positive leading coefficient, its
    leading monomial, and the Fraction ``scale`` that turns it back into the
    exact remainder of the reduced polynomial."""

    __slots__ = ("lead", "scale")


def _reduce_full(terms, basis, neg):
    """Fully reduce an integer term dict against primitive (lead, terms)
    entries with positive leading coefficients, fraction-free.

    The leading term c*m of the work, taken from a heap of negated keys, is
    eliminated by the first entry (lt, g) whose lead divides m:
    work = (lc/d)*work - (c/d)*(m/lt)*g with lc = g[lt] and d = gcd(c, lc).
    Added terms lie below m, so the heap holds exactly the keys of the work
    and a cancelled term stays as a zero until it is popped.  Irreducible
    terms stay in the work (they are scaled with it); the content is divided
    out once, at the end.  Returns a ``_Remainder``, empty (falsy) exactly
    when the remainder is zero."""
    work = dict(terms)
    heap = [(neg[m], m) for m in work]
    heapq.heapify(heap)
    mult = 1
    lead = None
    while heap:
        m = heapq.heappop(heap)[1]
        c = work[m]
        if not c:
            continue
        for lt, g in basis:
            if _divides(lt, m):
                lc = g[lt]
                d = math.gcd(c, lc)
                if d != lc:
                    a = lc // d
                    mult *= a
                    for e in work:
                        work[e] *= a
                b = c // d
                q = _quot(m, lt)
                for m2, c2 in g.items():
                    mm = tuple(map(add, m2, q))
                    if mm in work:
                        work[mm] -= b * c2
                    else:
                        work[mm] = -b * c2
                        heapq.heappush(heap, (neg[mm], mm))
                break
        else:
            if lead is None:
                lead = m
    if lead is None:
        return _Remainder()
    g, terms = primitive({e: c for e, c in work.items() if c}, lead)
    out = _Remainder(terms)
    out.lead, out.scale = lead, Fraction(g, mult)
    return out


def _spoly(a, b):
    """S-polynomial of two primitive (lead, terms) entries, as an integer
    term dict: (lc_b/g)*(lcm/lt_a)*a - (lc_a/g)*(lcm/lt_b)*b with
    g = gcd(lc_a, lc_b), a positive multiple of the monic S-polynomial."""
    (lta, ga), (ltb, gb) = a, b
    lca, lcb = ga[lta], gb[ltb]
    g = math.gcd(lca, lcb)
    fa, fb = lcb // g, lca // g
    lcm = _lcm(lta, ltb)
    qa, qb = _quot(lcm, lta), _quot(lcm, ltb)
    s = {tuple(map(add, m, qa)): fa * c for m, c in ga.items()}
    for m, c in gb.items():
        mm = tuple(map(add, m, qb))
        v = s.get(mm, 0) - fb * c
        if v:
            s[mm] = v
        else:
            s.pop(mm, None)
    return s


def normalized(poly, key):
    """The integer-primitive multiple of a nonzero polynomial whose leading
    coefficient in the order ``key`` is positive."""
    _, terms = primitive(cleared(poly.terms)[1], _lead(poly.terms, key))
    return MultiPoly(poly.vars, {m: Fraction(c) for m, c in terms.items()})


def _staircase(leads, nvars):
    """Sorted exponents of the monomials that no lead divides, or None when
    some variable has no pure power among the leads: there are then
    infinitely many."""
    box = []
    for v in range(nvars):
        pures = [e[v] for e in leads if sum(e) == e[v]]
        if not pures:
            return None
        box.append(range(min(pures)))
    # a pure power w^d bounds the box below d, so it divides no box point
    mixed = [l for l in leads if sum(1 for x in l if x) > 1]
    return [e for e in product(*box) if not any(_divides(l, e) for l in mixed)]


class GroebnerBasis:
    """Reduced basis; elements are ``normalized``, sorted by increasing
    leading term.  The leading exponents ``leads``, the ``staircase`` of
    standard exponents (None when infinite) and the primitive integer
    (lead, terms) ``entries`` that ``normal_form`` and the S-polynomial check
    reduce against are derived once, here, from the elements."""

    def __init__(self, vars, order, elements):
        self.vars = vars
        self.elements = elements
        self.key = order.for_vars(vars)
        self._neg = _NegatedKeys(self.key)
        self.leads = [_lead(g.terms, self.key) for g in elements]
        self.staircase = _staircase(self.leads, len(vars))
        self.entries = [
            (m, primitive(cleared(g.terms)[1], m)[1]) for m, g in zip(self.leads, elements)
        ]

    def normal_form(self, poly):
        """The exact remainder of ``poly``, Fraction coefficients."""
        den, terms = cleared(poly.terms)
        red = _reduce_full(terms, self.entries, self._neg)
        if not red:
            return MultiPoly(self.vars)
        scale = red.scale / den
        return MultiPoly(self.vars, {m: scale * c for m, c in red.items()})


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens, its elements
    ``normalized`` and sorted by increasing leading term.

    The basis is computed in grevlex with the same variable precedence; when
    that ideal is zero-dimensional, ``fglm`` converts it to ``order``.  A
    positive-dimensional ideal is computed in ``order`` directly."""
    if order.kind == "grevlex":
        return _buchberger(gens, order)
    gb = _buchberger(gens, MonomialOrder("grevlex", order.precedence))
    if gb.staircase is None:
        return _buchberger(gens, order)
    return fglm(gb, order, gens)


def _buchberger(gens, order):
    """Reduced Groebner basis by Buchberger's algorithm in ``order``."""
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("empty generator list")
    vars = gens[0].vars
    key = order.for_vars(vars)
    neg = _NegatedKeys(key)

    # primitive integer (leading exponent, terms) entries, as _reduce_full
    # takes them
    basis = []
    for g in gens:
        red = _reduce_full(cleared(g.terms)[1], basis, neg)
        if red:
            basis.append((red.lead, red))

    # Pending pairs in a heap ordered by (key of lcm, insertion number): the
    # smallest lcm first (normal selection), ties in insertion order.
    heap = []
    pending = set()
    seq = count()

    def push(i, j):
        lcm = _lcm(basis[i][0], basis[j][0])
        heapq.heappush(heap, (key(lcm), next(seq), i, j))
        pending.add((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        lti, ltj = basis[i][0], basis[j][0]
        lcm = _lcm(lti, ltj)
        if all(a + b == c for a, b, c in zip(lti, ltj, lcm)):
            continue  # coprime leading terms
        # chain criterion
        if any(
            l != i
            and l != j
            and _divides(ltl, lcm)
            and (min(i, l), max(i, l)) not in pending
            and (min(j, l), max(j, l)) not in pending
            for l, (ltl, _) in enumerate(basis)
        ):
            continue
        red = _reduce_full(_spoly(basis[i], basis[j]), basis, neg)
        if red:
            basis.append((red.lead, red))
            new = len(basis) - 1
            for i2 in range(new):
                push(i2, new)

    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            red = _reduce_full(basis[i][1], basis[:i] + basis[i + 1 :], neg)
            if not red:
                basis.pop(i)
                changed = True
                break
            if red != basis[i][1]:
                basis[i] = (red.lead, red)
                changed = True

    basis.sort(key=lambda entry: key(entry[0]))
    out = [MultiPoly(vars, {m: Fraction(c) for m, c in terms.items()}) for _, terms in basis]
    return GroebnerBasis(vars, order, out)


def quotient_dimension(gb):
    """Number of standard monomials, or None when infinite."""
    return None if gb.staircase is None else len(gb.staircase)


def standard_monomials(gb):
    """A copy of the sorted standard exponents."""
    if gb.staircase is None:
        raise ValueError("quotient is infinite dimensional")
    return list(gb.staircase)


def fglm(gb, order, gens):
    """The reduced Groebner basis in ``order`` of the zero-dimensional ideal
    generated by ``gens``, from its reduced Groebner basis ``gb`` in another
    order: the change of order of Faugere, Gianni, Lazard and Mora
    (J. Symbolic Comput. 16, 1993).

    Monomials are visited in increasing ``order`` from 1, skipping multiples
    of the leading terms found so far.  The normal form of each is that of a
    standard predecessor times one variable, reduced by ``gb``; it goes into
    an exact ``SpanSolver``, and the first dependency on the standard
    monomials before it is a new element m - sum c_s s.  The result is
    checked before it is returned, or ArithmeticError is raised: it has as
    many standard monomials as ``gb``, each of ``gens`` reduces to zero
    against it, and each of its elements reduces to zero against ``gb``."""
    if gb.staircase is None:
        raise ValueError("quotient is infinite dimensional")
    dim = len(gb.staircase)
    vars = gb.vars
    key = order.for_vars(vars)
    one = (0,) * len(vars)
    shifts = [tuple(int(i == v) for i in range(len(vars))) for v in range(len(vars))]
    solver = SpanSolver(domain(0))
    # insert index -> (standard monomial, scale, primitive integer remainder)
    # with normal form = scale * remainder
    std = {}
    elements = []
    leads = []
    heap = [(key(one), one, None)]
    seen = {one}
    while heap:
        _, m, pred = heapq.heappop(heap)
        if any(_divides(lt, m) for lt in leads):
            continue
        if pred is None:
            scale, terms = Fraction(1), {one: 1}
        else:
            i, shift = pred
            _, scale, terms = std[i]
            terms = {tuple(map(add, e, shift)): c for e, c in terms.items()}
        red = _reduce_full(terms, gb.entries, gb._neg)
        if red:
            scale *= red.scale
        idx = solver.count
        rel = solver.insert(red, scale)
        if rel is None:
            if len(std) == dim:
                raise ArithmeticError("more standard monomials than the quotient dimension")
            std[idx] = (m, scale, red)
            for shift in shifts:
                mm = tuple(map(add, m, shift))
                if mm not in seen:
                    seen.add(mm)
                    heapq.heappush(heap, (key(mm), mm, (idx, shift)))
        else:
            c = rel.pop(idx)
            terms = {m: Fraction(1)}
            terms.update((std[i][0], r / c) for i, r in rel.items())
            leads.append(m)
            elements.append(normalized(MultiPoly(vars, terms), key))
    out = GroebnerBasis(vars, order, elements)
    if (
        len(std) != dim
        or any(out.normal_form(g) for g in gens)
        or any(gb.normal_form(g) for g in elements)
    ):
        raise ArithmeticError("the change of order fails its exact check")
    return out


def point_membership(polys, point):
    """True when every polynomial vanishes at the point, a tuple of ints or
    Fractions with one coordinate per polynomial variable.

    The evaluation runs on integers: the coordinates are put over one common
    denominator d, and each polynomial, cleared of its denominators, is
    summed as sum c_e prod a_i^e_i d^(deg - |e|), with the powers memoised
    per point."""
    point = tuple(point)
    den = math.lcm(*(x.denominator for x in point))
    # the scaled coordinates a_i, then d itself
    bases = [x.numerator * (den // x.denominator) for x in point] + [den]
    powers = {}

    def power(i, k):
        v = powers.get((i, k))
        if v is None:
            v = powers[(i, k)] = bases[i] ** k
        return v

    for p in polys:
        if len(p.vars) != len(point):
            raise ValueError(f"point {point} does not match the variables {p.vars}")
        if not p:
            continue
        terms = cleared(p.terms)[1]
        deg = max(map(sum, terms))
        acc = 0
        for e, c in terms.items():
            v = c * power(-1, deg - sum(e))
            for i, k in enumerate(e):
                if k:
                    v *= power(i, k)
            acc += v
        if acc:
            return False
    return True


def radical_multiplicity_check(gb, points):
    """True when the given points are pairwise distinct, all lie in the
    variety, and are as many as the quotient dimension (which forces the
    quotient to be semisimple)."""
    dim = quotient_dimension(gb)
    if dim is None or dim != len(points):
        return False
    if len(set(points)) != len(points):
        return False
    return all(point_membership(gb.elements, pt) for pt in points)


def spoly_reductions_vanish(gb):
    """Buchberger criterion on the finished basis: every S-polynomial of its
    entries, coprime pairs included, has normal form zero."""
    ents = gb.entries
    return not any(
        _reduce_full(_spoly(ents[i], ents[j]), ents, gb._neg)
        for j in range(len(ents))
        for i in range(j)
    )
