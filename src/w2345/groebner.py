"""Buchberger Groebner bases over exact rationals in few variables.

Plain Buchberger with the coprime-leading-term and chain criteria, full
reduction, and a final inter-reduction; no modular shortcuts.  Coefficients
are Fractions throughout (the ideals of interest live at a fixed level).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import count, product

from .multipoly import MultiPoly


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
    return all(x <= y for x, y in zip(a, b))


def _quot(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_full(terms, basis, key):
    """Fully reduce a term dict against a list of monic (lead, terms) entries."""
    out = {}
    work = dict(terms)
    while work:
        m = _lead(work, key)
        c = work[m]
        for lt, g in basis:
            if _divides(lt, m):
                q = _quot(m, lt)
                for m2, c2 in g.items():
                    mm = tuple(x + y for x, y in zip(m2, q))
                    s = work.get(mm, 0) - c * c2
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            out[m] = c
            del work[m]
    return out


def _spoly(a, b):
    """S-polynomial of two monic (lead, terms) entries, as a term dict."""
    (lta, ga), (ltb, gb) = a, b
    lcm = _lcm(lta, ltb)
    qa, qb = _quot(lcm, lta), _quot(lcm, ltb)
    s = {tuple(x + y for x, y in zip(m, qa)): c for m, c in ga.items()}
    for m, c in gb.items():
        mm = tuple(x + y for x, y in zip(m, qb))
        v = s.get(mm, 0) - c
        if v:
            s[mm] = v
        else:
            s.pop(mm, None)
    return s


def normalized(poly, key):
    """The integer-primitive multiple of a nonzero polynomial whose leading
    coefficient in the order ``key`` is positive."""
    poly, _ = poly.primitive_integer()
    if poly.terms[_lead(poly.terms, key)] < 0:
        poly = -poly
    return poly


class GroebnerBasis:
    """Reduced basis; elements are ``normalized``, sorted by increasing
    leading term.  The leading exponents ``leads`` and the monic
    (lead, terms) ``entries`` that ``normal_form`` and the S-polynomial check
    reduce against are derived once, here, from the elements."""

    def __init__(self, vars, order, elements):
        self.vars = vars
        self.elements = elements
        self.key = order.for_vars(vars)
        self.leads = [_lead(g.terms, self.key) for g in elements]
        self.entries = [
            (m, {e: Fraction(c) / g.terms[m] for e, c in g.terms.items()})
            for m, g in zip(self.leads, elements)
        ]

    def normal_form(self, poly):
        return MultiPoly(self.vars, _reduce_full(poly.terms, self.entries, self.key))


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("empty generator list")
    vars = gens[0].vars
    key = order.for_vars(vars)

    # monic (leading exponent, terms) entries, as _reduce_full takes them
    basis = []

    def monic(terms):
        m = _lead(terms, key)
        lc = terms[m]
        return m, {e: c / lc for e, c in terms.items()}

    for g in gens:
        red = _reduce_full({e: Fraction(c) for e, c in g.terms.items()}, basis, key)
        if red:
            basis.append(monic(red))

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
        red = _reduce_full(_spoly(basis[i], basis[j]), basis, key)
        if red:
            basis.append(monic(red))
            new = len(basis) - 1
            for i2 in range(new):
                push(i2, new)

    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            red = _reduce_full(basis[i][1], basis[:i] + basis[i + 1 :], key)
            if not red:
                basis.pop(i)
                changed = True
                break
            entry = monic(red)
            if entry[1] != basis[i][1]:
                basis[i] = entry
                changed = True

    basis.sort(key=lambda entry: key(entry[0]))
    out = [normalized(MultiPoly(vars, terms), key) for _, terms in basis]
    return GroebnerBasis(vars, order, out)


def _staircase(gb):
    """Sorted exponents of the monomials outside the leading-term ideal, or
    None when there are infinitely many."""
    lts = gb.leads
    maxdeg = []
    for v in range(len(gb.vars)):
        pures = [e[v] for e in lts if sum(e) == e[v]]
        if not pures:
            return None
        maxdeg.append(min(pures))
    return [
        e
        for e in product(*(range(d) for d in maxdeg))
        if not any(_divides(l, e) for l in lts)
    ]


def quotient_dimension(gb):
    """Number of standard monomials, or None when infinite."""
    std = _staircase(gb)
    return None if std is None else len(std)


def standard_monomials(gb):
    std = _staircase(gb)
    if std is None:
        raise ValueError("quotient is infinite dimensional")
    return std


def point_membership(polys, point):
    """True when every polynomial vanishes at the point (a tuple matching
    the polynomial variables)."""
    for p in polys:
        if p.evaluate(point) != 0:
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
        gb.normal_form(MultiPoly(gb.vars, _spoly(ents[i], ents[j])))
        for j in range(len(ents))
        for i in range(j)
    )
