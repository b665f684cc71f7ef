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
    """Fully reduce a term dict against a list of (lt, lc, terms) entries."""
    out = {}
    work = dict(terms)
    while work:
        m = _lead(work, key)
        c = work[m]
        for lt, lc, g in basis:
            if _divides(lt, m):
                q = _quot(m, lt)
                f = c / lc
                for m2, c2 in g.items():
                    mm = tuple(x + y for x, y in zip(m2, q))
                    s = work.get(mm, Fraction(0)) - f * c2
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            out[m] = c
            del work[m]
    return out


class GroebnerBasis:
    """Reduced basis; elements are integer-primitive with positive leading
    coefficient, sorted by increasing leading term.  The leading exponent of
    each element is found once, here, and kept in ``leads``."""

    def __init__(self, vars, order, elements):
        self.vars = vars
        self.order = order
        self.elements = elements
        self._key = order.for_vars(vars)
        self.leads = [_lead(g.terms, self._key) for g in elements]

    def key(self):
        return self._key

    def leading_terms(self):
        return list(self.leads)

    def normal_form(self, poly):
        basis = [(m, g.terms[m], g.terms) for m, g in zip(self.leads, self.elements)]
        return MultiPoly(self.vars, _reduce_full(poly.terms, basis, self._key))


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("empty generator list")
    vars = gens[0].vars
    key = order.for_vars(vars)

    # monic term dicts, each entry (leading exponent, 1, terms) as
    # _reduce_full takes it
    basis = []
    one = Fraction(1)

    def add(terms):
        m = _lead(terms, key)
        lc = terms[m]
        basis.append((m, one, {e: c / lc for e, c in terms.items()}))

    for g in gens:
        red = _reduce_full({e: Fraction(c) for e, c in g.terms.items()}, basis, key)
        if red:
            add(red)

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
        (lti, _, gi), (ltj, _, gj) = basis[i], basis[j]
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
            for l, (ltl, _, _) in enumerate(basis)
        ):
            continue
        qi, qj = _quot(lcm, lti), _quot(lcm, ltj)
        s = {}
        for m, c in gi.items():
            mm = tuple(x + y for x, y in zip(m, qi))
            s[mm] = s.get(mm, Fraction(0)) + c
        for m, c in gj.items():
            mm = tuple(x + y for x, y in zip(m, qj))
            v = s.get(mm, Fraction(0)) - c
            if v:
                s[mm] = v
            else:
                s.pop(mm, None)
        red = _reduce_full(s, basis, key)
        if red:
            add(red)
            new = len(basis) - 1
            for i2 in range(new):
                push(i2, new)

    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            red = _reduce_full(basis[i][2], basis[:i] + basis[i + 1 :], key)
            if not red:
                basis.pop(i)
                changed = True
                break
            m = _lead(red, key)
            red = {e: c / red[m] for e, c in red.items()}
            if red != basis[i][2]:
                basis[i] = (m, one, red)
                changed = True

    out = []
    for m, _, b in sorted(basis, key=lambda entry: key(entry[0])):
        poly, _ = MultiPoly(vars, dict(b)).primitive_integer()
        if poly.terms[m] < 0:
            poly = -poly
        out.append(poly)
    return GroebnerBasis(vars, order, out)


def _staircase(gb):
    """Sorted exponents of the monomials outside the leading-term ideal, or
    None when there are infinitely many."""
    lts = gb.leading_terms()
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
    """Buchberger criterion on the finished basis."""
    els, leads = gb.elements, gb.leads
    for j in range(len(els)):
        for i in range(j):
            ti, tj = leads[i], leads[j]
            lcm = _lcm(ti, tj)
            qi, qj = _quot(lcm, ti), _quot(lcm, tj)
            ci = els[i].terms[ti]
            cj = els[j].terms[tj]
            s = {}
            for m, c in els[i].terms.items():
                mm = tuple(x + y for x, y in zip(m, qi))
                s[mm] = s.get(mm, Fraction(0)) + Fraction(c) / ci
            for m, c in els[j].terms.items():
                mm = tuple(x + y for x, y in zip(m, qj))
                v = s.get(mm, Fraction(0)) - Fraction(c) / cj
                if v:
                    s[mm] = v
                else:
                    s.pop(mm, None)
            if gb.normal_form(MultiPoly(gb.vars, s)):
                return False
    return True
