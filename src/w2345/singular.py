"""Singular vectors at levels 2..6 and their polynomial shadows.

The basic vector is u0 = f(0)^(k+1) e(-1)^(k+1) |0>, a Heisenberg-commutant
state of weight k+1; u^r = (W3_1)^r u0 for r = 1..3.  At levels 2, 3, 4 the
vector degenerates to a multiple of the weight k+1 generator; at levels 5
and 6 the normal forms and their quotient polynomials feed the ideal
analysis.
"""

from __future__ import annotations

from . import modes, pbw
from .linalg import SpanSolver
from .modes import apply_modes, element_modes
from .walgebra import keep
from .zhu import ZhuC2


class SingularCheckError(AssertionError):
    pass


@keep
def u0_state(ses):
    """f(0)^(k+1) e(-1)^(k+1) |0> at the session level, with the
    annihilation checks h(n) u0 = 0, 0 <= n <= weight; built once per
    session, callers must not mutate it."""
    k = ses.level
    if k is None or not 2 <= k <= 6:
        raise ValueError("u0 needs a specialized level 2..6")
    st = apply_modes(ses.pbw, ((pbw.F, 0),) * (k + 1), {((pbw.E, -1),) * (k + 1): 1})
    wt = pbw.weight(st)
    if wt != k + 1:
        raise SingularCheckError(f"u0 has weight {wt}, expected {k + 1}")
    n = pbw.commutant_defect(ses.pbw, st)
    if n is not None:
        raise SingularCheckError(f"h({n}) u0 != 0")
    return st


@keep
def ur_state(ses, r):
    """u^r = (W3_1)^r u0, built as W3_1 u^(r-1) and kept per session, so
    u^0..u^r cost r applications of W3_1; callers must not mutate it."""
    if r == 0:
        return u0_state(ses)
    return modes.element_mode(ses.pbw, ses.primaries()[0], 1, ur_state(ses, r - 1))


def ur_normal_form(ses, r):
    """Normal form of u^r at weight k+1+r, in its theta sector
    (-1)^(k+1+r): u0 has parity (-1)^(k+1) and W3 is odd.  Computed once
    per session; each call returns a copy."""
    return dict(_ur_normal_form(ses, r))


@keep
def _ur_normal_form(ses, r):
    return ses.express(ur_state(ses, r), (-1) ** (ses.level + 1 + r))


def theta_parity_u0(ses):
    """Theta eigenvalue of u0; errors when u0 is not an eigenvector."""
    st = u0_state(ses)
    flipped = pbw.theta(ses.pbw, st)
    if flipped == st:
        return 1
    if flipped == pbw.scale(st, -1):
        return -1
    raise SingularCheckError("u0 is not a theta eigenvector")


def _quotient_polynomials(ses, reduce):
    """reduce(ZhuC2(ses), nf) of u^0..u^3, integer-rescaled.

    Returns (polys, multipliers)."""
    red = ZhuC2(ses)
    polys, muls = [], []
    for r in range(4):
        norm, content = reduce(red, ur_normal_form(ses, r)).primitive_integer()
        polys.append(norm)
        muls.append(1 / content)
    return polys, muls


def p_polynomials(ses):
    """Zhu-quotient polynomials of u^0..u^3, integer-rescaled."""
    return _quotient_polynomials(ses, ZhuC2.zhu_reduce)


def a_polynomials(ses):
    """C2-quotient polynomials of u^0..u^3, integer-rescaled."""
    return _quotient_polynomials(ses, ZhuC2.c2_reduce)


def degenerate_identity(ses):
    """At levels 2..4 u0 is a multiple of the weight-(k+1) generator;
    returns the scalar."""
    k = ses.level
    if k not in (2, 3, 4):
        raise ValueError("degenerate case is level 2..4")
    st = u0_state(ses)
    gen = ses.generator_state(k - 1)
    mono = next(iter(gen))
    if mono not in st:
        raise SingularCheckError(f"u0 lacks the generator's monomial {mono}")
    lam = st[mono] / gen[mono]
    if pbw.scale(gen, lam) != st:
        raise SingularCheckError("u0 is not a multiple of the generator")
    return lam


def ideal_span_membership(ses, targets):
    """Close the span of u0 under generator modes up to weight 5 and test
    membership of the target states.

    Mode application is linear, so only independent representatives need
    their images explored."""
    gens = [ses.conformal()[2], *ses.primaries()]
    solvers = {d: SpanSolver(ses.domain) for d in range(1, 6)}
    u0 = u0_state(ses)
    solvers[pbw.weight(u0)].insert(u0)
    frontier = [u0]
    while frontier:
        nxt = []
        for st in frontier:
            d = pbw.weight(st)
            for g_state, gw in zip(gens, (2, 3, 4, 5)):
                ns = range(gw + d - 6, gw + d - 1)  # landing at weights 1..5
                for n, img in element_modes(ses.pbw, g_state, ns, st).items():
                    d2 = gw + d - n - 1
                    if img and d2 >= 1 and solvers[d2].insert(img) is None:
                        nxt.append(img)
        frontier = nxt
    out = []
    for t in targets:
        d = pbw.weight(t)
        nz, _, _ = solvers[d].probe(t)
        out.append(not nz)
    return out
