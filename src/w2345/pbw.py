"""States of the level-k Weyl module in the PBW basis.

A basis monomial is a flat tuple of (generator, mode) pairs with generator
ids H=0, E=1, F=2 and creation modes <= -1, sorted ascending; this realizes
the words h(-i1)..h(-ip) e(-j1)..e(-jq) f(-m1)..f(-mr)|0> with weakly
decreasing indices inside each block.  A state is a dict monomial -> domain
scalar: a Fraction at a level, a RatFunc over Q(k).

Inside the engines the coefficients are raw integers: ``apply_gen`` and its
memo tables hold ints (and IntPolys in k over Q(k)), and so do the targets
of the mode calculus, on ``modes`` codes.  ``modes.apply_modes`` (which the
helpers here call) and ``modes.element_modes`` turn the coefficients into
domain scalars on the way out, so their outputs, and every state built from
them, are used as they are.  canonical() settles raw values only where they
enter from outside that contract: states handed to ``Session.express``.
"""

from __future__ import annotations

from .linalg import clear_vector
from .modes import NormalOrdering, add_into, apply_modes
from .scalars import IntPoly

H, E, F = 0, 1, 2

# [a, b] = _BRACKET[a][b] as (integer coefficient, generator), None when zero.
_BRACKET = (
    (None, (2, E), (-2, F)),
    ((-2, E), None, (1, H)),
    ((2, F), (-1, H), None),
)
# normalized invariant form <a, b>
_FORM = ((2, 0, 0), (0, 0, 1), (0, 1, 0))


def mono_weight(mono):
    return -sum(m for _, m in mono)


def mono_h0(mono):
    """h(0) eigenvalue 2(q - r) of a basis monomial."""
    q = sum(1 for g, _ in mono if g == E)
    r = sum(1 for g, _ in mono if g == F)
    return 2 * (q - r)


def _theta_gen(g):
    return g if g == H else (F if g == E else E)


class PBWAlgebra(NormalOrdering):
    """Generator-mode action on PBW monomials, with session memo tables."""

    def __init__(self, domain):
        super().__init__()
        self.domain = domain
        # the central term keeps the memo tables on integers: the int level,
        # or the polynomial k over Q(k)
        self.k = IntPoly((0, 1)) if domain.is_generic else domain.level

    def gen_weight(self, g):
        return 1

    def bracket(self, g, n, bg, bm, rest):
        """[a(n), b(m)] = [a, b](n + m) + n <a, b> delta_{n+m,0} k on rest."""
        out = {}
        br = _BRACKET[g][bg]
        if br is not None:
            coef, g2 = br
            add_into(out, self.apply_gen(g2, n + bm, rest), coef)
        if n + bm == 0 and _FORM[g][bg]:
            add_into(out, {rest: 1}, (n * _FORM[g][bg]) * self.k)
        return out


# ---------------------------------------------------------------------------
# state helpers
# ---------------------------------------------------------------------------


def canonical(domain, state):
    """Settle raw or mixed coefficients into domain scalars, pruned."""
    out = {}
    for m, c in state.items():
        c = domain.scalar(c)
        if c:
            out[m] = c
    return out


def scale(state, coeff):
    if not coeff:
        return {}
    return {m: coeff * c for m, c in state.items()}


def weight(state):
    """Common weight of a nonzero state, or None when inhomogeneous."""
    if not state:
        raise ValueError("the zero state has no weight")
    ws = {mono_weight(m) for m in state}
    return ws.pop() if len(ws) == 1 else None


def h_free(state):
    """The image of a state in V / I, I = sum_{n >= 1} h(-n) V.  PBW order
    puts the h factors first, so I is spanned by the h-led monomials, and
    the image keeps the other monomials."""
    return {m: c for m, c in state.items() if not m or m[0][0] != H}


def commutant_defect(alg, state):
    """The least j >= 0 with h(j) state != 0, or None when the state lies in
    the Heisenberg commutant.  Exact: the state is cleared to integer raws,
    and j runs up to its largest weight, since a larger j lowers every
    monomial below the vacuum."""
    raws, _ = clear_vector(alg.domain, state)
    for j in range(max((mono_weight(m) for m in raws), default=-1) + 1):
        if apply_modes(alg, ((H, j),), raws):
            return j
    return None


def theta(alg, state):
    """Order-2 automorphism h -> -h, e <-> f.

    The image word must be re-normal-ordered: swapping e and f factors
    leaves the word out of PBW order whenever both occur."""
    out = {}
    for mono, c in state.items():
        if sum(1 for g, _ in mono if g == H) % 2:
            c = -c
        add_into(out, apply_modes(alg, tuple((_theta_gen(g), t) for g, t in mono), {(): 1}), c)
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def partitions(n, minpart=1, maxpart=None):
    """Weakly decreasing partitions of n with parts >= minpart."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), minpart - 1, -1):
        for rest in partitions(n - first, minpart, first):
            yield (first,) + rest


def enumerate_words(gen_weights, d):
    """All PBW-ordered words of weight d in the generators 0, 1, ... of the
    given weights, canonically sorted.

    A factor (g, t) of a weight-w generator contributes w - t - 1, so the
    block of g is a partition of its share of d into parts >= w."""
    out = []

    def rec(gen, remaining, acc):
        if gen == len(gen_weights):
            if remaining == 0:
                out.append(acc)
            return
        w0 = gen_weights[gen]
        for dg in range(remaining + 1):
            for parts in partitions(dg, w0):
                rec(gen + 1, remaining - dg, acc + tuple((gen, w0 - 1 - p) for p in parts))

    rec(0, d, ())
    return sorted(out)


def enumerate_monomials(d, h0=None):
    """All PBW monomials of weight d, canonically sorted; optional h(0) filter."""
    words = enumerate_words((1, 1, 1), d)
    return words if h0 is None else [m for m in words if mono_h0(m) == h0]

