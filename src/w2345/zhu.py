"""Polynomial images of normal-form elements in the associative (Zhu-style)
quotient and in the C2 quotient.

The associative quotient of the algebra spanned by normal-form words is a
commutative polynomial image in the generator classes; we reduce a word by
stripping its leftmost mode:

  * an omega mode L(-n) reduces through
        [L(-n) v] = (-1)^n ((n-1) [omega] * [v] + [L(0) v]),  n >= 1;
  * a generator mode x_{-1} expands through the star product,
        [x_{-1} v] = [x] * [v] - sum_{i>=1} C(wt x, i) [x_{i-1} v];
  * a generator mode x_{-j}, j >= 2, lowers weight through
        sum_{i>=0} C(wt x, i) [x_{i-j} v] = 0.

Every step strictly decreases the weight, with the product table supplying
the rewriting of the non-negative modes.  The C2 image simply kills every
word containing a mode below -1 and reads off the -1 modes.
"""

from __future__ import annotations

from . import exprs, reference
from .modes import apply_modes, element_modes
from .multipoly import MultiPoly
from .scalars import comb_z
from .walgebra import G3, G4, GW, NF_GEN_WEIGHTS, nf_element_weight, nf_weight

W_VARS = ("w2", "w3", "w4", "w5")
X_VARS = ("x2", "x3", "x4", "x5")


class ZhuC2:
    def __init__(self, session):
        self.ses = session
        self.dom = session.domain
        self.walg = session.walg()
        # word -> image, shared by every reducer of the session
        self._memo = session.kept.setdefault("reduce_word", {})

    # -- associative quotient -------------------------------------------------

    def _var(self, g):
        return MultiPoly.var(W_VARS, W_VARS[g])

    def reduce_word(self, mono):
        hit = self._memo.get(mono)
        if hit is not None:
            return hit
        if not mono:
            out = MultiPoly.const(W_VARS, self.dom.one)
            self._memo[mono] = out
            return out
        (g, t), rest = mono[0], mono[1:]
        j = -t
        if g == GW:
            # omega_{-j} = L(-j-1)
            n = j + 1
            zr = self.reduce_word(rest)
            out = (self._var(GW) * zr) * (n - 1) + zr * nf_weight(rest)
            if n % 2:
                out = -out
        else:
            wt = NF_GEN_WEIGHTS[g]
            out = self._var(g) * self.reduce_word(rest) if j == 1 else MultiPoly.zero(W_VARS)
            for i in range(1, wt + 1):
                moved = apply_modes(self.walg, ((g, i - j),), {rest: 1})
                if moved:
                    out = out - self.zhu_reduce(moved) * comb_z(wt, i)
        self._memo[mono] = out
        return out

    def zhu_reduce(self, elem):
        out = MultiPoly.zero(W_VARS)
        for mono, c in elem.items():
            if c:
                out = out + self.reduce_word(mono) * c
        return out

    def zhu_star(self, u, v):
        """Image of the associative product u * v, computed mode-wise."""
        wu = nf_element_weight(u, self.dom)
        out = MultiPoly.zero(W_VARS)
        for n, term in element_modes(self.walg, u, range(-1, wu), v).items():
            if term:
                out = out + self.zhu_reduce(term) * comb_z(wu, n + 1)
        return out

    # -- C2 quotient -----------------------------------------------------------

    def c2_reduce(self, elem):
        """The C2 image of an element or state; its coefficients may be raw
        ints, and come out as domain scalars."""
        out = MultiPoly.zero(X_VARS)
        for mono, c in elem.items():
            if not c:
                continue
            if any(t <= -2 for _, t in mono):
                continue
            e = [0, 0, 0, 0]
            for g, _ in mono:
                e[g] += 1
            out = out + MultiPoly(X_VARS, {tuple(e): self.dom.scalar(c)})
        return out

    # -- the pinned kernel polynomials ------------------------------------------

    def _null_scale(self):
        """The multiple relating the printed displays to the unit-normalized
        weight-8 null field: minus the recorded B0 scale."""
        return -self.dom.parse(reference.B0_SCALE_TEXT)

    def _null_scale_9(self):
        """Scale for the weight-9 null field image: k (1424k^2+3241k+1542)."""
        k = self.dom.k
        return k * (1424 * k**2 + 3241 * k + 1542)

    def q_polynomials(self):
        """Kernel polynomials from the weight-8 and weight-9 null fields,
        scaled as printed."""
        v0 = self.ses.null_field_for(((G3, -2), (G3, -2)))
        v1 = self.ses.null_field_for(((G3, -1), (G4, -3)))
        return self.zhu_reduce(v0) * self._null_scale(), self.zhu_reduce(v1) * self._null_scale_9()

    def b_polynomials(self):
        """C2-kernel polynomials from the three null fields.

        B0 carries the printed scale, B1 the weight-9 scale with the sign
        fixed by the display, and B2 is matched projectively with the scalar
        returned alongside."""
        v0 = self.ses.null_field_for(((G3, -2), (G3, -2)))
        v1 = self.ses.null_field_for(((G3, -1), (G4, -3)))
        v2 = self.ses.null_field_for(((G3, -3), (G3, -3)))
        b0 = self.c2_reduce(v0) * self._null_scale()
        b1 = self.c2_reduce(v1) * (-self._null_scale_9())
        raw2 = self.c2_reduce(v2)
        want = exprs.parse_multipoly(reference.B2_TEXT, X_VARS, self.dom)
        lead = max(want.terms, key=lambda e: (sum(e), e))
        if lead not in raw2.terms:
            raise ValueError("weight-10 C2 image is not proportional to the display")
        scalar = want.terms[lead] / raw2.terms[lead]
        b2 = raw2 * scalar
        if b2 != want:
            raise ValueError("weight-10 C2 image is not proportional to the display")
        return b0, b1, b2, scalar
