"""Sparse multivariate polynomials over a scalar domain.

Terms map exponent tuples (one entry per declared variable) to nonzero
coefficients; coefficients are whatever the session's scalar domain produces
(Fractions at a fixed level, rational functions of k generically).  Level
code that evaluates a polynomial many times clears it once with
``cleared`` and sums its integer terms, with one division at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import RatFunc, specialize


def cleared(terms):
    """(den, integer terms): a term dict of Fractions or ints times the lcm
    ``den`` of its denominators."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


def primitive(terms, lead):
    """Integer terms divided by their content, signed so that the coefficient
    of ``lead`` is positive; returns (divisor, terms)."""
    g = math.gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    return g, {m: c // g for m, c in terms.items()}


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None, prune=True):
        self.vars = tuple(vars)
        if terms is None:
            self.terms = {}
        elif prune:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {}, prune=False)

    @classmethod
    def const(cls, vars, c):
        vars = tuple(vars)
        if not c:
            return cls(vars, {}, prune=False)
        return cls(vars, {(0,) * len(vars): c}, prune=False)

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1}, prune=False)

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            if self.vars != other.vars:
                return False
            if set(self.terms) != set(other.terms):
                return False
            return all(c == other.terms[e] for e, c in self.terms.items())
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        # the zero polynomial equals 0, so it hashes like 0
        return hash((self.vars, frozenset(self.terms.items()))) if self.terms else hash(0)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.vars), 0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.vars, out, prune=False)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()}, prune=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            if not other:
                return MultiPoly.zero(self.vars)
            return MultiPoly(
                self.vars, {e: c * other for e, c in self.terms.items()}, prune=False
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.vars, out, prune=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            if not other.is_constant():
                raise ZeroDivisionError("division by a non-constant polynomial")
            other = other.constant_value()
        if not other:
            raise ZeroDivisionError("division by zero")
        inv = 1 / other if not isinstance(other, int) else Fraction(1, other)
        return self * inv

    def __pow__(self, e):
        out = MultiPoly.const(self.vars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- specialization -------------------------------------------------------

    def specialize_level(self, k0):
        """Evaluate rational-function coefficients at an integer level."""
        out = {}
        for e, c in self.terms.items():
            c2 = specialize(c, k0)
            if c2:
                out[e] = c2
        return MultiPoly(self.vars, out, prune=False)

    def map_coeffs(self, f):
        out = {}
        for e, c in self.terms.items():
            c2 = f(c)
            if c2:
                out[e] = c2
        return MultiPoly(self.vars, out, prune=False)

    # -- normalization --------------------------------------------------------

    def primitive_integer(self):
        """Integer-primitive multiple (Fraction coefficients only); returns
        (normalized polynomial, scalar s) with self = s * normalized.

        The sign convention makes the coefficient of the graded-lex leading
        term positive.
        """
        if not self.terms:
            return self, Fraction(1)
        den, terms = cleared(self.terms)
        g, terms = primitive(terms, max(terms, key=lambda e: (sum(e), e)))
        return MultiPoly(self.vars, {m: Fraction(c) for m, c in terms.items()}), Fraction(g, den)

    # -- text -----------------------------------------------------------------

    def format(self, fmt_scalar=None):
        if not self.terms:
            return "0"
        if fmt_scalar is None:
            fmt_scalar = _default_fmt
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                (name if exp == 1 else f"{name}^{exp}")
                for name, exp in zip(self.vars, e)
                if exp
            )
            cs = fmt_scalar(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if mono:
                body = mono if cs == "1" else f"({cs})*{mono}" if _needs_parens(cs) else f"{cs}*{mono}"
            else:
                body = f"({cs})" if _needs_parens(cs) else cs
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.format()})"


def _default_fmt(c):
    if isinstance(c, RatFunc):
        return c.format()
    return str(c)


def _needs_parens(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-/" and depth == 0:
            return True
    return False
