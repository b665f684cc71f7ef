"""Exact coefficient arithmetic.

Every number in this package is exact: a big rational (``fractions.Fraction``,
aliased ``Rat``) or a reduced rational function of the formal level variable
``k`` (``RatFunc``).  A computation session fixes one of the two modes up
front; ``domain(None)`` gives the generic mode, ``domain(k0)`` the mode
specialized at the integer level ``k0``.

Rational functions are stored as a pair of primitive integer polynomials
(dense, low degree first) with gcd 1 and a positive leading denominator
coefficient.  The engines clear the rational content away and run their
inner loops on integers: plain ints at a level, ``IntPoly`` over Q(k).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

Rat = Fraction

__all__ = [
    "Rat",
    "RatFunc",
    "RF_ZERO",
    "RF_ONE",
    "RF_K",
    "ReconstructionError",
    "SpecializationError",
    "comb_z",
    "domain",
    "GenericDomain",
    "LevelDomain",
    "reconstruct",
    "specialize",
]


def comb_z(m, i):
    """Binomial coefficient C(m, i) for any integer m and i >= 0."""
    if i < 0:
        return 0
    if m >= 0:
        return comb(m, i)
    return (-1) ** i * comb(-m + i - 1, i)


# ---------------------------------------------------------------------------
# Dense integer polynomials in one symbol, low degree first, trailing zeros
# trimmed.  The zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------

IP_ZERO = ()
IP_ONE = (1,)


def ip_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def ip_add(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return ip_trim(out)


def ip_neg(a):
    return tuple(-x for x in a)


def ip_mul(a, b):
    if not a or not b:
        return IP_ZERO
    if len(a) == 1:
        x = a[0]
        return tuple(x * y for y in b)
    if len(b) == 1:
        y = b[0]
        return tuple(x * y for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ip_trim(out)


def ip_mul_int(a, c):
    if c == 0 or not a:
        return IP_ZERO
    if c == 1:
        return a
    return tuple(x * c for x in a)


def ip_pow(a, e):
    out = IP_ONE
    base = a
    while e:
        if e & 1:
            out = ip_mul(out, base)
        base = ip_mul(base, base)
        e >>= 1
    return out


def ip_eval(a, x):
    """Evaluate at x (int or Fraction), Horner."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ip_divexact(a, b):
    """Exact division in Z[x]; raises ArithmeticError when b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return IP_ZERO
    if len(b) == 1:
        d = b[0]
        if d == 1:
            return a
        out = []
        for c in a:
            q, r = divmod(c, d)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out.append(q)
        return tuple(out)
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    if len(a) - 1 < db:
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q, r = divmod(c, lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] -= q * b[j]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return ip_trim(out)


def _ip_valuation(a):
    v = 0
    while v < len(a) and a[v] == 0:
        v += 1
    return v


def _ip_shift_down(a, v):
    return a[v:] if v else a


def _reconstruct(x, xi):
    """Balanced base-xi digits of the integer x, as a polynomial tuple."""
    out = []
    half = xi // 2
    while x:
        d = x % xi
        if d > half:
            d -= xi
        out.append(d)
        x = (x - d) // xi
    return ip_trim(out)


def _ip_gcd_subresultant(f, g):
    """Primitive gcd of primitive f, g via the subresultant PRS."""
    if len(f) < len(g):
        f, g = g, f
    while True:
        if not g:
            pp = _ip_primitive_pos(f)
            return pp
        if len(g) == 1:
            return IP_ONE
        # pseudo-remainder of f by g
        df, dg = len(f) - 1, len(g) - 1
        lg = g[-1]
        rem = list(ip_mul_int(f, lg ** (df - dg + 1)))
        for i in range(df, dg - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c // lg
            for j in range(dg + 1):
                rem[i - dg + j] -= q * g[j]
        f, g = g, _ip_primitive_pos(ip_trim(rem))


def _ip_primitive_pos(a):
    if not a:
        return a
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    if c != 1:
        a = tuple(x // c for x in a)
    return a


def _ip_coprime_by_eval(a, b):
    """True means certainly coprime (as primitive polynomials); False is inconclusive."""
    xi = 2 * max(max(abs(c) for c in a), max(abs(c) for c in b)) + 29
    for _ in range(3):
        va, vb = ip_eval(a, xi), ip_eval(b, xi)
        if va and vb and gcd(va, vb) == 1:
            return True
        xi = xi * 3 + 17
    return False


def ip_gcd(a, b):
    """Gcd in Z[x] including integer content, normalized to positive lead."""
    if a and a[-1] == 0:
        a = ip_trim(a)
    if b and b[-1] == 0:
        b = ip_trim(b)
    if not a:
        return ip_neg(b) if b and b[-1] < 0 else (b or IP_ZERO)
    if not b:
        return a if a[-1] > 0 else ip_neg(a)
    c = gcd(*a, *b)
    a, b = _ip_primitive_pos(a), _ip_primitive_pos(b)
    va, vb = _ip_valuation(a), _ip_valuation(b)
    v = min(va, vb)
    a, b = _ip_shift_down(a, va), _ip_shift_down(b, vb)
    if len(a) == 1 or len(b) == 1:
        g = IP_ONE
    elif a == b:
        g = a
    else:
        g = _ip_gcd_heuristic(a, b)
    if v:
        g = (0,) * v + g
    return ip_mul_int(g, c)


def _ip_gcd_heuristic(a, b):
    """Gcd of primitive positive-lead a, b by evaluation at a large point.

    Every candidate is certified by exact division plus a coprimality check of
    the cofactors, so a wrong answer is impossible; on repeated failure we fall
    back to the subresultant remainder sequence.
    """
    xi = 2 * min(max(abs(c) for c in a), max(abs(c) for c in b)) + 29
    for _ in range(6):
        va, vb = ip_eval(a, xi), ip_eval(b, xi)
        if va and vb:
            h = gcd(va, vb)
            if h == 1:
                return IP_ONE
            cand = _ip_primitive_pos(_reconstruct(h, xi))
            if cand and len(cand) > 1:
                try:
                    qa = ip_divexact(a, cand)
                    qb = ip_divexact(b, cand)
                except ArithmeticError:
                    qa = None
                if qa is not None and _ip_coprime_by_eval(qa, qb):
                    return cand
            elif cand == IP_ONE or len(cand) == 1:
                # h reconstructs to a constant: the true gcd evaluates into h,
                # so it must be constant too.
                return IP_ONE
        xi = xi * 7 // 3 + 31
    return _ip_gcd_subresultant(a, b)


class IntPoly(tuple):
    """An integer polynomial in k as a number: a trimmed tuple of ints, low
    degree first, with gcd-free ``+``, unary ``-`` and ``*`` against ints and
    integer polynomial tuples.  The engines carry these raw values where a
    level session carries plain ints; anything else gets NotImplemented."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = (other,)
        elif not isinstance(other, tuple):
            return NotImplemented
        return IntPoly(ip_add(self, other))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-x for x in self])

    def __mul__(self, other):
        if isinstance(other, int):
            if not other or not self:
                return IntPoly()
            return self if other == 1 else IntPoly([x * other for x in self])
        if not isinstance(other, tuple):
            return NotImplemented
        return IntPoly(ip_mul(self, other))

    __rmul__ = __mul__


def ip_format(a, symbol="k"):
    if not a:
        return "0"
    parts = []
    for deg in range(len(a) - 1, -1, -1):
        c = a[deg]
        if c == 0:
            continue
        if deg == 0:
            mono = str(abs(c))
        else:
            base = symbol if deg == 1 else f"{symbol}^{deg}"
            mono = base if abs(c) == 1 else f"{abs(c)}*{base}"
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append((" + " if c > 0 else " - ") + mono)
    return "".join(parts)


# ---------------------------------------------------------------------------
# RatFunc: reduced rational function in k over Q.
# ---------------------------------------------------------------------------


class SpecializationError(ArithmeticError):
    pass


class RatFunc:
    """Reduced fraction of integer polynomials in the level symbol k.

    Invariants: gcd(n, d) = 1 in Z[x] (including integer contents), d is never
    zero, and the leading coefficient of d is positive.  Zero is ()/(1,).
    """

    __slots__ = ("n", "d")

    def __init__(self, n, d=IP_ONE, _raw=False):
        if _raw:
            self.n = n
            self.d = d
            return
        n = ip_trim(n)
        d = ip_trim(d)
        if not d:
            raise ZeroDivisionError("zero denominator in rational function")
        if not n:
            self.n, self.d = IP_ZERO, IP_ONE
            return
        g = ip_gcd(n, d)
        if g != IP_ONE:
            n = ip_divexact(n, g)
            d = ip_divexact(d, g)
        if d[-1] < 0:
            n, d = ip_neg(n), ip_neg(d)
        self.n = n
        self.d = d

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, i):
        return cls((i,) if i else IP_ZERO, IP_ONE, _raw=True)

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls(
            (q.numerator,) if q.numerator else IP_ZERO,
            (q.denominator,),
            _raw=True,
        )

    @classmethod
    def poly(cls, int_coeffs):
        return cls(ip_trim(tuple(int_coeffs)), IP_ONE, _raw=True)

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return self.n == o.n and self.d == o.d

    def __hash__(self):
        # a constant hashes as the Fraction it equals
        if len(self.n) <= 1 and len(self.d) == 1:
            return hash(Fraction(self.n[0] if self.n else 0, self.d[0]))
        return hash((self.n, self.d))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not self.n:
            return o
        if not o.n:
            return self
        if self.d == o.d:
            return RatFunc(ip_add(self.n, o.n), self.d)
        g = ip_gcd(self.d, o.d)
        if g == IP_ONE:
            num = ip_add(ip_mul(self.n, o.d), ip_mul(o.n, self.d))
            return RatFunc(num, ip_mul(self.d, o.d), _raw=True) if num else RF_ZERO
        d1 = ip_divexact(self.d, g)
        d2 = ip_divexact(o.d, g)
        num = ip_add(ip_mul(self.n, d2), ip_mul(o.n, d1))
        h = ip_gcd(num, g)
        den = ip_mul(d1, o.d)
        if h != IP_ONE:
            num = ip_divexact(num, h)
            den = ip_divexact(den, h)
        if den and den[-1] < 0:
            num, den = ip_neg(num), ip_neg(den)
        if not num:
            return RF_ZERO
        return RatFunc(num, den, _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(ip_neg(self.n), self.d, _raw=True)

    def __sub__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not self.n or not o.n:
            return RF_ZERO
        g1 = ip_gcd(self.n, o.d)
        g2 = ip_gcd(o.n, self.d)
        n1 = ip_divexact(self.n, g1) if g1 != IP_ONE else self.n
        d2 = ip_divexact(o.d, g1) if g1 != IP_ONE else o.d
        n2 = ip_divexact(o.n, g2) if g2 != IP_ONE else o.n
        d1 = ip_divexact(self.d, g2) if g2 != IP_ONE else self.d
        return RatFunc(ip_mul(n1, n2), ip_mul(d1, d2), _raw=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        if not o.n:
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(o.d, o.n)

    def __rtruediv__(self, other):
        o = _as_ratfunc(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if e < 0:
            return RF_ONE / self ** (-e)
        return RatFunc(ip_pow(self.n, e), ip_pow(self.d, e), _raw=True)

    # -- specialization and text --------------------------------------------

    def specialize(self, k0):
        """Exact value at the level k0; raises when the denominator vanishes."""
        dv = ip_eval(self.d, k0)
        if dv == 0:
            raise SpecializationError(
                f"denominator {ip_format(self.d)} vanishes at k = {k0}"
            )
        return Fraction(ip_eval(self.n, k0), 1) / Fraction(dv, 1)

    def format(self):
        if self.d == IP_ONE:
            return ip_format(self.n)
        ns = ip_format(self.n)
        ds = ip_format(self.d)
        if len(self.n) <= 1 and self.n and self.n[0] > 0:
            left = ns
        else:
            left = f"({ns})"
        if len(self.d) <= 1:
            return f"{left}/{ds}"
        return f"{left}/({ds})"

    def __repr__(self):
        return f"RatFunc({self.format()})"


def _as_ratfunc(x):
    """The one coercion to RatFunc: RatFunc, IntPoly, int or Fraction, else
    None."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, IntPoly):  # plain tuples inside: ip_* may concatenate
        return RatFunc(tuple(x), IP_ONE, _raw=True)
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    return None


RF_ZERO = RatFunc.from_int(0)
RF_ONE = RatFunc.from_int(1)
RF_K = RatFunc.poly((0, 1))


def specialize(s, k0):
    """Exact evaluation of a generic scalar at integer level k0."""
    if isinstance(s, RatFunc):
        return s.specialize(k0)
    return Fraction(s)


# ---------------------------------------------------------------------------
# Rational reconstruction from values at integer levels.
# ---------------------------------------------------------------------------

RECONSTRUCT_LEVELS = 64  # levels sampled before reconstruct gives up


class ReconstructionError(ArithmeticError):
    pass


def reconstruct(sample, first):
    """Rational functions of k from their values at the levels first, first+1, ...

    ``sample(k0)`` returns the values at k0 (one rational per function) or
    raises SpecializationError to skip that level.  Each function is fitted
    by its own incremental Thiele continued fraction

        f(k) = a0 + (k - x0) / (a1 + (k - x1) / (a2 + ...)),

    whose coefficients are inverse differences (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, 5.7).  A new value y at x runs through the
    inverse differences, v <- (x - x_j) / (v - a_j) from v = y; it ends on
    the last coefficient exactly when the fit already predicts y, and then
    it is not added.  A value that would make an earlier inverse difference
    infinite is skipped.  A function is done once its fit has predicted two
    sampled levels in a row, and the fits are returned as RatFuncs when all
    are done.  This is a fit, not a proof: the caller certifies it.  Raises
    ReconstructionError after RECONSTRUCT_LEVELS levels.
    """
    fits = None  # per function: [points x_j, coefficients a_j, predicted in a row]
    for level in range(first, first + RECONSTRUCT_LEVELS):
        try:
            values = sample(level)
        except SpecializationError:
            continue
        if fits is None:
            fits = [[[], [], 0] for _ in values]
        for fit, y in zip(fits, values):
            xs, coeffs, streak = fit
            if streak >= 2:
                continue
            v = Fraction(y)
            for j, (xj, aj) in enumerate(zip(xs, coeffs)):
                if v == aj:
                    break
                v = (level - xj) / (v - aj)
            else:
                xs.append(level)
                coeffs.append(v)
                fit[2] = 0
                continue
            fit[2] = streak + 1 if j == len(coeffs) - 1 else 0
        if all(fit[2] >= 2 for fit in fits):
            out = []
            for xs, coeffs, _ in fits:
                # fold the continued fraction from the bottom, a_j + (k - x_j) / (num / den)
                num, den = (coeffs[-1].numerator,), (coeffs[-1].denominator,)
                for xj, aj in zip(reversed(xs[:-1]), reversed(coeffs[:-1])):
                    p, q = aj.numerator, aj.denominator
                    num, den = (
                        ip_add(ip_mul_int(num, p), ip_mul(den, (-q * xj, q))),
                        ip_mul_int(num, q),
                    )
                    g = gcd(*num, *den)
                    num, den = ip_divexact(num, (g,)), ip_divexact(den, (g,))
                out.append(RatFunc(num, den))
            return out
    raise ReconstructionError(
        f"no rational fit within {RECONSTRUCT_LEVELS} levels from k = {first}"
    )


# ---------------------------------------------------------------------------
# Computation domains.  A domain fixes the scalar mode for a whole session:
# generic (rational functions of k) or specialized at an integer level.
# Every state and coefficient the engines return holds the domain's scalar
# type only: Fractions at a level, RatFuncs over Q(k).  Raw ints and IntPolys
# stay inside the engines: modes.element_modes, modes.apply_modes and the
# linalg carriers settle them on the way out, pbw.canonical() where they
# enter from outside.  The engine-level values that carry raws are named
# so: apply_gen's memo states and the clear_vector pairs of nf_expand.
# ---------------------------------------------------------------------------


class GenericDomain:
    is_generic = True
    level = None

    def __init__(self):
        self.k = RF_K
        self.zero = RF_ZERO
        self.one = RF_ONE

    def scalar(self, x):
        r = _as_ratfunc(x)
        if r is None:
            raise TypeError(f"cannot coerce {x!r} to a generic scalar")
        return r

    def fmt(self, s):
        return self.scalar(s).format()

    def parse(self, text):
        from . import exprs

        return exprs.parse_scalar(text, self)

    def __repr__(self):
        return "GenericDomain()"


class LevelDomain:
    is_generic = False

    def __init__(self, level):
        self.level = int(level)
        self.k = Fraction(self.level)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def scalar(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, RatFunc):
            return x.specialize(self.level)
        raise TypeError(f"cannot coerce {x!r} to a level-{self.level} scalar")

    def fmt(self, s):
        s = self.scalar(s)
        return str(s)

    def parse(self, text):
        from . import exprs

        return exprs.parse_scalar(text, self)

    def __repr__(self):
        return f"LevelDomain({self.level})"


def domain(level=None):
    """Scalar domain for a session: generic when level is None."""
    return GenericDomain() if level is None else LevelDomain(level)
