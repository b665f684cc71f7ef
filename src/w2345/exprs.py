"""Text forms: one tokenizer and evaluator for scalars, polynomials and
operator words.

Grammar (round-trip with the formatters in this module):

    expr    :=  ['-'] term (('+'|'-') term)*
    term    :=  factor (('*'|'/') factor)*
    factor  :=  atom ['^' INT]
    atom    :=  INT | NAME | '(' expr ')' | word
    word    :=  wfactor* '|0>'
    wfactor :=  GEN '(' INT ')'          for the affine generators h, e, f
             |  GEN '[' INT ']'          for the algebra generators w, W3, W4, W5

Words multiply scalars on the left, e.g. ``(72/7) * W4[-1]|0>``; the vacuum
alone is ``|0>``.  Which names are legal is decided by the caller.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .multipoly import MultiPoly

PBW_GENS = {"h": 0, "e": 1, "f": 2}
PBW_NAMES = ("h", "e", "f")
NF_GENS = {"w": 0, "W3": 1, "W4": 2, "W5": 3}
NF_NAMES = ("w", "W3", "W4", "W5")


class ParseError(ValueError):
    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<vac>\|0>)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()\[\]]))"
)


def tokenize(text):
    """(kind, value, position) tokens, in one pass of the token pattern; a
    token's position is where the whitespace before it starts.  Matching
    stops at the first gap, and anything but whitespace left there is a
    ParseError at the end of the last token."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        val = m[kind]
        tokens.append((kind, int(val) if kind == "int" else val, pos))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


class _Evaluator:
    """Recursive-descent evaluation straight into domain values.

    ``names`` maps a plain name to its value (e.g. k, w2).  ``word_kind`` is
    None, "pbw" or "nf"; in the word modes generator letters start an operator
    word whose value is a one-term element dict.
    """

    def __init__(self, tokens, domain, names, word_kind=None):
        self.toks = tokens
        self.i = 0
        self.domain = domain
        self.names = names
        self.word_kind = word_kind

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    # value model: scalars / MultiPoly / ("elt", dict) -----------------------

    def expr(self):
        kind, val, _ = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.next()
            neg = val == "-"
        acc = self.term()
        if neg:
            acc = _vneg(acc)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc = _vadd(acc, _vneg(rhs) if val == "-" else rhs)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                acc = _vmul(acc, rhs) if val == "*" else _vdiv(acc, rhs, pos)
            else:
                return acc

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _vneg(self.factor())
        atom = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, e, p2 = self.next()
            if k2 != "int":
                raise ParseError("expected integer exponent", p2)
            if isinstance(atom, tuple) and atom[0] == "elt":
                raise ParseError("cannot raise an operator word to a power", pos)
            return atom**e
        return atom

    def atom(self):
        kind, val, pos = self.next()
        if kind == "int":
            return val
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect(")")
            return v
        if kind == "vac":
            return "elt", {(): 1}
        if kind == "name":
            if self.word_kind and val in (
                PBW_GENS if self.word_kind == "pbw" else NF_GENS
            ):
                return self.word(val, pos)
            if val in self.names:
                return self.names[val]
            raise ParseError(f"unknown name {val!r}", pos)
        raise ParseError("unexpected token", pos)

    def word(self, first_name, pos):
        gens = PBW_GENS if self.word_kind == "pbw" else NF_GENS
        open_, close_ = ("(", ")") if self.word_kind == "pbw" else ("[", "]")
        factors = []
        name = first_name
        while True:
            gid = gens[name]
            self.expect(open_)
            kind, val, p = self.next()
            sign = 1
            if kind == "op" and val == "-":
                sign = -1
                kind, val, p = self.next()
            if kind != "int":
                raise ParseError("expected integer mode", p)
            mode = sign * val
            self.expect(close_)
            if mode > -1:
                raise ParseError(
                    f"mode {mode} is not a creation index (must be <= -1)", p
                )
            factors.append((gid, mode))
            kind, val, p = self.peek()
            if kind == "name" and val in gens:
                name = self.next()[1]
                continue
            if kind == "vac":
                self.next()
                mono = tuple(factors)
                if tuple(sorted(mono)) != mono:
                    raise ParseError("word factors out of canonical order", p)
                return "elt", {mono: 1}
            raise ParseError("expected another factor or |0>", p)


def _vneg(v):
    if isinstance(v, tuple) and v[0] == "elt":
        return "elt", {m: -c for m, c in v[1].items()}
    return -v


def _vadd(a, b):
    ae = isinstance(a, tuple) and a[0] == "elt"
    be = isinstance(b, tuple) and b[0] == "elt"
    if ae or be:
        if ae != be:
            if (b if ae else a) == 0:
                return a if ae else b
            raise ParseError("cannot add a scalar to an operator word")
        out = dict(a[1])
        for m, c in b[1].items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return "elt", out
    return a + b


def _vmul(a, b):
    ae = isinstance(a, tuple) and a[0] == "elt"
    be = isinstance(b, tuple) and b[0] == "elt"
    if ae and be:
        raise ParseError("cannot multiply two operator words")
    if ae or be:
        elt = a[1] if ae else b[1]
        s = b if ae else a
        out = {}
        for m, c in elt.items():
            v = c * s
            if v:
                out[m] = v
        return "elt", out
    return a * b


def _vdiv(a, b, pos):
    if isinstance(b, tuple):
        raise ParseError("cannot divide by an operator word", pos)
    if not b:
        raise ParseError("division by zero", pos)
    if isinstance(a, tuple) and a[0] == "elt":
        return "elt", {m: _scalar_div(c, b) for m, c in a[1].items()}
    return _scalar_div(a, b)


def _scalar_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    if isinstance(a, MultiPoly) or isinstance(b, MultiPoly):
        if isinstance(a, MultiPoly):
            return a / b
        if not b.is_constant():
            raise ParseError("division by a non-constant polynomial")
        return a / b.constant_value()
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _evaluate(text, domain, names, word_kind=None):
    """Value of the whole text; ParseError on trailing input."""
    ev = _Evaluator(tokenize(text), domain, names, word_kind)
    v = ev.expr()
    if ev.peek()[0] != "end":
        raise ParseError("trailing input", ev.peek()[2])
    return v


def parse_scalar(text, domain):
    v = _evaluate(text, domain, {"k": domain.k})
    if isinstance(v, tuple):
        raise ParseError("expected a scalar, found an operator word")
    return domain.scalar(v)


def parse_multipoly(text, vars, domain):
    vars = tuple(vars)
    names = {"k": domain.k, **{v: MultiPoly.var(vars, v) for v in vars}}
    v = _evaluate(text, domain, names)
    if not isinstance(v, MultiPoly):
        v = MultiPoly.const(vars, v)
    return v.map_coeffs(domain.scalar)


def _parse_element(text, domain, kind):
    v = _evaluate(text, domain, {"k": domain.k}, word_kind=kind)
    if not isinstance(v, tuple):
        if v == 0:
            return {}
        raise ParseError("an element must be a combination of words ending in |0>")
    settled = ((m, domain.scalar(c)) for m, c in v[1].items())
    return {m: c for m, c in settled if c}


def parse_pbw(text, domain):
    """Parse a linear combination of basis words h(-i)...e(-j)...f(-m)...|0>."""
    return _parse_element(text, domain, "pbw")


def parse_nf(text, domain):
    """Parse a linear combination of normal-form words w[-i]W3[-j]...|0>."""
    return _parse_element(text, domain, "nf")


def _fmt_word(mono, kind):
    if not mono:
        return "|0>"
    if kind == "pbw":
        return "".join(f"{PBW_NAMES[g]}({m})" for g, m in mono) + "|0>"
    return "".join(f"{NF_NAMES[g]}[{m}]" for g, m in mono) + "|0>"


def format_element(elt, domain, kind):
    """Canonical text of an element dict; terms in sorted monomial order."""
    if not elt:
        return "0"
    parts = []
    for mono in sorted(elt):
        c = domain.scalar(elt[mono])
        if not c:
            continue
        cs = domain.fmt(c)
        neg = cs.startswith("-")
        if neg:
            cs = domain.fmt(-c)
        word = _fmt_word(mono, kind)
        if cs == "1":
            body = word
        else:
            needs = any(ch in cs for ch in "+-") and not (
                cs.startswith("(") and cs.endswith(")")
            )
            body = (f"({cs})" if needs else cs) + " * " + word
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts) if parts else "0"


def format_pbw(elt, domain):
    return format_element(elt, domain, "pbw")


def format_nf(elt, domain):
    return format_element(elt, domain, "nf")
