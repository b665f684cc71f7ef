"""The mode calculus: normal ordering of generator modes, and v_n w for
arbitrary states v, w.

Every algebra here (the affine PBW module, the W-algebra spanned by the
normal-form words, the highest-weight modules over those words) is a
NormalOrdering: words are sequences of (generator, mode) factors in PBW
order, and ``apply_gen(g, t, word)`` normal-orders the mode g_t into a word
with one memoised recursion.  A mode that creates and sorts first is
prepended; otherwise it is moved past the first factor and the bracket of
the two is added.  A subclass supplies gen_weight and three hooks:

* ``top_mode(g)``: the largest creating mode of g (-1 over a vacuum);
* ``ground(g, t)``: the scalar of a non-creating mode on the empty word (0:
  the vacuum kills it; a highest-weight zero mode acts by its eigenvalue);
* ``bracket(g, t, bg, bm, rest)``: the state [g_t, bg_bm] . rest.

Inside the engine every monomial and word is a code: a byte string with
two bytes (g, t + 128) per factor, made by ``encode`` and read back by
``decode``.  A code hashes once per object and compares by memcmp, and
codes sort exactly as the tuples do, so pivot orders and outputs are those
of the tuples; ``encode`` raises ValueError on a mode outside [-128, 127].
The engine is apply_gen and its memo (keyed by the code of the word
g_t mono, which is also the image of a prepended mode), the targets, their
results and derived targets, word_memo, word_apply and raw_modes, and the
brackets of the algebras.  Everywhere else monomials are tuples:
``as_target``, ``raw_modes`` and ``apply_modes`` encode on entry and decode
what they return, and element_modes goes through them.

On top of apply_gen, word_apply peels the leftmost creation factor of each
word of v with the iterate formula

    (a(-m) u)_n = sum_i (-1)^i C(-m, i) ( a(-m-i) u_{n+i} - (-1)^m u_{-m+n-i} a(i) ),

bottoming out at the ground state (1_n = delta_{n,-1}).  Both infinite sums
truncate by weight; the truncation bound is verified by evaluating one extra
term and checking that it vanishes.  For a single-factor word a(-m) the
rest u is the vacuum, whose mode 1_k is nonzero at k = -1 only, so branch 1
visits i = -1-n and branch 2 visits i = -m+n+1 alone; both truncation
checks still run on every (word, n) that is not yet in the target's
results.  Branch 1 and the
derived states read the apply_gen memo directly and add its images in
place, so a memo hit costs one dict lookup and no call.

The formula runs on a whole target state w, a ``Target``, not on one of its
monomials: the target keeps its (word, n) results and its derived targets
a(i) w, so the second branch derives a(i) w once per target and a
cancellation over the whole state (h(i) W = 0 for a commutant state W) ends
that branch at once.  element_modes runs all the modes n of one product
v_n w on one target, which shares its derived targets across the modes.  A
single-monomial target {mono: 1} is kept on the algebra in ``word_memo``
(the brackets of the table-driven algebras act on those, and on the vacuum);
any other target lives as long as its caller holds it: one call, or, for
the products W^x_n W^y of a ``Session``, one column y of the product table,
whose target is shared by every x of the column.

The PBW memo tables and targets hold integers: plain ints at an integer
level, and ints and ``scalars.IntPoly`` integer polynomials in k over Q(k)
(the affine central term uses the integer level, or the polynomial k).
The core, raw_modes, runs on these raws: its v and w are the raws of
``linalg.clear_vector`` pairs (raws, factor), and its outputs are raws, so
its inner loops add and multiply integers with plain operators.
element_modes is clear_vector on v and w, then raw_modes, then one
multiplication of each output coefficient by the two clearing factors, in
both domains, and that is where raws become scalars: what element_modes
returns holds domain scalars only (Fractions at a level, RatFuncs over
Q(k)), and nothing downstream settles its outputs again.
``Session.nf_expand`` keeps the image of each normal-form expansion in
V / sum_n h(-n) V as its pair and calls raw_modes on the target of the image
of the word's tail, so no expansion is lifted to scalars and cleared again.
Both session callers apply only the words of a generator whose modes can
leave that ideal (lemmas (A) and (B) in ``walgebra``): the words with an e
or f factor in the raising modes of nf_expand, and the h-free words on the
commutant targets of the products.

apply_gen returns its memo's values unsettled: raws for the PBW algebra,
and for the table-driven algebras plain ints where the mode only reorders
the word, next to domain scalars where a bracket or an eigenvalue enters.
Outside the engine modes act through ``apply_modes``, which settles these
values by ``domain.scalar`` and so returns domain scalars only.
"""

from __future__ import annotations

from .linalg import clear_vector
from .scalars import comb_z


class TruncationError(AssertionError):
    pass


def encode(mono):
    """The code of a monomial or word: two bytes (g, t + 128) per factor.
    Codes sort as the tuples do; a mode outside [-128, 127] raises
    ValueError."""
    return bytes([x for g, t in mono for x in (g, t + 128)])


def decode(code):
    """The tuple ((g, t), ...) of a code."""
    return tuple(zip(code[::2], [b - 128 for b in code[1::2]]))


def decode_state(state):
    """A state keyed by codes, keyed by tuples."""
    return {decode(m): c for m, c in state.items()}


def add_into(acc, state, coeff=1):
    """acc += coeff * state in place, dropping zero coefficients."""
    if not coeff:
        return acc
    for m, c in state.items():
        s = acc.get(m, 0) + coeff * c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def word_weight(alg, word):
    """The weight of a word code: gen_weight(g) - t - 1 per factor."""
    return sum(map(alg.gen_weight, word[::2])) + 127 * (len(word) // 2) - sum(word[1::2])


class NormalOrdering:
    """Memoised normal ordering of one generator mode into a word code;
    apply_gen returns unsettled values (see the module docstring)."""

    def __init__(self):
        self._gen_memo = {}  # code of the word g_t mono -> g_t . mono
        self.word_memo = {}  # monomial code -> its single-monomial Target

    def top_mode(self, g):
        return -1

    def ground(self, g, t):
        return 0

    def mono_weight(self, mono):
        return word_weight(self, mono)

    def apply_gen(self, g, t, mono):
        """Normal-ordered state g_t . mono, for a monomial code."""
        key = bytes((g, t + 128)) + mono
        hit = self._gen_memo.get(key)
        if hit is not None:
            return hit
        if t <= self.top_mode(g) and (not mono or key[:2] <= mono[:2]):
            out = {key: 1}
        elif not mono:
            ev = self.ground(g, t)
            out = {b"": ev} if ev else {}
        else:
            bg, bm = mono[0], mono[1] - 128
            rest = mono[2:]
            out = {}
            for m2, c2 in self.apply_gen(g, t, rest).items():
                add_into(out, self.apply_gen(bg, bm, m2), c2)
            add_into(out, self.bracket(g, t, bg, bm, rest))
        self._gen_memo[key] = out
        return out


class Target:
    """A nonzero state w, keyed by codes, that words act on: its (word, n)
    results and its derived targets a(i) . w, kept as long as the target
    is."""

    __slots__ = ("state", "weight", "results", "derived")

    def __init__(self, alg, state):
        self.state = state
        # the largest weight bounds both sums for an inhomogeneous state too
        self.weight = max(alg.mono_weight(m) for m in state)
        self.results = {}  # (word code, n) -> state
        self.derived = {}  # code of the mode g_i -> _target of g_i . state


def _label(w):
    """A target in a truncation error: its monomial when it has one, its
    state otherwise, decoded."""
    if len(w.state) == 1:
        return decode(next(iter(w.state)))
    return decode_state(w.state)


def mono_target(alg, mono):
    """The target {mono: 1} of a monomial code, kept in alg.word_memo."""
    tgt = alg.word_memo.get(mono)
    if tgt is None:
        tgt = alg.word_memo[mono] = Target(alg, {mono: 1})
    return tgt


def _target(alg, state):
    """(c, target) with state == c * target.state for a state keyed by
    codes, or None for the zero state.  A single monomial gets its kept
    target; any other state gets a new one, which lives as long as its
    caller holds it."""
    if not state:
        return None
    if len(state) == 1:
        (mono, c), = state.items()
        return c, mono_target(alg, mono)
    return 1, Target(alg, state)


def as_target(alg, state):
    """_target of a state keyed by tuples, encoded on entry."""
    return _target(alg, {encode(m): c for m, c in state.items()})


_MISSING = object()


def _derived(alg, w, g, i):
    """_target of the state a(i) . w for the generator a = g, with the
    images read from the apply_gen memo and added in place."""
    head = bytes((g, i + 128))
    hit = w.derived.get(head, _MISSING)
    if hit is not _MISSING:
        return hit
    memo = alg._gen_memo
    state = {}
    for m, c in w.state.items():
        img = memo.get(head + m)
        if img is None:
            img = alg.apply_gen(g, i, m)
        for m2, c2 in img.items():
            s = state.get(m2, 0) + c * c2
            if s:
                state[m2] = s
            else:
                state.pop(m2, None)
    out = w.derived[head] = _target(alg, state)
    return out


def word_apply(alg, word, n, w):
    """State (word . vacuum)_n applied to the target w (a Target, or a
    monomial code standing for its kept target), for a word code."""
    if not isinstance(w, Target):
        w = mono_target(alg, w)
    if not word:
        return w.state if n == -1 else {}
    key = (word, n)
    hit = w.results.get(key)
    if hit is not None:
        return hit
    g, t = word[0], word[1] - 128
    rest = word[2:]
    memo = alg._gen_memo
    out = {}
    # branch 1: a(-m-i) (u_{n+i} w); u_{n+i} w dies once its weight drops
    # below the module floor.  The vacuum's modes leave only i = -1-n.
    imax1 = word_weight(alg, rest) + w.weight - n - 1
    if rest:
        subs = ((i, word_apply(alg, rest, n + i, w)) for i in range(imax1 + 1))
    else:
        subs = ((-1 - n, w.state),) if 0 <= -1 - n <= imax1 else ()
    for i, sub in subs:
        coef = comb_z(t, i) if i % 2 == 0 else -comb_z(t, i)
        if not sub or not coef:
            continue
        head = bytes((g, t - i + 128))
        for m2, c2 in sub.items():
            img = memo.get(head + m2)
            if img is None:
                img = alg.apply_gen(g, t - i, m2)
            cc = coef * c2
            for m, c in img.items():
                s = out.get(m, 0) + cc * c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
    if imax1 >= -1 and word_apply(alg, rest, n + imax1 + 1, w):
        raise TruncationError(
            f"branch-1 truncation bound violated at word={decode(word)!r}, n={n}, mono={_label(w)!r}"
        )
    # branch 2: -(-1)^m u_{-m+n-i} (a(i) w), with a(i) w derived once per
    # target: a whole-state cancellation such as h(i) W = 0 ends it here.
    # The vacuum's modes leave only i = -m+n+1.
    sign_m = -1 if t % 2 else 1
    imax2 = alg.gen_weight(g) + w.weight - 1
    if rest:
        steps = range(imax2 + 1)
    else:
        steps = (t + n + 1,) if 0 <= t + n + 1 <= imax2 else ()
    for i in steps:
        gw = _derived(alg, w, g, i)
        if gw is None:
            continue
        coef = comb_z(t, i) if i % 2 == 0 else -comb_z(t, i)
        add_into(out, word_apply(alg, rest, t + n - i, gw[1]), -sign_m * coef * gw[0])
    if imax2 >= -1 and _derived(alg, w, g, imax2 + 1) is not None:
        raise TruncationError(
            f"branch-2 truncation bound violated at word={decode(word)!r}, n={n}, mono={_label(w)!r}"
        )
    w.results[key] = out
    return out


def raw_modes(alg, raws_v, ns, tw):
    """{n: v_n w for n in ns} on carrier raws, all modes run on one target:
    v (word -> raw) holds the raws of a clear_vector pair, tw is
    ``as_target`` of the raws of w (None for w = 0), and each output holds
    raws too, not reduced by their content.  The words of v are encoded on
    entry and the outputs decoded.  The core of element_modes;
    Session.nf_expand calls it on the target of the image of a word's tail,
    and Session._column on the target of one column of the product table."""
    if tw is None:
        return {n: {} for n in ns}
    cw, target = tw
    words = [(encode(word), cv * cw) for word, cv in raws_v.items() if cv]
    outs = {}
    for n in ns:
        out = {}
        for word, c in words:
            add_into(out, word_apply(alg, word, n, target), c)
        outs[n] = decode_state(out)
    return outs


def element_modes(alg, elem, ns, state):
    """{n: v_n w for n in ns} for an element dict v (word -> coeff) and a
    state dict w: clear both, raw_modes, lift.

    The coefficients of v and w are cleared on entry by clear_vector, so
    the target holds ints (or IntPolys over Q(k)), and each output
    coefficient is multiplied once by the product of the two clearing
    factors, a domain scalar.  Every output coefficient is therefore a
    domain scalar, a Fraction at a level and a RatFunc over Q(k), and no
    raw int or IntPoly leaves; callers use the outputs as they are."""
    raws_v, fv = clear_vector(alg.domain, elem)
    raws_w, fw = clear_vector(alg.domain, state)
    factor = fv * fw
    tw = as_target(alg, {m: c for m, c in raws_w.items() if c})
    return {
        n: {m: factor * c for m, c in out.items()}
        for n, out in raw_modes(alg, raws_v, ns, tw).items()
    }


def element_mode(alg, elem, n, state):
    """v_n w: the one-mode view of element_modes."""
    return element_modes(alg, elem, (n,), state)[n]


def apply_modes(alg, word, state):
    """g1_t1 ... gr_tr . state for a word ((g1, t1), ...) of generator modes
    and a tuple-keyed state, rightmost mode first, by apply_gen; each value
    is settled by ``domain.scalar`` as it is decoded."""
    cur = {encode(m): c for m, c in state.items()}
    for g, t in reversed(word):
        nxt = {}
        for m, c in cur.items():
            add_into(nxt, alg.apply_gen(g, t, m), c)
        cur = nxt
    scalar = alg.domain.scalar
    return {decode(m): scalar(c) for m, c in cur.items()}
