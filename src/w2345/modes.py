"""The mode calculus: normal ordering of generator modes, and v_n w for
arbitrary states v, w.

Every algebra here (the affine PBW module, the W-algebra spanned by the
normal-form words, the highest-weight modules over those words) is a
NormalOrdering: words are tuples of (generator, mode) factors in PBW order,
and ``apply_gen(g, t, word)`` normal-orders the mode g_t into a word with one
memoised recursion.  A mode that creates and sorts first is prepended;
otherwise it is moved past the first factor and the bracket of the two is
added.  A subclass supplies gen_weight/mono_weight and three hooks:

* ``top_mode(g)``: the largest creating mode of g (-1 over a vacuum);
* ``ground(g, t)``: a non-creating mode on the empty word (the vacuum kills
  it; a highest-weight zero mode acts by its eigenvalue);
* ``bracket(g, t, bg, bm, rest)``: the state [g_t, bg_bm] . rest.

On top of apply_gen, word_apply peels the leftmost creation factor of each
word of v with the iterate formula

    (a(-m) u)_n = sum_i (-1)^i C(-m, i) ( a(-m-i) u_{n+i} - (-1)^m u_{-m+n-i} a(i) ),

bottoming out at the ground state (1_n = delta_{n,-1}).  Both infinite sums
truncate by weight; the truncation bound is verified by evaluating one extra
term and checking that it vanishes.

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
Its callers multiply them by domain scalars or settle them
(``pbw.canonical``, ``ZhuC2.c2_reduce``).
"""

from __future__ import annotations

from .linalg import clear_vector
from .scalars import comb_z


class TruncationError(AssertionError):
    pass


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


class NormalOrdering:
    """Memoised normal ordering of one generator mode into a word; apply_gen
    returns unsettled values (see the module docstring)."""

    def __init__(self):
        self._gen_memo = {}
        self.word_memo = {}  # monomial -> its single-monomial Target

    def top_mode(self, g):
        return -1

    def ground(self, g, t):
        return {}

    def apply_gen(self, g, t, mono):
        """Normal-ordered state g_t . mono."""
        key = (g, t, mono)
        hit = self._gen_memo.get(key)
        if hit is not None:
            return hit
        if t <= self.top_mode(g) and (not mono or (g, t) <= mono[0]):
            out = {((g, t),) + mono: 1}
        elif not mono:
            out = self.ground(g, t)
        else:
            bg, bm = mono[0]
            rest = mono[1:]
            out = {}
            for m2, c2 in self.apply_gen(g, t, rest).items():
                add_into(out, self.apply_gen(bg, bm, m2), c2)
            add_into(out, self.bracket(g, t, bg, bm, rest))
        self._gen_memo[key] = out
        return out


def word_weight(alg, word):
    return sum(alg.gen_weight(g) - t - 1 for g, t in word)


class Target:
    """A nonzero state w that words act on: its (word, n) results and its
    derived targets a(i) . w, kept as long as the target is.

    ``label`` names it in truncation errors: the monomial of a
    single-monomial target, the state otherwise."""

    __slots__ = ("state", "label", "weight", "results", "derived")

    def __init__(self, alg, state, label):
        self.state = state
        self.label = label
        # the largest weight bounds both sums for an inhomogeneous state too
        self.weight = max(alg.mono_weight(m) for m in state)
        self.results = {}
        self.derived = {}


def mono_target(alg, mono):
    """The target {mono: 1}, kept in alg.word_memo."""
    tgt = alg.word_memo.get(mono)
    if tgt is None:
        tgt = alg.word_memo[mono] = Target(alg, {mono: 1}, mono)
    return tgt


def as_target(alg, state):
    """(c, target) with state == c * target.state, or None for the zero
    state.  A single monomial gets its kept target; any other state gets a
    new one, which lives as long as its caller holds it."""
    if not state:
        return None
    if len(state) == 1:
        (mono, c), = state.items()
        return c, mono_target(alg, mono)
    return 1, Target(alg, state, state)


def _derived(alg, w, g, i):
    """as_target of the state a(i) . w for the generator a = g."""
    key = (g, i)
    if key not in w.derived:
        state = {}
        for m, c in w.state.items():
            add_into(state, alg.apply_gen(g, i, m), c)
        w.derived[key] = as_target(alg, state)
    return w.derived[key]


def word_apply(alg, word, n, w):
    """State (word . vacuum)_n applied to the target w (a Target, or a
    monomial standing for its kept target)."""
    if not isinstance(w, Target):
        w = mono_target(alg, w)
    if not word:
        return w.state if n == -1 else {}
    key = (word, n)
    hit = w.results.get(key)
    if hit is not None:
        return hit
    g, t = word[0]
    rest = word[1:]
    wt_rest = word_weight(alg, rest)
    out = {}
    # branch 1: a(-m-i) (u_{n+i} w); u_{n+i} w dies once its weight drops
    # below the module floor.
    imax1 = wt_rest + w.weight - n - 1
    for i in range(imax1 + 1):
        sub = word_apply(alg, rest, n + i, w)
        if not sub:
            continue
        coef = comb_z(t, i) if i % 2 == 0 else -comb_z(t, i)
        for m2, c2 in sub.items():
            add_into(out, alg.apply_gen(g, t - i, m2), coef * c2)
    if imax1 >= -1 and word_apply(alg, rest, n + imax1 + 1, w):
        raise TruncationError(
            f"branch-1 truncation bound violated at word={word!r}, n={n}, mono={w.label!r}"
        )
    # branch 2: -(-1)^m u_{-m+n-i} (a(i) w), with a(i) w derived once per
    # target: a whole-state cancellation such as h(i) W = 0 ends it here
    sign_m = -1 if t % 2 else 1
    imax2 = alg.gen_weight(g) + w.weight - 1
    for i in range(imax2 + 1):
        gw = _derived(alg, w, g, i)
        if gw is None:
            continue
        coef = comb_z(t, i) if i % 2 == 0 else -comb_z(t, i)
        add_into(out, word_apply(alg, rest, t + n - i, gw[1]), -sign_m * coef * gw[0])
    if imax2 >= -1 and _derived(alg, w, g, imax2 + 1) is not None:
        raise TruncationError(
            f"branch-2 truncation bound violated at word={word!r}, n={n}, mono={w.label!r}"
        )
    w.results[key] = out
    return out


def raw_modes(alg, raws_v, ns, tw):
    """{n: v_n w for n in ns} on carrier raws, all modes run on one target:
    v (word -> raw) holds the raws of a clear_vector pair, tw is
    ``as_target`` of the raws of w (None for w = 0), and each output holds
    raws too, not reduced by their content.  The core of element_modes;
    Session.nf_expand calls it on the target of the image of a word's tail,
    and Session._column on the target of one column of the product table."""
    if tw is None:
        return {n: {} for n in ns}
    cw, target = tw
    outs = {}
    for n in ns:
        out = {}
        for word, cv in raws_v.items():
            if cv:
                add_into(out, word_apply(alg, word, n, target), cv * cw)
        outs[n] = out
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

