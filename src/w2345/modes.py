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
"""

from __future__ import annotations

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
            del acc[m]
    return acc


class NormalOrdering:
    """Memoised normal ordering of one generator mode into a word."""

    def __init__(self):
        self._gen_memo = {}
        self.word_memo = {}

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


def word_apply(alg, word, n, wmono):
    """State (word . vacuum)_n applied to a single target monomial."""
    key = (word, n, wmono)
    memo = alg.word_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not word:
        out = {wmono: 1} if n == -1 else {}
        memo[key] = out
        return out
    g, t = word[0]
    rest = word[1:]
    wt_rest = word_weight(alg, rest)
    wt_w = alg.mono_weight(wmono)
    out = {}
    # branch 1: a(-m-i) (u_{n+i} w); u_{n+i} w dies once its weight drops
    # below the module floor.
    imax1 = wt_rest + wt_w - n - 1
    for i in range(imax1 + 1):
        sub = word_apply(alg, rest, n + i, wmono)
        if not sub:
            continue
        coef = comb_z(t, i) if i % 2 == 0 else -comb_z(t, i)
        for m2, c2 in sub.items():
            add_into(out, alg.apply_gen(g, t - i, m2), coef * c2)
    if imax1 >= -1 and word_apply(alg, rest, n + imax1 + 1, wmono):
        raise TruncationError(
            f"branch-1 truncation bound violated at word={word!r}, n={n}, mono={wmono!r}"
        )
    # branch 2: -(-1)^m u_{-m+n-i} (a(i) w)
    sign_m = -1 if t % 2 else 1
    imax2 = alg.gen_weight(g) + wt_w - 1
    for i in range(imax2 + 1):
        gw = alg.apply_gen(g, i, wmono)
        if not gw:
            continue
        coef = comb_z(t, i) if i % 2 == 0 else -comb_z(t, i)
        coef = -sign_m * coef
        for m2, c2 in gw.items():
            add_into(out, word_apply(alg, rest, t + n - i, m2), coef * c2)
    if imax2 >= -1 and alg.apply_gen(g, imax2 + 1, wmono):
        raise TruncationError(
            f"branch-2 truncation bound violated at word={word!r}, n={n}, mono={wmono!r}"
        )
    memo[key] = out
    return out


def element_mode(alg, elem, n, state):
    """v_n w for an element dict v (word -> coeff) and a state dict w."""
    out = {}
    for word, cv in elem.items():
        for wmono, cw in state.items():
            c = cv * cw
            if c:
                add_into(out, word_apply(alg, word, n, wmono), c)
    return out


def mode_power_apply(alg, v, n, r, w):
    """(v_n)^r w by iterated application."""
    if r < 0:
        raise ValueError("power must be nonnegative")
    out = w
    for _ in range(r):
        out = element_mode(alg, v, n, out)
    return out
