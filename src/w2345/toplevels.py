"""Top-level eigenvalues of the zero modes on the irreducible modules.

Two independent routes: closed-form evaluation of the eigenvalue polynomials
in (k, i-2j, (i-j+1)j, ...), and a brute-force oracle that acts with the
reversed zero-mode words of the defining PBW states on the (i+1)-dimensional
sl2 module spanned by the top vectors.  The level-6 descendant system is
evaluated on an abstract highest-weight module driven purely by the product
table.  The oracle and the descendant analysis take the caller's level
Session, so its states and product table are built once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import exprs, modes, reference
from .linalg import NotInSpanError, SpanSolver
from .scalars import domain as make_domain
from .walgebra import NF_GEN_WEIGHTS, HWModule, nf_element_weight


@functools.cache
def _eigen_polys(kval):
    """The four eigenvalue polynomials in (m, p, q) at the level, parsed once."""
    dom = make_domain(kval)
    return tuple(
        exprs.parse_multipoly(text, ("m", "p", "q"), dom)
        for text in (
            reference.EIG_OMEGA_TEXT,
            reference.EIG_W3_TEXT,
            reference.EIG_W4_TEXT,
            reference.EIG_W5_TEXT,
        )
    )


def eigenvalues_closed_form(kval, i, j):
    """Quartet (a2, a3, a4, a5) on the top vector indexed (i, j)."""
    if not (0 <= j <= i <= kval):
        raise ValueError("need 0 <= j <= i <= k")
    point = (i - 2 * j, (i - j + 1) * j, (i - j + 1) * (i - j + 2) * (j - 1) * j)
    return tuple(Fraction(poly.evaluate(point)) for poly in _eigen_polys(kval))


def _zero_mode_word_action(mono, vec, i):
    """Apply o(word) = (-1)^(sum m - r) a^r(0) ... a^1(0) to a top vector.

    vec is a list of ints over v^{i,0..i}: the zero modes of h, e and f act
    by integers.  Generator ids follow pbw.  The word's leftmost factor
    contributes the innermost zero mode."""
    out = list(vec)
    sign = 1
    for g, t in mono:
        sign *= (-1) ** (-t - 1)
        new = [0] * (i + 1)
        if g == 0:  # h(0): eigenvalue i - 2j
            for j, c in enumerate(out):
                if c:
                    new[j] = c * (i - 2 * j)
        elif g == 1:  # e(0): v^{i,j} -> (i-j+1) v^{i,j-1}
            for j, c in enumerate(out):
                if c and j >= 1:
                    new[j - 1] += c * (i - j + 1)
        else:  # f(0): v^{i,j} -> (j+1) v^{i,j+1}
            for j, c in enumerate(out):
                if c and j < i:
                    new[j + 1] += c * (j + 1)
        out = new
    if sign < 0:
        out = [-c for c in out]
    return out


def eigenvalues_oracle(ses, i, j):
    """Independent evaluation by zero-mode words of the defining states of
    the level session."""
    if not (0 <= j <= i <= ses.level):
        raise ValueError("need 0 <= j <= i <= k")
    states = [ses.conformal()[2], *ses.primaries()]
    base = [0] * (i + 1)
    base[j] = 1
    quartet = []
    for st in states:
        acc = [Fraction(0)] * (i + 1)
        for mono, c in st.items():
            hit = _zero_mode_word_action(mono, base, i)
            for idx in range(i + 1):
                if hit[idx]:
                    acc[idx] += c * hit[idx]
        for idx in range(i + 1):
            if idx != j and acc[idx]:
                raise AssertionError("top vector is not an eigenvector")
        quartet.append(acc[j])
    return tuple(quartet)


def quartet_table(kval):
    """Quartets on the k(k+1)/2 module top vectors (1 <= i <= k, 0 <= j < i)."""
    if not 2 <= kval <= 6:
        raise ValueError("level must be 2..6")
    return {
        (i, j): eigenvalues_closed_form(kval, i, j)
        for i in range(1, kval + 1)
        for j in range(0, i)
    }


def quartets_distinct(table):
    vals = list(table.values())
    return len(set(vals)) == len(vals)


def pairs_distinct(table):
    vals = [(q[0], q[1]) for q in table.values()]
    return len(set(vals)) == len(vals)


def a2_set(table):
    return {q[0] for q in table.values()}


def symmetry_check(kval):
    """a2/a4 invariant and a3/a5 negated under j -> i-j, full sweep."""
    for i in range(0, kval + 1):
        for j in range(0, i + 1):
            a = eigenvalues_closed_form(kval, i, j)
            b = eigenvalues_closed_form(kval, i, i - j)
            if a[0] != b[0] or a[2] != b[2] or a[1] != -b[1] or a[3] != -b[3]:
                return False
    return True


def no_integer_differences(values):
    vals = sorted(set(values))
    for a in vals:
        for b in vals:
            if a != b and (a - b).denominator == 1:
                return False
    return True


def descendant_matrix(ses, hw):
    """Matrix of the raising conditions on c1 L(-1)u + c2 W3(-1)u
    + c3 W4(-1)u + c4 W5(-1)u over a highest-weight vector with the given
    zero-mode quartet, in the level session; rows are L(1), W3(1), W4(1),
    W5(1)."""
    mod = HWModule(ses.walg(), [Fraction(x) for x in hw])
    dom = ses.domain
    cols = []
    for s in range(4):
        vec = {((s, NF_GEN_WEIGHTS[s] - 2),): 1}
        col = []
        for p in range(4):
            res = modes.apply_modes(mod, ((p, NF_GEN_WEIGHTS[p]),), vec)
            if set(res) - {()}:
                raise AssertionError("raising a weight-(h+1) vector left the top")
            col.append(res.get((), dom.zero))
        cols.append(col)
    return [[cols[s][p] for s in range(4)] for p in range(4)]


def descendant_relations(ses, hw, null_elements):
    """Images of the vanishing elements' modes on the weight-(h+1) layer.

    Every element of the simple algebra's kernel acts by zero on its
    modules, so the mode carrying the top vector into the layer spanned by
    L(-1)u, W3(-1)u, W4(-1)u, W5(-1)u yields a linear relation among those
    four descendants.  Returns one coordinate vector per element."""
    mod = HWModule(ses.walg(), [Fraction(x) for x in hw])
    layer = [((s, NF_GEN_WEIGHTS[s] - 2),) for s in range(4)]
    out = []
    for elem in null_elements:
        wt = nf_element_weight(elem, ses.domain)
        img = modes.element_mode(mod, elem, wt - 2, {(): 1})
        vec = [Fraction(0)] * 4
        for mono, c in img.items():
            if mono == ():
                if c:
                    raise AssertionError("relation image has a top component")
                continue
            vec[layer.index(mono)] += c
        out.append(vec)
    return out


def _sparse(entries):
    """The sparse vector index -> entry of a sequence, zeros dropped."""
    return {i: x for i, x in enumerate(entries) if x}


def descendant_analysis(ses, hw, null_elements, ref_rows):
    """The full weight-(h+1) singular-vector analysis.

    Returns a dict with: the raising matrix, the relation span dimension,
    whether the matrix kernel equals the relation span (hence the honest
    layer carries no singular vector iff the combined system is full), the
    rank of the combined raising+relation system, and for each reference row
    the scalar alpha with row = alpha * (raising row) + relation combination
    (alpha must be nonzero for the projective match modulo relations, and
    is None when the row is outside the span)."""
    dom = ses.domain
    mat = descendant_matrix(ses, hw)
    rels = descendant_relations(ses, hw, null_elements)
    # the kernel of the raising matrix: the relations among its columns
    columns = SpanSolver(dom)
    for s in range(4):
        columns.insert(_sparse(row[s] for row in mat))
    kern = columns.relations.values()
    span = SpanSolver(dom)
    for v in rels:
        span.insert(_sparse(v))
    relation_rank = span.rank
    kernel_in_relations = all(not span.probe(v)[0] for v in kern)
    # the combined raising + relation system
    for row in mat:
        span.insert(_sparse(row))
    alphas = []
    for p, ref in enumerate(ref_rows):
        # alpha is the coordinate on mat[p], so it goes in first
        solver = SpanSolver(dom)
        solver.insert(_sparse(mat[p]))
        for v in rels:
            solver.insert(_sparse(v))
        try:
            coords = solver.express(_sparse(Fraction(x) for x in ref))
            alphas.append(coords.get(0, Fraction(0)))
        except NotInSpanError:
            alphas.append(None)
    return {
        "matrix": mat,
        "relations": rels,
        "relation_rank": relation_rank,
        "kernel_dim": len(kern),
        "kernel_in_relations": kernel_in_relations,
        "combined_rank": span.rank,
        "alphas": alphas,
    }
