"""The commutant W(2,3,4,5) machinery.

Builds the conformal vectors and the weight-3/4/5 primaries inside the
commutant of the Heisenberg modes, enumerates and expands normal-form words
in the four generators, expresses states against the normal-form basis with
the canonical eliminations, computes the full generator product (OPE) table,
and extracts the null fields.

The automorphism theta (h -> -h, e <-> f) fixes omega and W4 and negates W3
and W5, so the expansion of every normal-form word is a theta eigenvector
with eigenvalue ``nf_parity(word)``, and words of opposite parity are
independent.  Each session certifies this exactly before its first
expansion: ``pbw.theta`` must map each generator state to its parity times
itself.  The normal-form bases are then keyed by (weight, parity) and built
only when asked.  One span per sector gives both the basis and the null
fields: the free words of the sector go in first and its ``ELIMINATED``
table words after them, so every eliminated word (a table word, or at
weight 10 a free word found dependent) gets its relation from that span,
and a table word that comes out independent fails the build.  Every
``express`` call names its sector; a state of the other parity, or of both,
is not in that span.

The spans work on images, not on whole PBW states.  Every generator lies in
the commutant K = {v : h(j) v = 0 for all j >= 0} of the Heisenberg algebra,
and each session certifies this exactly next to theta, before its first
expansion: h(j) must annihilate each generator state for 0 <= j <= its
weight.  For k != 0 the module is V = M_h(1) (x) K (Frenkel-Lepowsky-Meurman,
Vertex Operator Algebras and the Monster, Thm 1.7.3), so the quotient map
pi: V -> V / I, I = sum_{n >= 1} h(-n) V, is injective on K; in the PBW
basis pi drops the h-led monomials (``pbw.h_free``).  The modes of a
commutant state commute with every h(-n), so they map I into I, and
pi(W_t v) = pi(W_t pi(v)).  Every expansion and every product is a commutant
state, so a relation, a coordinate vector or a zero test holds on the images
exactly when it holds on the full states.  theta maps I onto itself, so the
images keep the parity of their states.  Every session has k != 0: omega
already divides by 4k.  The public ``express`` takes a full state: it checks
exactly that the state is in the commutant, else it is outside the span,
and then solves on its image.

At an integer level the normal-form basis is an integer ``SpanSolver``.
Over Q(k) it is a ``linalg.GenericSpan``: the same integer elimination at
the levels k = 7, 8, ..., rational reconstruction of the coordinates, and an
exact certificate over Q(k) of every relation and every expressed state.
Expanding a normal-form element back to images uses the certificate's exact
sum, at a level and over Q(k) alike.

The mode calculus skips the words of a generator whose modes only reach I.
Both lemmas read off the iterate formula of ``modes``,

    (h(-m) u')_n w = sum_{i >= 0} (-1)^i C(-m, i) ( h(-m-i) u'_{n+i} w
                                                  - (-1)^m u'_{-m+n-i} h(i) w ),

for an h-led word u = h(-m) u', m >= 1.  Branch 1 lies in h(-m-i) V, inside
I; in the PBW basis h(-j) maps each monomial to one h-led monomial.

(A) A pure-h word u (every factor h) in a raising mode n, wt(u) - n - 1 > 0,
    maps every state w into I.  By induction on the length of u: the empty
    word is the vacuum, whose modes 1_n = delta_{n,-1} raise nothing, so a
    raising one is 0.  For u = h(-m) u', branch 1 lies in I, and each term
    of branch 2 is u'_{-m+n-i} applied to h(i) w, where u' is pure h and
    wt(u') - (-m+n-i) - 1 = wt(u) - n - 1 + i > 0, so it is raising and
    lies in I by induction.  The head mode t <= -1 of a normal-form word
    raises by weight(g) - t - 1 >= 2, so ``nf_expand`` applies only the
    generator's words with an e or f factor, to any target (the image of
    the tail is no commutant state).  That skips 2 of the 3 words of omega,
    3 of 6 of W3, 5 of 13 of W4 and 7 of 24 of W5.
(B) An h-led word u, in any mode n, maps a commutant state y into I: branch 1
    lies in I, and branch 2 carries h(i) y = 0 for i >= 0; one step of the
    formula, no induction.  So ``_column`` applies only the h-free words
    of x (PBW order puts the h factors first, so these have no h factor at
    all) to the full state of the generator y.  This rests on the generator
    certificate: ``_column`` runs ``_certify_generators`` first, and the
    truncation checks of ``modes.word_apply`` stay on every word it applies.
    One column y of the product table makes one target of y for all its x
    and lets go of it before any product is solved.

Each image pi(E(word)) of a normal-form expansion is computed once and kept
as its ``linalg.clear_vector`` pair (raws, factor): ``modes.raw_modes``
applies the generator's words of lemma (A) to the target of the tail's
image, the h-led monomials of the result are dropped, and the pairs go as
they are into the span (``SpanSolver.insert`` at a level, ``GenericSpan``
over Q(k)) and into ``exact_sum``.  No expansion is lifted to domain scalars
and cleared again.
"""

from __future__ import annotations

import functools

from . import exprs, modes, pbw, reference
from .linalg import GenericSpan, NotInSpanError, SpanSolver, carrier_for, clear_vector, exact_sum
from .modes import NormalOrdering, add_into, apply_modes, as_target, element_modes, raw_modes
from .scalars import comb_z, domain as make_domain

GW, G3, G4, G5 = 0, 1, 2, 3
NF_GEN_WEIGHTS = (2, 3, 4, 5)

# Monomials removed from the normal-form spanning set so that the remainder
# is a basis; each goes into the span of its own theta sector after that
# sector's free words.  Weight 10 lists the even-sector choices; the odd
# sector at weight 10 is resolved greedily in canonical order.
ELIMINATED = {
    8: (
        ((G3, -2), (G3, -2)),
        ((G3, -1), (G4, -2)),
    ),
    9: (
        ((G3, -3), (G3, -2)),
        ((G3, -2), (G4, -2)),
        ((G3, -1), (G4, -3)),
        ((G3, -1), (G5, -2)),
    ),
    10: (
        ((GW, -1), (G3, -2), (G3, -2)),
        ((G3, -3), (G3, -3)),
        ((G4, -2), (G4, -2)),
        ((G3, -2), (G5, -2)),
        ((G3, -1), (G5, -3)),
    ),
}


def nf_weight(mono):
    return sum(NF_GEN_WEIGHTS[g] - t - 1 for g, t in mono)


def nf_element_weight(elem, domain):
    """The weight of a nonzero weight-homogeneous normal-form element; a
    ValueError naming the element when it is zero or mixes weights."""
    weights = {nf_weight(m) for m in elem}
    if len(weights) != 1:
        raise ValueError(
            f"{exprs.format_nf(elem, domain)} is not a nonzero homogeneous element"
            f" (weights {sorted(weights)})"
        )
    return weights.pop()


def nf_parity(mono):
    """Theta eigenvalue (-1)^(q+s) of a normal-form monomial."""
    odd = sum(1 for g, _ in mono if g in (G3, G5))
    return -1 if odd % 2 else 1


def enumerate_nf(d):
    """All normal-form monomials of weight d, canonically sorted."""
    return pbw.enumerate_words(NF_GEN_WEIGHTS, d)


class WAlgebra(NormalOrdering):
    """Abstract algebra on normal-form words, driven by the product table."""

    def __init__(self, dom, table):
        super().__init__()
        self.domain = dom
        # (x, y, i) -> the words of the element x_i y for x <= y, encoded once
        self.table = {
            key: [(modes.encode(word), c) for word, c in elem.items()] for key, elem in table.items() if elem
        }

    def gen_weight(self, g):
        return NF_GEN_WEIGHTS[g]

    def bracket(self, g, t, b, s, rest):
        """[g_t, b_s] applied to the monomial rest, modes expanded from the
        product table through the commutator formula
        [u_m, v_n] = sum_i C(m, i) (u_i v)_{m+n-i}.

        Each word of a table entry u_i v acts on the code rest through
        ``modes.word_apply`` directly, on the target of rest kept in
        ``word_memo``; the entry's domain scalars multiply the results."""
        out = {}
        if g <= b:
            x, y, tm, sign = g, b, t, 1
        else:
            x, y, tm, sign = b, g, s, -1
        for i in range(NF_GEN_WEIGHTS[x] + NF_GEN_WEIGHTS[y]):
            prod = self.table.get((x, y, i))
            if not prod:
                continue
            c = comb_z(tm, i) * sign
            if c:
                for word, coef in prod:
                    add_into(out, modes.word_apply(self, word, t + s - i, rest), c * coef)
        return out


class HWModule(WAlgebra):
    """Abstract highest-weight module over the W-algebra words.

    The ground vector is annihilated by every weight-lowering mode, carries
    the given eigenvalues under the zero modes L(0), W3(0), W4(0), W5(0),
    and is extended freely by the creation modes.
    """

    def __init__(self, walg, eigenvalues):
        NormalOrdering.__init__(self)
        self.domain = walg.domain
        self.table = walg.table  # shares the encoded words
        self.eigen = tuple(eigenvalues)  # indexed by generator id

    def top_mode(self, g):
        return NF_GEN_WEIGHTS[g] - 2

    def ground(self, g, t):
        return self.eigen[g] if t == NF_GEN_WEIGHTS[g] - 1 else 0


class _NFBasis:
    __slots__ = ("monos", "solver", "idx2mono", "rank", "relations")

    def __init__(self, monos, solver, idx2mono, relations):
        self.monos = monos
        self.solver = solver
        self.idx2mono = idx2mono
        self.rank = len(idx2mono)
        self.relations = relations  # eliminated word -> its null relation, 1 on it


def keep(build):
    """Keep build(owner, *args) in ``owner.kept``, the one table of the
    results of its owner, a session or a report context:
    ``owner.kept[build name][args]``, built on first use.  A build that
    raises keeps nothing, so the next call builds again."""
    name = build.__name__

    @functools.wraps(build)
    def kept(owner, *args):
        table = owner.kept.setdefault(name, {})
        if args not in table:
            table[args] = build(owner, *args)
        return table[args]

    return kept


class Session:
    """One computation session: fixed scalar mode plus its kept results."""

    def __init__(self, level=None):
        self.domain = make_domain(level)
        self.level = level
        self.pbw = pbw.PBWAlgebra(self.domain)
        self.kept = {}  # builder name -> {argument tuple: result}, see keep

    # -- generators ----------------------------------------------------------

    @keep
    def conformal(self):
        """(omega_aff, omega_gamma, omega) as PBW states."""
        dom = self.domain
        k = dom.k
        c_aff = dom.one / (2 * (k + 2))
        w_aff = {
            ((pbw.H, -2),): -c_aff,
            ((pbw.H, -1), (pbw.H, -1)): c_aff / 2,
            ((pbw.E, -1), (pbw.F, -1)): 2 * c_aff,
        }
        w_gam = {((pbw.H, -1), (pbw.H, -1)): dom.one / (4 * k)}
        omega = dict(w_aff)
        add_into(omega, w_gam, -1)
        return w_aff, w_gam, omega

    @keep
    def generators(self):
        """(omega, W3, W4, W5) as PBW states, indexed by generator id."""
        texts = (reference.W3_TEXT, reference.W4_TEXT, reference.W5_TEXT)
        return (self.conformal()[2], *(exprs.parse_pbw(t, self.domain) for t in texts))

    def primaries(self):
        """The weight 3, 4, 5 primary generators as PBW states."""
        return self.generators()[1:]

    def generator_state(self, g):
        """PBW state of generator id (0=omega, 1..3 = W3..W5)."""
        return self.generators()[g]

    # -- commutant -----------------------------------------------------------

    def commutant_weight_space(self, d):
        """Basis of {v of weight d : h(m) v = 0 for m >= 0}, built once per
        session; callers must not mutate its states."""
        return list(self._commutant_basis(d))

    @keep
    def _commutant_basis(self, d):
        monos = pbw.enumerate_monomials(d, h0=0)
        cols = [
            {
                (m, m2): c
                for m in range(0, d + 1)
                for m2, c in apply_modes(self.pbw, ((pbw.H, m),), {mono: 1}).items()
            }
            for mono in monos
        ]
        solver = SpanSolver(self.domain)
        for col in cols:
            solver.insert(col)
        return [{monos[i]: c for i, c in rel.items() if c} for rel in solver.relations.values()]

    def find_primary(self, d):
        """The unique primary state of weight d in the commutant, scaled to
        the canonical generator; returns (state, scalar multiple found)."""
        basis = self.commutant_weight_space(d)
        omega = self.conformal()[2]
        cols = [
            {
                (n, m2): c
                for n, img in element_modes(self.pbw, omega, range(2, d + 1), v).items()
                for m2, c in img.items()
            }
            for v in basis
        ]
        solver = SpanSolver(self.domain)
        for col in cols:
            solver.insert(col)
        sols = list(solver.relations.values())
        if len(sols) != 1:
            raise ValueError(
                f"primary space at weight {d} has dimension {len(sols)}, not 1"
            )
        state = {}
        for i, c in sols[0].items():
            add_into(state, basis[i], c)
        ref = self.generator_state(d - 2)
        mono = next(iter(ref))
        if mono not in state:
            raise ValueError(f"weight-{d} primary lacks the generator's monomial {mono}")
        lam = ref[mono] / state[mono]
        scaled = pbw.scale(state, lam)
        if scaled != ref:
            raise ValueError(f"weight-{d} primary is not proportional to the generator")
        return scaled, lam

    # -- normal form ---------------------------------------------------------

    @keep
    def nf_expand(self, mono):
        """The image pi(E(mono)) in V / I of the PBW expansion E(mono) of a
        normal-form monomial, as its clear_vector pair (raws, factor),
        image == factor * raws.  Computed once per session, after the
        generator certificates, by modes.raw_modes of the generator's words
        with an e or f factor (lemma (A): its pure-h words, in the raising
        head mode, only reach I) on the target of the tail's image, with the
        h-led monomials of the result dropped (``pbw.h_free``), and kept so.
        An engine-level value, like clear_vector's; callers must not mutate
        it.  nf_expand_element gives the image in domain scalars."""
        car = carrier_for(self.domain)
        if not mono:
            return {(): car.one}, self.domain.one
        self._certify_generators()
        g, t = mono[0]
        _, f_gen, raising = self._generator_words(g)
        tail, f_tail = self.nf_expand(mono[1:])
        out = pbw.h_free(raw_modes(self.pbw, raising, (t,), as_target(self.pbw, tail))[t])
        raws, content = car.content_reduce(list(out.values()))
        return dict(zip(out, raws)), f_gen * f_tail * car.ratio(content)

    def nf_expand_element(self, elem):
        """The image in V / I of the PBW expansion of a normal-form element,
        summed exactly from the stored pairs by ``linalg.exact_sum``: domain
        scalars, zero entries dropped.  It is zero exactly when the full
        expansion is, since that is a commutant state."""
        return exact_sum(self.domain, [(c, self.nf_expand(m)) for m, c in elem.items()])

    @keep
    def _generator_words(self, g):
        """(raws, factor, raising) of generator g, kept per session: the
        clear_vector pair of its state, and the raws of its words with an e
        or f factor, the only words whose raising modes leave I (lemma (A))."""
        raws, factor = clear_vector(self.domain, self.generator_state(g))
        return raws, factor, {w: c for w, c in raws.items() if any(a != pbw.H for a, _ in w)}

    @keep
    def _certify_generators(self):
        """Check exactly, once per session, that theta maps each generator
        state to ``nf_parity`` times itself and that h(j) annihilates it for
        0 <= j <= its weight.  theta is an automorphism, so then the
        expansion of every normal-form word is a theta eigenvector of the
        word's parity, and the spans of the two sectors are independent.
        The generators lie in the Heisenberg commutant, so every expansion
        and every product does, and the images decide their relations (see
        the module docstring)."""
        for g in range(len(NF_GEN_WEIGHTS)):
            st = self.generator_state(g)
            flipped = pbw.theta(self.pbw, st)
            if flipped != pbw.scale(st, nf_parity(((g, 0),))):
                raise AssertionError(f"theta does not act on generator {g} by its parity")
            j = pbw.commutant_defect(self.pbw, st)
            if j is not None:
                raise AssertionError(f"h({j}) does not annihilate generator {g}")

    @keep
    def _nf_basis(self, d, parity):
        """The normal-form basis of the theta sector ``parity`` (+1 or -1)
        at weight d, built on first use."""
        self._certify_generators()
        monos = [m for m in enumerate_nf(d) if nf_parity(m) == parity]
        fixed = [m for m in ELIMINATED.get(d, ()) if nf_parity(m) == parity]
        words = [m for m in monos if m not in fixed]
        nfree = len(words)
        words += fixed  # last, so each table word is tested against all free words
        pairs = [self.nf_expand(m) for m in words]
        if self.domain.is_generic:
            solver = GenericSpan(pairs)
        else:
            solver = SpanSolver(self.domain)
            for raws, factor in pairs:
                solver.insert(raws, factor)
        rels = solver.relations
        found = sorted(i for i in rels if i < nfree)
        if d <= 9 and found:
            raise AssertionError(f"unexpected dependency at weight {d}: {words[found[0]]}")
        relations = {}
        for i in [*range(nfree, len(words)), *found]:
            rel = rels.get(i)
            if rel is None:
                raise AssertionError(f"eliminated word {words[i]} is independent at weight {d}")
            # the relation is unique: scale it to coefficient 1 on the word
            lam = rel[i]
            relations[words[i]] = {
                words[i]: self.domain.one,
                **{words[j]: c / lam for j, c in rel.items() if j != i},
            }
        idx2mono = {i: m for i, m in enumerate(words) if i not in rels}
        return _NFBasis(monos, solver, idx2mono, relations)

    def express(self, state, parity):
        """Coordinates of a PBW state over the normal-form basis of its
        weight in the theta sector ``parity``; the coefficients may be raw
        ints or domain scalars.

        Raises NotInSpanError when the state is outside the span of that
        sector: when it is not in the Heisenberg commutant (checked exactly,
        h(j) state == 0 for 0 <= j <= its weight), or has the other parity,
        or mixes both.  A commutant state is solved on its image in V / I.
        """
        state = pbw.canonical(self.domain, state)
        if not state:
            return {}
        d = pbw.weight(state)
        if d is None:
            raise ValueError("state is not weight-homogeneous")
        j = pbw.commutant_defect(self.pbw, state)
        if j is not None:
            raise NotInSpanError(f"h({j}) does not annihilate the state: it is outside the span")
        return self._express_image(pbw.h_free(state), d, parity)

    def _express_image(self, image, d, parity):
        """Coordinates of the image of a weight-d commutant state over the
        normal-form basis of the theta sector ``parity``."""
        nb = self._nf_basis(d, parity)
        coords = nb.solver.express(image)
        return {nb.idx2mono[i]: c for i, c in coords.items() if c}

    # -- products ------------------------------------------------------------

    def _column(self, y, xs):
        """{(x, y, n): x_n y over the normal-form basis} for the generator
        ids x in xs and 0 <= n < weight(x) + weight(y), after the generator
        certificate.  Only the h-free words of each x act (lemma (B)), on
        one target of the full state of y that this call makes and lets go
        of before the images of the products, commutant states of weight
        wt - n - 1, are solved in their sector."""
        self._certify_generators()
        raws_y, f_y, _ = self._generator_words(y)
        target = as_target(self.pbw, raws_y)
        images = []
        for x in xs:
            raws_x, f_x, _ = self._generator_words(x)
            wt = NF_GEN_WEIGHTS[x] + NF_GEN_WEIGHTS[y]
            parity = nf_parity(((x, 0), (y, 0)))
            for n, prod in raw_modes(self.pbw, pbw.h_free(raws_x), range(wt), target).items():
                images.append(((x, y, n), f_x * f_y, pbw.h_free(prod), wt - n - 1, parity))
        del target  # it holds the whole column's mode calculus
        return {
            key: self._express_image({m: factor * c for m, c in raws.items()}, d, parity) if raws else {}
            for key, factor, raws, d, parity in images
        }

    @keep
    def structure_constants(self):
        """The product table W^x_n W^y over generator ids x <= y, omega
        included, keyed (x, y, n); built once, one column y at a time."""
        table = {}
        for y in range(len(NF_GEN_WEIGHTS)):
            table.update(self._column(y, range(y + 1)))
        return table

    def ope_table(self):
        """All products W^i_n W^j, 3 <= i <= j <= 5, 0 <= n <= i+j-1: the
        primary rows of ``structure_constants``, keyed (i, j, n)."""
        return {
            (x + 2, y + 2, n): elem
            for (x, y, n), elem in self.structure_constants().items()
            if x != GW
        }

    def ope_entry(self, i, j):
        """{n: W^i_n W^j over the normal-form basis} for 0 <= n <= i+j-1."""
        return {n: elem for (_, _, n), elem in self._column(j - 2, (i - 2,)).items()}

    @keep
    def walg(self):
        """The abstract algebra on normal-form words."""
        return WAlgebra(self.domain, self.structure_constants())

    # -- null fields -----------------------------------------------------------

    def nf_dimensions(self, d):
        """(number of normal-form monomials, rank of their span) at weight d."""
        sectors = [self._nf_basis(d, parity) for parity in (1, -1)]
        return sum(len(nb.monos) for nb in sectors), sum(nb.rank for nb in sectors)

    def null_fields(self, d):
        """Null combinations at weight d, one per eliminated monomial: the
        table words first, then the words the spans found dependent, in
        ``enumerate_nf`` order.

        Each relation comes from the span that builds the normal-form basis
        of its sector, normalized to coefficient 1 on its eliminated
        monomial; the expansion of every returned element is zero.
        """
        rels = {**self._nf_basis(d, 1).relations, **self._nf_basis(d, -1).relations}
        table = ELIMINATED.get(d, ())
        found = [m for m in enumerate_nf(d) if m in rels and m not in table]
        return [rels[m] for m in (*table, *found)]

    def null_field_for(self, mono):
        """The null relation anchored at the given eliminated monomial, with
        coefficient 1 on it; KeyError when no relation is anchored there."""
        rel = self._nf_basis(nf_weight(mono), nf_parity(mono)).relations.get(mono)
        if rel is None:
            raise KeyError(f"no null field anchored at {mono}")
        return rel
