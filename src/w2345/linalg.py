"""Exact linear algebra over the session scalars.

``clear_vector`` turns a sparse vector into its pair (raws, factor): integer
raws reduced by their content (plain ints at a fixed level, ``IntPoly``
polynomials in the generic mode) and a domain scalar, vector == factor *
raws.  The images of the normal-form expansions, their h-free PBW parts,
are kept as such pairs (``Session.nf_expand``), and every consumer below
takes them as they are.

``SpanSolver`` is the incremental engine on sparse states.  Its elimination
is fraction-free: incoming rows are cleared to integer raws, or come in as
the raws of a pair, are combined by cross-multiplication, and re-divided by
their content after every step.  Like ``GenericSpan``, it keeps the
relation of every dependent vector in ``relations``, keyed by insert index.

``GenericSpan`` solves the large systems over Q(k) without eliminating over
rational functions: it takes each vector as its pair, runs the integer
``SpanSolver`` on the values of the raws at several levels, reconstructs
the coordinates over the cleared vectors as rational functions of k,
rescales them by the clearing factors, and certifies each result exactly
over Q(k) before returning it.

``exact_sum`` adds combinations of sparse vectors on the same integer
carriers: the certificate and the null-field checks both use it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import floordiv

from . import scalars as sc
from .scalars import IntPoly, RatFunc, ReconstructionError, SpecializationError


class NotInSpanError(ValueError):
    pass


# ---------------------------------------------------------------------------
# carriers: raw integer-like values per scalar domain
# ---------------------------------------------------------------------------


class _IntCarrier:
    """Rows of plain ints (specialized-level sessions).

    Each carrier's ``clear`` is the clearing routine of the engine vectors,
    through ``clear_vector``: ``element_modes``, ``SpanSolver`` and the
    pairs ``Session.nf_expand`` keeps all start from it.  Polynomial term
    dicts are cleared by ``multipoly.cleared`` instead.  The raws are
    numbers the engines add, negate and multiply with plain operators:
    ints here, ``scalars.IntPoly`` over Q(k).  They become domain scalars
    only when multiplied or divided by a clearing factor."""

    one = 1

    @staticmethod
    def clear(vals):
        """Integerize ints and Fractions to a primitive row; returns (raws,
        factor) with original = factor * raws."""
        den = lcm(*(v.denominator for v in vals))
        out, g = _IntCarrier.content_reduce(
            [v.numerator * (den // v.denominator) for v in vals]
        )
        return out, Fraction(g, den)

    @staticmethod
    def content_reduce(vals):
        """(row divided by its content, content); the same list object and
        content 1 when the content is 1 or the row is zero."""
        g = gcd(*vals)
        if g > 1:
            return [v // g for v in vals], g
        return vals, 1

    gcd2 = staticmethod(gcd)
    divexact = staticmethod(floordiv)
    ratio = staticmethod(Fraction)


class _PolyCarrier:
    """Rows of ``IntPoly`` integer polynomials (generic sessions).

    ``gcd2`` and ``divexact`` may return plain tuples; the engines only
    multiply them into ``IntPoly`` raws."""

    one = IntPoly(sc.IP_ONE)

    @staticmethod
    def clear(vals):
        """Integerize to a primitive row; returns (raws, factor) with
        original = factor * raws."""
        rfs = [sc._as_ratfunc(v) for v in vals]
        den = sc.IP_ONE
        for v in rfs:
            if v.d != sc.IP_ONE:
                den = sc.ip_mul(den, sc.ip_divexact(v.d, sc.ip_gcd(den, v.d)))
        out, g = _PolyCarrier.content_reduce(
            [IntPoly(sc.ip_divexact(den, v.d)) * v.n for v in rfs]
        )
        return out, RatFunc(g, den)

    @staticmethod
    def content_reduce(vals):
        """(row divided by its content, content); the same list object and
        content 1 when the content is 1 or the row is zero."""
        g = sc.IP_ZERO
        for v in vals:
            g = sc.ip_gcd(g, v)
            if g == sc.IP_ONE:
                return vals, g
        if g:
            return [IntPoly(sc.ip_divexact(v, g)) for v in vals], g
        return vals, sc.IP_ONE

    gcd2 = staticmethod(sc.ip_gcd)
    divexact = staticmethod(sc.ip_divexact)
    ratio = staticmethod(RatFunc)


def carrier_for(domain):
    return _PolyCarrier if domain.is_generic else _IntCarrier


# ---------------------------------------------------------------------------
# exact sums of sparse vectors
# ---------------------------------------------------------------------------


def clear_vector(domain, vec):
    """(raws, factor) with vec == factor * raws, raws a dict of the domain
    carrier's integer values."""
    raws, factor = carrier_for(domain).clear(list(vec.values()))
    return dict(zip(vec, raws)), factor


def exact_sum(domain, terms):
    """sum c * vec over a list of (c, clear_vector(domain, vec)) pairs,
    exactly.

    The scaled coefficients c * factor are cleared once, the integer raws
    are added, and only the nonzero entries become domain scalars again:
    returns a sparse state without zero entries."""
    scales, factor = carrier_for(domain).clear([c * f for c, (_, f) in terms])
    acc = {}
    for s, (_, (raws, _)) in zip(scales, terms):
        for m, r in raws.items():
            acc[m] = acc.get(m, 0) + s * r
    return {m: factor * v for m, v in acc.items() if v}


# ---------------------------------------------------------------------------
# sparse rows: sorted lists of (key, raw) pairs
# ---------------------------------------------------------------------------


def _combine(rowa, ca, rowb, cb):
    """ca * rowa + cb * rowb over sorted (key, raw) lists."""
    out = []
    ia = ib = 0
    na, nb = len(rowa), len(rowb)
    while ia < na and ib < nb:
        ka, va = rowa[ia]
        kb, vb = rowb[ib]
        if ka < kb:
            out.append((ka, va * ca))
            ia += 1
        elif kb < ka:
            out.append((kb, vb * cb))
            ib += 1
        else:
            s = va * ca + vb * cb
            if s:
                out.append((ka, s))
            ia += 1
            ib += 1
    while ia < na:
        ka, va = rowa[ia]
        out.append((ka, va * ca))
        ia += 1
    while ib < nb:
        kb, vb = rowb[ib]
        out.append((kb, vb * cb))
        ib += 1
    return out


class SpanSolver:
    """Incremental triangular span with relation tags.

    Vectors are sparse mappings key -> scalar with totally ordered keys, or
    the clear_vector pairs of such vectors.  Inserting a vector either
    creates a new pivot or yields the exact linear relation with the
    previously inserted vectors; the relation is also kept in
    ``relations`` under the insert index of the dependent vector.  All
    stored rows carry integer raws reduced by their content.
    """

    def __init__(self, domain):
        self.domain = domain
        self.car = carrier_for(domain)
        self.pivots = {}  # lead key -> (row, tags) with tags: dict index -> raw
        self.count = 0
        self.factors = {}  # insert index -> clearing factor (original = f * raw)
        self.relations = {}  # dependent insert index -> its relation, as insert returned it

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, row, tags):
        car = self.car
        while row:
            lead, lv = row[0]
            hit = self.pivots.get(lead)
            if hit is None:
                return row, tags
            prow, ptags = hit
            pv = prow[0][1]
            g = car.gcd2(lv, pv)
            ca = car.divexact(pv, g)
            cb = car.divexact(-lv, g)
            row = _combine(row, ca, prow, cb)
            newtags = {i: t * ca for i, t in tags.items()}
            for i, t in ptags.items():
                s = newtags.get(i, 0) + t * cb
                if s:
                    newtags[i] = s
                else:
                    newtags.pop(i, None)
            tags = newtags
            vals = [v for _, v in row] + list(tags.values())
            red, _ = car.content_reduce(vals)
            if red is not vals:
                n = len(row)
                row = [(k, red[j]) for j, (k, _) in enumerate(row)]
                tags = dict(zip(tags.keys(), red[n:]))
        return row, tags

    def _to_row(self, vec, factor=None):
        """The sorted row of raws and the clearing factor of a vector, or of
        the raws of a clear_vector pair when its factor is given."""
        if factor is None:
            vec, factor = clear_vector(self.domain, vec)
        return sorted((k, r) for k, r in vec.items() if r), factor

    def insert(self, vec, factor=None):
        """Insert a vector: a mapping of scalars, or with factor given the
        raws of its clear_vector pair (vector == factor * raws), which go in
        as they are.  Returns None when independent, else the relation as a
        dict index -> scalar over previously inserted vectors together with
        this one (index == current count).  The relation annihilates the
        original (uncleared) vectors."""
        idx = self.count
        self.count += 1
        row, factor = self._to_row(vec, factor)
        self.factors[idx] = factor
        tags = {idx: self.car.one}
        row, tags = self._reduce(row, tags)
        if row:
            self.pivots[row[0][0]] = (row, tags)
            return None
        rel = self.relations[idx] = self._tags_to_relation(tags)
        return rel

    def probe(self, vec):
        """Reduce without inserting; returns (residual_nonzero, tags, factor).

        When the residual is zero the tags express the cleared vector in the
        stored cleared rows."""
        row, factor = self._to_row(vec)
        tags = {self.count: self.car.one}
        row, tags = self._reduce(row, tags)
        return bool(row), tags, factor

    def express(self, vec):
        """Coordinates of vec over the inserted vectors, or NotInSpanError."""
        nonzero, tags, factor = self.probe(vec)
        if nonzero:
            raise NotInSpanError("vector is not in the span")
        car = self.car
        tself = tags.pop(self.count)
        coords = {}
        for i, t in tags.items():
            c = -car.ratio(t, tself) * factor / self.factors[i]
            if c:
                coords[i] = c
        return coords

    def _tags_to_relation(self, tags):
        return {i: t / self.factors[i] for i, t in tags.items() if t}


# ---------------------------------------------------------------------------
# spans over Q(k) by evaluation at levels
# ---------------------------------------------------------------------------

FIRST_LEVEL = 7  # generic spans are evaluated at k = 7, 8, ...
_GENERIC = sc.domain()


def _evaluate(raws, level, keys=None):
    """The integer row of cleared polynomial raws at k = level."""
    return {m: sc.ip_eval(r, level) for m, r in raws.items() if keys is None or m in keys}


class GenericSpan:
    """Greedy span of sparse vectors over Q(k), solved at integer levels.

    Each vector v_i comes as its ``clear_vector`` pair (R_i, F_i), v_i =
    F_i * R_i with R_i a vector of integer polynomials reduced by their
    content, and every level works on the values R_i(k) in plain ints.  The
    vectors are inserted, in order, into an integer SpanSolver at the first
    level k0 >= FIRST_LEVEL where no entry of any v_i has a pole.  That
    fixes the independent vectors and the kept keys: the pivot keys at k0.
    A coordinate problem R_t = sum c'_i R_i is then solved at the levels k0,
    k0 + 1, ... on the kept keys only (a level where the kept rows lose rank
    is skipped) and fitted by
    ``scalars.reconstruct``; the cleared problem has polynomial data, so its
    coordinates have lower degree and need fewer levels than those of the
    original vectors.  The fits are rescaled exactly over Q(k), c_i = c'_i *
    F_t / F_i, and certified over Q(k) on every key: each relation of a
    dependent vector must vanish and each ``express`` result must give back
    its vector, or ReconstructionError is raised.  The rank at k0 bounds the
    generic rank from below; the certified relations, each with coefficient
    1 on its own vector and earlier vectors besides, bound it from above.  So
    the independent vectors are those a greedy insert over Q(k) would keep.
    """

    def __init__(self, cleared):
        self._cleared = list(cleared)  # (R_i, F_i) per vector
        self.level, self.full, self.independent, self.keys = self._first_level()
        self._solvers = {}  # level -> SpanSolver on the kept keys, or None
        kept = set(self.independent)
        dependent = [i for i in range(len(self._cleared)) if i not in kept]
        self.relations = {}  # dependent index -> relation, 1 on that index
        for i in dependent:
            coords = self._solve(self._cleared[i])
            if any(j > i for j in coords):
                raise ReconstructionError(f"vector {i} depends on later vectors over Q(k)")
            rel = {i: sc.RF_ONE, **{j: -c for j, c in coords.items()}}
            self._certify(rel)
            self.relations[i] = rel

    def _first_level(self):
        for level in range(FIRST_LEVEL, FIRST_LEVEL + sc.RECONSTRUCT_LEVELS):
            # an entry of v_i has a pole exactly where the denominator of F_i vanishes
            if any(sc.ip_eval(f.d, level) == 0 for _, f in self._cleared):
                continue
            full = SpanSolver(sc.domain(level))
            for raws, _ in self._cleared:
                full.insert(_evaluate(raws, level))
            independent = [i for i in range(len(self._cleared)) if i not in full.relations]
            return level, full, independent, frozenset(full.pivots)
        raise ReconstructionError("no level specializes every vector")

    def _solver(self, level):
        """Integer solver at the level over the cleared independent vectors
        cut to the kept keys; SpecializationError when they lose rank."""
        if level not in self._solvers:
            solver = SpanSolver(sc.domain(level))
            for i in self.independent:
                if solver.insert(_evaluate(self._cleared[i][0], level, self.keys)) is not None:
                    solver = None
                    break
            self._solvers[level] = solver
        solver = self._solvers[level]
        if solver is None:
            raise SpecializationError(f"the span cannot be solved at k = {level}")
        return solver

    def _solve(self, target):
        """Coordinates of a cleared target (raws, F_t) over the independent
        vectors: fitted over the cleared vectors, then rescaled by F_t / F_i
        (not yet certified).  Each target gets its own fit, so it samples
        only the levels its own coordinates need."""
        raws, f_t = target
        n = len(self.independent)

        def sample(level):
            coords = self._solver(level).express(_evaluate(raws, level, self.keys))
            return [coords.get(j, 0) for j in range(n)]

        fits = sc.reconstruct(sample, self.level)
        return {
            i: c * (f_t / self._cleared[i][1])
            for i, c in zip(self.independent, fits)
            if c
        }

    def _certify(self, coords, target=None):
        """Exact check over Q(k), on every key, that sum coords[i] * v_i
        equals the target (a clear_vector result; None means zero)."""
        terms = [(c, self._cleared[i]) for i, c in coords.items()]
        if target is not None:
            terms.append((-1, target))
        if exact_sum(_GENERIC, terms):
            raise ReconstructionError("the reconstructed coordinates fail the exact certificate")

    def express(self, vec):
        """Coordinates of vec over the independent vectors, certified over
        Q(k).  Raises NotInSpanError when vec is outside the span at k0."""
        cleared = clear_vector(_GENERIC, vec)
        self.full.express(_evaluate(cleared[0], self.level))
        coords = self._solve(cleared)
        self._certify(coords, cleared)
        return coords
