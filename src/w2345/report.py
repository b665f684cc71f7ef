"""Named verification checks and the machine-readable report.

Each check returns CheckResult entries with status pass / fail /
computed-no-reference.  The report file is deterministic: timings are logged
to stderr only, never serialized, so identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import exprs, reference, singular, toplevels, zhu
from .groebner import (
    buchberger,
    lex_order,
    point_membership,
    quotient_dimension,
    radical_multiplicity_check,
    spoly_reductions_vanish,
    standard_monomials,
)
from .multipoly import MultiPoly
from .scalars import UniPoly, domain as make_domain
from .walgebra import G3, G4, Session, nf_parity

SCHEMA_VERSION = "v1"
CODE_VERSION = "w2345-0.1.0"


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | computed-no-reference
    payload: str


class Context:
    """Shared sessions plus an optional result cache keyed by content hash."""

    def __init__(self, cache_dir=None, resume=False):
        self._sessions = {}
        self.cache_dir = cache_dir or os.environ.get("WORKBENCH_CACHE_DIR")
        self.resume = resume and self.cache_dir is not None

    def session(self, level=None):
        if level not in self._sessions:
            self._sessions[level] = Session(level)
        return self._sessions[level]

    def _cache_path(self, key):
        h = hashlib.sha256((CODE_VERSION + "|" + key).encode()).hexdigest()[:24]
        return os.path.join(self.cache_dir, f"{h}.json")

    def cached(self, key):
        if not self.resume:
            return None
        path = self._cache_path(key)
        if os.path.exists(path):
            with open(path) as fh:
                data = json.load(fh)
            return [CheckResult(**row) for row in data]
        return None

    def store(self, key, results):
        if self.cache_dir is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(key)
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": r.name, "status": r.status, "payload": r.payload}
                    for r in results
                ],
                fh,
            )


def _run(ctx, key, fn):
    hit = ctx.cached(key)
    if hit is not None:
        print(f"[resume] {key}: {len(hit)} cached results", file=sys.stderr)
        return hit
    t0 = time.time()
    results = fn()
    dt = time.time() - t0
    for r in results:
        print(f"[{r.status:>4}] {r.name} ({dt:.1f}s total)", file=sys.stderr)
    ctx.store(key, results)
    return results


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def check_ope(ctx, level=None):
    def fn():
        ses = ctx.session(level)
        tag = "generic" if level is None else f"k{level}"
        out = []
        table = ses.ope_table()
        bad = []
        for (i, j, n), got in sorted(table.items()):
            want = exprs.parse_nf(reference.OPE_TEXT[(i, j, n)], ses.domain)
            got = {m: ses.domain.scalar(c) for m, c in got.items() if ses.domain.scalar(c)}
            if got != want:
                diff = set(got.items()) ^ set(want.items())
                bad.append(f"W{i}_{n} W{j} differs at {sorted({m for m, _ in diff})}")
        status = "pass" if not bad else "fail"
        payload = (
            f"33/33 products match the reference table"
            if not bad
            else "; ".join(bad)
        )
        out.append(CheckResult(f"ope_table_{tag}", status, payload))
        return out

    tag = "generic" if level is None else f"k{level}"
    return _run(ctx, f"ope:{tag}", fn)


def check_commutant(ctx):
    def fn():
        ses = ctx.session(None)
        out = []
        dims = {d: len(ses.commutant_weight_space(d)) for d in (1, 3, 4, 5)}
        ok = dims == {1: 0, 3: 2, 4: 4, 5: 6}
        out.append(
            CheckResult(
                "commutant_dimensions",
                "pass" if ok else "fail",
                f"dim commutant weight spaces: {dims}",
            )
        )
        prim_ok = True
        scalars = {}
        for d in (3, 4, 5):
            try:
                _, lam = ses.find_primary(d)
                scalars[d] = ses.domain.fmt(lam)
            except ValueError as e:
                prim_ok = False
                scalars[d] = str(e)
        out.append(
            CheckResult(
                "unique_primaries",
                "pass" if prim_ok else "fail",
                f"primary scalars vs stored generators: {scalars}",
            )
        )
        return out

    return _run(ctx, "commutant", fn)


def check_null_fields(ctx, weight):
    def fn():
        ses = ctx.session(None)
        dom = ses.domain
        out = []
        total, rank = ses.nf_dimensions(weight)
        expect = {8: (29, 27), 9: (44, 40), 10: (72, None)}[weight]
        dims_ok = total == expect[0] and (expect[1] is None or rank == expect[1])
        if weight == 10:
            nb = ses._nf_basis(10)
            plus = sum(1 for m in nb.monos if nf_parity(m) > 0)
            elim_p = sum(1 for m in nb.eliminated if nf_parity(m) > 0)
            dims_ok = dims_ok and plus == 40 and elim_p == 5
            payload = (
                f"{total} words, rank {rank}; even sector {plus} words,"
                f" {elim_p} null fields; odd sector {total - plus} words,"
                f" {len(nb.eliminated) - elim_p} null fields"
            )
        else:
            payload = f"{total} words span rank {rank}"
        out.append(
            CheckResult(
                f"null_dimensions_wt{weight}",
                "pass" if dims_ok else "fail",
                payload,
            )
        )
        rels = ses.null_fields(weight)
        vanish = all(
            not {m: dom.scalar(c) for m, c in ses.nf_expand_element(r).items() if dom.scalar(c)}
            for r in rels
        )
        out.append(
            CheckResult(
                f"null_fields_expand_to_zero_wt{weight}",
                "pass" if vanish else "fail",
                f"{len(rels)} relations, expansions all zero: {vanish}",
            )
        )
        refs = {
            8: (
                (((G3, -2), (G3, -2)), reference.REL_W3m2_SQ, "w3m2_squared"),
                (((G3, -1), (G4, -2)), reference.REL_W3m1_W4m2, "w3m1_w4m2"),
            ),
            9: ((((G3, -1), (G4, -3)), reference.REL_W3m1_W4m3, "w3m1_w4m3"),),
            10: (),
        }[weight]
        for mono, text, label in refs:
            rel = ses.null_field_for(mono)
            got = {m: -c for m, c in rel.items() if m != mono}
            want = exprs.parse_nf(text, dom)
            ok = {m: dom.scalar(c) for m, c in got.items() if dom.scalar(c)} == want
            out.append(
                CheckResult(
                    f"null_relation_{label}",
                    "pass" if ok else "fail",
                    "matches the reference relation coefficient by coefficient"
                    if ok
                    else "relation differs from the reference",
                )
            )
        if weight == 10:
            nb = ses._nf_basis(10)
            odd = [m for m in nb.eliminated if nf_parity(m) < 0]
            out.append(
                CheckResult(
                    "null_fields_wt10_odd_sector",
                    "computed-no-reference",
                    f"odd-sector null fields anchored at: "
                    + ", ".join(exprs._fmt_word(m, "nf") for m in odd),
                )
            )
        return out

    return _run(ctx, f"null:{weight}", fn)


def check_zhu(ctx, level=None):
    def fn():
        ses = ctx.session(None)
        dom = ses.domain
        red = zhu.ZhuC2(ses)
        out = []
        q0, q1 = red.q_polynomials()
        want0 = exprs.parse_multipoly(reference.Q0_TEXT, zhu.W_VARS, dom)
        want1 = exprs.parse_multipoly(reference.Q1_TEXT, zhu.W_VARS, dom)
        if level is not None:
            q0, q1 = q0.specialize_level(level), q1.specialize_level(level)
            want0, want1 = want0.specialize_level(level), want1.specialize_level(level)
        tag = "" if level is None else f"_k{level}"
        fmt = (lambda c: dom.fmt(c)) if level is None else str
        out.append(
            CheckResult(
                f"Q0{tag}",
                "pass" if q0 == want0 else "fail",
                q0.format(fmt),
            )
        )
        out.append(
            CheckResult(
                f"Q1{tag}",
                "pass" if q1 == want1 else "fail",
                q1.format(fmt),
            )
        )
        e3, e4, e5 = ({((1, -1),): 1}, {((2, -1),): 1}, {((3, -1),): 1})
        pairs = (("34", e3, e4), ("35", e3, e5), ("45", e4, e5))
        comm_ok = True
        for name, a, b in pairs:
            if red.zhu_star(a, b) - red.zhu_star(b, a):
                comm_ok = False
        out.append(
            CheckResult(
                "zhu_star_commutators",
                "pass" if comm_ok else "fail",
                "the three star commutators reduce to 0",
            )
        )
        return out

    tag = "generic" if level is None else f"k{level}"
    return _run(ctx, f"zhu:{tag}", fn)


def check_c2(ctx, level=None):
    def fn():
        ses = ctx.session(None)
        dom = ses.domain
        red = zhu.ZhuC2(ses)
        out = []
        b0, b1, b2, scal = red.b_polynomials()
        want0 = exprs.parse_multipoly(reference.B0_TEXT, zhu.X_VARS, dom)
        want1 = exprs.parse_multipoly(reference.B1_TEXT, zhu.X_VARS, dom)
        want2 = exprs.parse_multipoly(reference.B2_TEXT, zhu.X_VARS, dom)
        if level is not None:
            b0, b1, b2 = (p.specialize_level(level) for p in (b0, b1, b2))
            want0, want1, want2 = (
                p.specialize_level(level) for p in (want0, want1, want2)
            )
        tag = "" if level is None else f"_k{level}"
        fmt = (lambda c: dom.fmt(c)) if level is None else str
        out.append(
            CheckResult(
                f"B0{tag}",
                "pass" if b0 == want0 else "fail",
                b0.format(fmt),
            )
        )
        out.append(
            CheckResult(
                f"B1{tag}",
                "pass" if b1 == want1 else "fail",
                f"recorded scale {dom.fmt(-red._null_scale_9())}; " + b1.format(fmt),
            )
        )
        out.append(
            CheckResult(
                f"B2{tag}",
                "pass" if b2 == want2 else "fail",
                f"recorded scalar {dom.fmt(scal)}; " + b2.format(fmt),
            )
        )
        return out

    tag = "generic" if level is None else f"k{level}"
    return _run(ctx, f"c2:{tag}", fn)


def _ur_reference(level, r):
    if level == 5:
        return (
            reference.U0_K5_TEXT,
            reference.U1_K5_TEXT,
            reference.U2_K5_TEXT,
            reference.U3_K5_TEXT,
        )[r]
    if level == 6 and r == 0:
        return reference.U0_K6_TEXT
    return None


def check_singular(ctx, level, rmax=3):
    def fn():
        ses = ctx.session(level)
        dom = ses.domain
        out = []
        par = singular.theta_parity_u0(ses)
        ok = par == (-1) ** (level + 1)
        out.append(
            CheckResult(
                f"u0_theta_parity_k{level}",
                "pass" if ok else "fail",
                f"theta acts on u0 by {par:+d}",
            )
        )
        if level in (2, 3, 4):
            lam = singular.degenerate_identity(ses)
            want = Fraction(reference.U0_SCALAR[level])
            out.append(
                CheckResult(
                    f"u0_degenerate_k{level}",
                    "pass" if lam == want else "fail",
                    f"u0 = {lam} * W{level + 1}",
                )
            )
            targets = []
            if level == 2:
                targets = [ses.primaries()[1], ses.primaries()[2]]
                names = "W4, W5"
            elif level == 3:
                targets = [ses.primaries()[2]]
                names = "W5"
            if targets:
                got = singular.ideal_span_membership(ses, targets)
                out.append(
                    CheckResult(
                        f"ideal_membership_k{level}",
                        "pass" if all(got) else "fail",
                        f"{names} contained in the ideal generated by u0"
                        f" up to weight 5: {got}",
                    )
                )
            return out
        for r in range(0, rmax + 1):
            nf = singular.ur_normal_form(ses, r)
            text = _ur_reference(level, r)
            if text is None:
                out.append(
                    CheckResult(
                        f"u{r}_k{level}",
                        "computed-no-reference",
                        ses.format_nf(nf),
                    )
                )
                continue
            want = exprs.parse_nf(text, dom)
            ok = {m: dom.scalar(c) for m, c in nf.items() if dom.scalar(c)} == want
            out.append(
                CheckResult(
                    f"u{r}_k{level}",
                    "pass" if ok else "fail",
                    ses.format_nf(nf) if ok else "normal form differs",
                )
            )
        return out

    return _run(ctx, f"singular:{level}", fn)


def _ideal_generators(ctx, level, which):
    """Generators of the level ideal: P uses the Zhu images, A the C2 images."""
    ses = ctx.session(level)
    gen = ctx.session(None)
    red = zhu.ZhuC2(gen)
    if which == "P":
        polys, _ = singular.p_polynomials(ses)
        q0, q1 = red.q_polynomials()
        extra = [q0.specialize_level(level), q1.specialize_level(level)]
        extra = [p.primitive_integer()[0] for p in extra]
        return polys + extra
    polys, _ = singular.a_polynomials(ses)
    b0, b1, b2, _ = red.b_polynomials()
    extra = [p.specialize_level(level) for p in (b0, b1, b2)]
    extra = [p.primitive_integer()[0] for p in extra]
    return polys + extra


def check_p_a_polynomials(ctx, level):
    def fn():
        ses = ctx.session(level)
        out = []
        polys, muls = singular.p_polynomials(ses)
        apolys, amuls = singular.a_polynomials(ses)
        if level == 5:
            wants = [
                exprs.parse_multipoly(t, zhu.W_VARS, ses.domain)
                for t in reference.P_K5_TEXT
            ]
            awants = [
                exprs.parse_multipoly(t, zhu.X_VARS, ses.domain)
                for t in reference.A_K5_TEXT
            ]
            for r in range(4):
                okp = polys[r] == wants[r] or polys[r] == -wants[r]
                oka = apolys[r] == awants[r] or apolys[r] == -awants[r]
                out.append(
                    CheckResult(
                        f"P{r}_k5",
                        "pass" if okp else "fail",
                        f"multiplier {muls[r]}; " + polys[r].format(),
                    )
                )
                out.append(
                    CheckResult(
                        f"A{r}_k5",
                        "pass" if oka else "fail",
                        f"multiplier {amuls[r]}; " + apolys[r].format(),
                    )
                )
        else:
            for r in range(4):
                out.append(
                    CheckResult(
                        f"P{r}_k{level}",
                        "computed-no-reference",
                        f"multiplier {muls[r]}; " + polys[r].format(),
                    )
                )
                out.append(
                    CheckResult(
                        f"A{r}_k{level}",
                        "computed-no-reference",
                        f"multiplier {amuls[r]}; " + apolys[r].format(),
                    )
                )
        return out

    return _run(ctx, f"pa:{level}", fn)


def _factored_unipoly(text):
    """Parse a product like w2*(5*w2-6)*... into a UniPoly in w2."""
    dom = make_domain(0)
    poly = exprs.parse_multipoly(text, ("w2",), dom)
    coeffs = {}
    for e, c in poly.terms.items():
        coeffs[e[0]] = Fraction(c)
    return UniPoly.from_map(coeffs)


def _as_unipoly_in(poly, var_index):
    coeffs = {}
    for e, c in poly.terms.items():
        if any(x for i, x in enumerate(e) if i != var_index):
            raise ValueError("polynomial is not univariate")
        coeffs[e[var_index]] = Fraction(c)
    return UniPoly.from_map(coeffs)


def check_groebner(ctx, level, which):
    def fn():
        gens = _ideal_generators(ctx, level, which)
        vars = gens[0].vars
        order = lex_order(tuple(reversed(vars)))  # w5 > w4 > w3 > w2
        gb = buchberger(gens, order)
        out = []
        dim = quotient_dimension(gb)
        basis_text = " ;; ".join(g.format() for g in gb.elements)
        if which == "P":
            want_dim = {5: 15, 6: 21}[level]
            ok = dim == want_dim
            std = standard_monomials(gb) if dim is not None else []
            # expected standard monomials: w2^m and w2^n w3
            m_max = {5: 8, 6: 12}[level]
            n_max = {5: 5, 6: 7}[level]
            want_std = sorted(
                [(m, 0, 0, 0) for m in range(m_max + 1)]
                + [(n, 1, 0, 0) for n in range(n_max + 1)]
            )
            ok = ok and std == want_std
            # R1, R2 exact; R3..R5 printed data
            r1 = _factored_unipoly(
                reference.R1_K5_TEXT if level == 5 else reference.R1_K6_TEXT
            )
            r2t = reference.R2_K5_TEXT if level == 5 else reference.R2_K6_TEXT
            okr, details = _check_r_basis(gb, level, r1, r2t)
            out.append(
                CheckResult(
                    f"GB_P_k{level}",
                    "pass" if (ok and okr) else "fail",
                    f"quotient dimension {dim}; standard monomials"
                    f" w2^0..w2^{m_max} and w2^0..w2^{n_max} * w3; {details};"
                    f" basis: {basis_text}",
                )
            )
        else:
            finite = dim is not None
            if level == 5:
                wants = [
                    exprs.parse_multipoly(t, zhu.X_VARS, make_domain(level))
                    for t in reference.S_K5_TEXT
                ]
                wants = [_sign_normalized(p, gb) for p in wants]
                got = list(gb.elements)
                ok = finite and _same_basis(got, wants)
                out.append(
                    CheckResult(
                        "GB_A_k5",
                        "pass" if ok else "fail",
                        f"eleven-element reduced basis matches; quotient"
                        f" dimension {dim} (finite); basis: {basis_text}",
                    )
                )
            else:
                out.append(
                    CheckResult(
                        "GB_A_k6",
                        "pass" if finite else "fail",
                        f"quotient dimension {dim} (finite codimension"
                        f" certified); basis: {basis_text}",
                    )
                )
        ok_s = spoly_reductions_vanish(gb)
        out.append(
            CheckResult(
                f"GB_{which}_k{level}_spolys",
                "pass" if ok_s else "fail",
                "every S-polynomial of the output reduces to zero",
            )
        )
        return out

    return _run(ctx, f"gb:{level}:{which}", fn)


def _sign_normalized(poly, gb):
    key = gb.key()
    poly, _ = poly.primitive_integer()
    lead = max(poly.terms, key=key)
    if Fraction(poly.terms[lead]) < 0:
        poly = -poly
    return poly


def _same_basis(got, wants):
    if len(got) != len(wants):
        return False
    gset = {frozenset(p.terms.items()) for p in got}
    wset = {frozenset(p.terms.items()) for p in wants}
    return gset == wset


def _check_r_basis(gb, level, r1_want, r2_text):
    """The P-ideal basis: R1, R2 exact, R3..R5 on the printed data."""
    if level == 5:
        c3, c4, c5 = (
            reference.R3_K5_W3SQ_COEFF,
            reference.R4_K5_W4_COEFF,
            reference.R5_K5_W5_COEFF,
        )
        dp, dq, dr = reference.R_K5_P_DEGREE, reference.R_K5_Q_DEGREE, reference.R_K5_R_DEGREE
        pc_text, qc_text = reference.R_K5_P_COMMON_TEXT, reference.R_K5_Q_COMMON_TEXT
    else:
        c3, c4, c5 = (
            reference.R3_K6_W3SQ_COEFF,
            reference.R4_K6_W4_COEFF,
            reference.R5_K6_W5_COEFF,
        )
        dp, dq, dr = reference.R_K6_P_DEGREE, reference.R_K6_Q_DEGREE, reference.R_K6_R_DEGREE
        pc_text, qc_text = reference.R_K6_P_COMMON_TEXT, reference.R_K6_Q_COMMON_TEXT
    if len(gb.elements) != 5:
        return False, f"basis has {len(gb.elements)} elements, expected 5"
    vars = gb.vars  # (w2, w3, w4, w5)
    iw2, iw3, iw4, iw5 = (vars.index(v) for v in ("w2", "w3", "w4", "w5"))
    by_lead = {}
    key = gb.key()
    for g in gb.elements:
        lead = max(g.terms, key=key)
        by_lead[lead] = g
    details = []
    ok = True

    def exp(**kw):
        e = [0, 0, 0, 0]
        for name, v in kw.items():
            e[vars.index(name)] = v
        return tuple(e)

    # R1: univariate in w2
    r1 = by_lead.get(exp(w2=r1_want.degree))
    if r1 is None or _as_unipoly_in(r1, iw2) != r1_want:
        ok = False
        details.append("R1 mismatch")
    # R2: w3 * (univariate in w2)
    r2_want = None
    dom0 = make_domain(0)
    r2_want = exprs.parse_multipoly(r2_text, vars, dom0).map_coeffs(Fraction)
    r2_want, _ = r2_want.primitive_integer()
    deg2 = max(e[iw2] for e in r2_want.terms)
    r2 = by_lead.get(exp(w3=1, w2=deg2))
    if r2 is None or r2 != r2_want:
        ok = False
        details.append("R2 mismatch")
    # R3 = p(w2) + c3 w3^2
    r3 = by_lead.get(exp(w3=2))
    ok3 = r3 is not None and Fraction(r3.terms[exp(w3=2)]) == c3
    if ok3:
        p = MultiPoly(vars, {e: c for e, c in r3.terms.items() if e != exp(w3=2)})
        pu = _as_unipoly_in(p, iw2)
        ok3 = pu.degree == dp
        ok3 = ok3 and pu.gcd(r1_want) == _factored_unipoly(pc_text).monic()
    if not ok3:
        ok = False
        details.append("R3 mismatch")
    # R4 = q(w2) + c4 w4
    r4 = by_lead.get(exp(w4=1))
    ok4 = r4 is not None and Fraction(r4.terms[exp(w4=1)]) == c4
    if ok4:
        q = MultiPoly(vars, {e: c for e, c in r4.terms.items() if e != exp(w4=1)})
        qu = _as_unipoly_in(q, iw2)
        ok4 = qu.degree == dq
        ok4 = ok4 and qu.gcd(r1_want) == _factored_unipoly(qc_text).monic()
    if not ok4:
        ok = False
        details.append("R4 mismatch")
    # R5 = r(w2) w3 + c5 w5
    r5 = by_lead.get(exp(w5=1))
    ok5 = r5 is not None and Fraction(r5.terms[exp(w5=1)]) == c5
    if ok5:
        rest = {e: c for e, c in r5.terms.items() if e != exp(w5=1)}
        ok5 = all(e[iw3] == 1 and e[iw4] == 0 and e[iw5] == 0 for e in rest)
        if ok5:
            ru = UniPoly.from_map({e[iw2]: Fraction(c) for e, c in rest.items()})
            ok5 = ru.degree == dr
            ok5 = ok5 and ru.gcd(r1_want).degree == 0
    if not ok5:
        ok = False
        details.append("R5 mismatch")
    return ok, "; ".join(details) if details else (
        "R1, R2 exact; R3..R5 leading constants, degrees and common factors match"
    )


def check_variety(ctx, level):
    def fn():
        gens = _ideal_generators(ctx, level, "P")
        order = lex_order(tuple(reversed(gens[0].vars)))
        gb = buchberger(gens, order)
        table = toplevels.quartet_table(level)
        pts = list(table.values())
        member = all(point_membership(gens, pt) for pt in pts)
        member_gb = all(point_membership(gb.elements, pt) for pt in pts)
        rad = radical_multiplicity_check(gb, pts)
        out = [
            CheckResult(
                f"variety_membership_k{level}",
                "pass" if member and member_gb else "fail",
                f"all {len(pts)} top-level quartets satisfy the ideal generators"
                " and the reduced basis",
            ),
            CheckResult(
                f"variety_radical_k{level}",
                "pass" if rad else "fail",
                f"{len(pts)} distinct points match the quotient dimension",
            ),
        ]
        return out

    return _run(ctx, f"variety:{level}", fn)


def check_toplevels(ctx, level):
    def fn():
        out = []
        table = toplevels.quartet_table(level)
        agree = all(
            toplevels.eigenvalues_oracle(level, i, j) == q
            for (i, j), q in table.items()
        )
        table_text = "; ".join(
            f"({i},{j}): ({', '.join(str(x) for x in q)})"
            for (i, j), q in sorted(table.items())
        )
        out.append(
            CheckResult(
                f"quartets_k{level}",
                "pass" if agree else "fail",
                f"closed form and zero-mode oracle agree on {len(table)}"
                f" vectors: {table_text}",
            )
        )
        distinct = toplevels.quartets_distinct(table) and toplevels.pairs_distinct(
            table
        )
        out.append(
            CheckResult(
                f"toplevel_distinct_k{level}",
                "pass" if distinct else "fail",
                f"{len(table)} quartets pairwise distinct, (a2, a3) already distinct",
            )
        )
        sym = toplevels.symmetry_check(level)
        out.append(
            CheckResult(
                f"toplevel_symmetry_k{level}",
                "pass" if sym else "fail",
                "a2/a4 invariant and a3/a5 negated under j -> i-j",
            )
        )
        if level in (5, 6):
            want = {
                5: {Fraction(x) for x in reference.E_K5},
                6: {Fraction(x) for x in reference.E_K6},
            }[level]
            got = toplevels.a2_set(table)
            ok = got == want
            if level == 5:
                ok = ok and toplevels.no_integer_differences(got)
            out.append(
                CheckResult(
                    f"E_k{level}",
                    "pass" if ok else "fail",
                    "{" + ", ".join(str(x) for x in sorted(got)) + "}"
                    + (", no two differ by an integer" if level == 5 else ""),
                )
            )
        return out

    return _run(ctx, f"toplevels:{level}", fn)


def _k6_null_elements(ctx):
    """The seven vanishing elements of the level-6 simple quotient, as
    normal-form elements: u^0..u^3 and the weight 8, 9, 10 null fields."""
    ses = ctx.session(6)
    from .walgebra import G3, G4

    elems = [singular.ur_normal_form(ses, r) for r in range(4)]
    for mono in (
        ((G3, -2), (G3, -2)),
        ((G3, -1), (G4, -3)),
        ((G3, -3), (G3, -3)),
    ):
        elems.append(ses.null_field_for(mono))
    return elems


def check_f_matrix(ctx):
    def fn():
        out = []
        nulls = _k6_null_elements(ctx)
        for tag, hw, flip in (
            ("i1", reference.F_K6_HW_1, False),
            ("i5", reference.F_K6_HW_5, True),
        ):
            rows = []
            for p in range(4):
                ref_row = [Fraction(x) for x in reference.F_K6_ROWS[p]]
                if flip:
                    # theta negates the odd generators W3 and W5 (the text
                    # says c3/c5; the intended flip is on those columns)
                    ref_row = [ref_row[0], -ref_row[1], ref_row[2], -ref_row[3]]
                rows.append(ref_row)
            res = toplevels.descendant_analysis(6, hw, nulls, rows)
            ok = (
                res["combined_rank"] == 4
                and res["kernel_in_relations"]
                and all(a for a in res["alphas"])
            )
            mat_text = "; ".join(
                "(" + ", ".join(str(x) for x in row) + ")" for row in res["matrix"]
            )
            out.append(
                CheckResult(
                    f"F_matrix_k6_{tag}",
                    "pass" if ok else "fail",
                    "raising + null-relation system has rank 4 (trivial kernel"
                    " on honest modules); reference rows match the raising rows"
                    " modulo the null relations with nonzero scalars"
                    f" {[str(a) for a in res['alphas']]};"
                    f" raw raising matrix kernel (dim {res['kernel_dim']})"
                    f" equals the null-relation span; raising rows: {mat_text}",
                )
            )
        return out

    return _run(ctx, "fmatrix", fn)


# ---------------------------------------------------------------------------
# assembling reports
# ---------------------------------------------------------------------------


def run_all(ctx):
    results = []
    results += check_ope(ctx)
    results += check_commutant(ctx)
    for w in (8, 9, 10):
        results += check_null_fields(ctx, w)
    results += check_zhu(ctx)
    results += check_c2(ctx)
    for k in (2, 3, 4, 5, 6):
        results += check_singular(ctx, k)
    for k in (5, 6):
        results += check_p_a_polynomials(ctx, k)
        results += check_groebner(ctx, k, "P")
        results += check_groebner(ctx, k, "A")
        results += check_variety(ctx, k)
    for k in (2, 3, 4, 5, 6):
        results += check_toplevels(ctx, k)
    results += check_f_matrix(ctx)
    return results


def serialize(results, path_json, path_txt):
    data = {
        "schema": SCHEMA_VERSION,
        "checks": [
            {"name": r.name, "status": r.status, "payload": r.payload}
            for r in results
        ],
    }
    blob = json.dumps(data, indent=1, sort_keys=True)
    with open(path_json, "w") as fh:
        fh.write(blob + "\n")
    lines = [f"w2345 verification report ({SCHEMA_VERSION})", ""]
    for r in results:
        lines.append(f"[{r.status:>22}] {r.name}")
        lines.append(f"    {r.payload}")
    with open(path_txt, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def exit_code(results):
    return 1 if any(r.status == "fail" for r in results) else 0
