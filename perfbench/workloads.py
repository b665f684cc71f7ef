"""One repetition of a benchmark workload, run in a fresh child process.

    python3 perfbench/workloads.py --workload NAME --seed N --rep I [--trace FILE]

The repetition imports the package, builds its inputs (set-up), runs the
workload's checks in an order drawn from (seed, rep), and prints one JSON
line: the set-up end and run end on the system-wide monotonic clock, the
peak resident set, and for every check its row count, failed flag and the
sha256 of its (name, status, payload) rows.  With --trace it also prints the
per-layer metrics and writes the span list to FILE.

Each workload is a stage of ``w2345 report --all``, cut down so that one
repetition takes seconds, not minutes (perfbench/README.md lists the cuts):

* generic_table: the commutant and the weight-8 null fields at generic k,
  i.e. elimination over rational functions of k;
* level_modules: the level-5 product table, Zhu/C2 images and singular
  vector, and the top levels at k = 2..6, i.e. the integer-level mode
  calculus;
* groebner_ideals: lex Buchberger on the stored level-5 P and A and level-6
  A ideal generators.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IDEALS_PATH = os.path.join(HERE, "ideals.txt")
WORK_DIR = os.path.join(HERE, ".work")

# A repetition must take seconds, so that a run holds enough of them for a
# steady median.  Lex P at level 6 takes over 20 s alone; P at level 5 runs
# the same Buchberger code.
GROEBNER_IDEALS = ("P5", "A5", "A6")


def rows_digest(rows):
    """sha256 over the (name, status, payload) rows of one check."""
    blob = json.dumps([[r.name, r.status, r.payload] for r in rows])
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workload set-up: each returns (checks, replay, cache_dir) where checks maps
# a check key to a zero-argument callable returning report rows, and replay
# (or None) reruns the report checks on a Context resuming from cache_dir.
# ---------------------------------------------------------------------------


def _cached_context():
    from w2345 import report

    os.makedirs(WORK_DIR, exist_ok=True)
    return report.Context(cache_dir=tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))


def _bind(ctx, report_checks):
    """The report checks bound to ctx, and their replay from ctx's cache."""
    from w2345 import report

    checks = {key: (lambda f=f: f(ctx)) for key, f in report_checks.items()}

    def replay():
        again = report.Context(cache_dir=ctx.cache_dir, resume=True)
        return {key: f(again) for key, f in report_checks.items()}

    return checks, replay


def setup_generic_table(span):
    from w2345 import report

    ctx = _cached_context()
    checks, replay = _bind(
        ctx,
        {
            "commutant": report.check_commutant,
            "null_wt8": lambda c: report.check_null_fields(c, 8),
        },
    )
    return checks, replay, ctx.cache_dir


def setup_level_modules(span):
    from w2345 import exprs, reference, report, singular, zhu

    ctx = _cached_context()
    ses = ctx.session(5)
    with span("exprs.reference_k5"):
        want_p0 = exprs.parse_multipoly(reference.P_K5_TEXT[0], zhu.W_VARS, ses.domain)
        want_a0 = exprs.parse_multipoly(reference.A_K5_TEXT[0], zhu.X_VARS, ses.domain)

    def zhu_images():
        """Zhu and C2 images of u^0 at level 5, and the star commutators."""
        red = zhu.ZhuC2(ses)
        u0 = singular.ur_normal_form(ses, 0)
        p0 = red.zhu_reduce(u0).primitive_integer()[0]
        a0 = red.c2_reduce(u0).primitive_integer()[0]
        gens = [{((g, -1),): 1} for g in (1, 2, 3)]
        star = [
            red.zhu_star(gens[a], gens[b]) - red.zhu_star(gens[b], gens[a])
            for a, b in ((0, 1), (0, 2), (1, 2))
        ]
        return [
            report.CheckResult("P0_k5", "pass" if p0 in (want_p0, -want_p0) else "fail", p0.format()),
            report.CheckResult("A0_k5", "pass" if a0 in (want_a0, -want_a0) else "fail", a0.format()),
            report.CheckResult(
                "zhu_star_commutators_k5",
                "fail" if any(star) else "pass",
                "the three star commutators reduce to 0",
            ),
        ]

    report_checks = {
        "ope_k5": lambda c: report.check_ope(c, 5),
        "singular_k4": lambda c: report.check_singular(c, 4),
        "singular_k5_u0": lambda c: report.check_singular(c, 5, rmax=0),
    }
    for k in (2, 3, 4, 5, 6):
        report_checks[f"toplevels_k{k}"] = lambda c, k=k: report.check_toplevels(c, k)
    checks, replay = _bind(ctx, report_checks)
    checks["zhu_k5"] = zhu_images
    return checks, replay, ctx.cache_dir


def load_ideals(span):
    """Generator polynomials of the measured ideals, by tag, in file order."""
    from w2345 import exprs, zhu
    from w2345.scalars import domain

    gens = {}
    with open(IDEALS_PATH) as fh:
        lines = fh.read().splitlines()
    with span("exprs.ideals"):
        for line in lines:
            tag, _, text = line.split(" ", 2)
            if tag not in GROEBNER_IDEALS:
                continue
            vars = zhu.W_VARS if tag[0] == "P" else zhu.X_VARS
            gens.setdefault(tag, []).append(exprs.parse_multipoly(text, vars, domain(int(tag[1:]))))
    return gens


def setup_groebner_ideals(span):
    from w2345 import groebner, report, toplevels

    gens = load_ideals(span)

    def check(tag):
        level = int(tag[1:])
        # Generators in the report's order: Buchberger's work on P5 varies
        # 3x with the order, which would make each order its own workload.
        polys = gens[tag]
        order = groebner.lex_order(tuple(reversed(polys[0].vars)))
        with span(f"groebner.buchberger.{tag}"):
            gb = groebner.buchberger(polys, order)
        dim = groebner.quotient_dimension(gb)
        std = groebner.standard_monomials(gb)
        with span("groebner.spoly_check"):
            spolys = groebner.spoly_reductions_vanish(gb)
        basis = " ;; ".join(g.format() for g in gb.elements)
        want_dim = {5: 15, 6: 21}[level]
        rows = [
            report.CheckResult(
                f"GB_{tag}",
                "pass" if dim == want_dim and len(std) == dim else "fail",
                f"quotient dimension {dim}; standard monomials {std}; basis: {basis}",
            ),
            report.CheckResult(
                f"GB_{tag}_spolys", "pass" if spolys else "fail", "every S-polynomial reduces to zero"
            ),
        ]
        if tag[0] == "P":
            pts = list(toplevels.quartet_table(level).values())
            member = all(
                groebner.point_membership(polys, pt) and groebner.point_membership(gb.elements, pt)
                for pt in pts
            )
            rad = groebner.radical_multiplicity_check(gb, pts)
            rows.append(
                report.CheckResult(
                    f"variety_{tag}",
                    "pass" if member and rad else "fail",
                    f"{len(pts)} top-level quartets lie on the variety and match the quotient dimension",
                )
            )
        return rows

    checks = {f"gb_{tag}": (lambda tag=tag: check(tag)) for tag in GROEBNER_IDEALS}
    return checks, None, None


SETUPS = {
    "generic_table": setup_generic_table,
    "level_modules": setup_level_modules,
    "groebner_ideals": setup_groebner_ideals,
}


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------


def run_checks(checks, keys, span):
    """Run checks in the given key order; returns key -> (rows, error)."""
    out = {}
    for key in keys:
        try:
            with span(f"report.check.{key}"):
                out[key] = (checks[key](), None)
        except Exception as exc:  # a raising check counts as failed
            out[key] = ([], f"{type(exc).__name__}: {exc}")
    return out


def summarize(results, replayed):
    """Per-check row count, failed flag and digest, in sorted key order."""
    summary = {}
    for key in sorted(results):
        rows, error = results[key]
        failed = error is not None or any(r.status == "fail" for r in rows)
        if replayed is not None and key in replayed:
            again = replayed[key]
            if [(r.name, r.status, r.payload) for r in again] != [(r.name, r.status, r.payload) for r in rows]:
                failed, error = True, "resumed rows differ from computed rows"
        summary[key] = {"rows": len(rows), "failed": failed, "error": error, "digest": rows_digest(rows)}
    return summary


def run_repetition(workload, seed, rep, tracer=None):
    """One repetition in this process; returns the JSON-ready record."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    checks, replay, cache_dir = SETUPS[workload](span)
    ready = time.monotonic()
    try:
        keys = sorted(checks)
        random.Random(f"{workload}:{seed}:{rep}").shuffle(keys)
        results = run_checks(checks, keys, span)
        replayed = None
        if replay is not None:
            with span("report.resume"):
                replayed = replay()
        done = time.monotonic()
        if cache_dir is not None and tracer is not None:
            tracer.cache_entries = len(os.listdir(cache_dir))
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "ready": ready,
        "done": done,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": summarize(results, replayed),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file and print layer metrics")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    record = run_repetition(args.workload, args.seed, args.rep, tracer)
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
