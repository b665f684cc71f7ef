"""Batch front end: run verification suites and emit reports.

Exit codes: 0 all executed checks pass, 1 verification failure, 2 usage
error.  Reports are written as report.json plus a human-readable mirror
report.txt; both are deterministic (timings go to stderr only).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import exprs, report
from .scalars import domain as make_domain


def _level_arg(value):
    if value == "generic":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("level must be 'generic' or an integer")


def _check_level_arg(value):
    """The level of a check: 'generic' or a positive integer."""
    level = _level_arg(value)
    if level is not None and level < 1:
        raise argparse.ArgumentTypeError("level must be 'generic' or an integer >= 1")
    return level


def _output_path(value):
    """A report file path, refused before any check runs if its directory is missing."""
    if not os.path.isdir(os.path.dirname(value) or "."):
        raise argparse.ArgumentTypeError(f"the directory of {value!r} does not exist")
    return value


def _checks(run):
    """A subcommand that runs checks: prints their rows and exits 1 on a
    failure.  ``run(ctx, args)`` returns the rows."""

    def command(args):
        ctx = report.Context(cache_dir=args.cache_dir, resume=args.resume)
        results = run(ctx, args)
        for r in results:
            print(f"[{r.status:>22}] {r.name}: {r.payload}")
        return report.exit_code(results)

    return command


def _report(ctx, args):
    results = report.run_all(ctx)
    report.serialize(results, args.json, args.txt)
    print(f"wrote {args.json} and {args.txt}", file=sys.stderr)
    return results


def _toplevels(ctx, args):
    rows = report.check_toplevels(ctx, args.k)
    return rows + (report.check_variety(ctx, args.k) if args.k in (5, 6) else [])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="w2345",
        description="Exact workbench for the W(2,3,4,5) commutant algebra",
    )
    ap.add_argument("--cache-dir", help="cache directory (or WORKBENCH_CACHE_DIR)")
    ap.add_argument(
        "--resume", action="store_true", help="reuse cached results when available"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-ope", help="check the generator product table")
    p.add_argument("--k", type=_check_level_arg, default=None)
    p.set_defaults(run=_checks(lambda ctx, a: report.check_ope(ctx, a.k)))

    p = sub.add_parser("null-fields", help="null combinations at one weight")
    p.add_argument("--weight", type=int, choices=(8, 9, 10), required=True)
    p.set_defaults(run=_checks(lambda ctx, a: report.check_null_fields(ctx, a.weight)))

    p = sub.add_parser("zhu", help="associative-quotient kernel polynomials")
    p.add_argument("--k", type=_check_level_arg, default=None)
    p.set_defaults(run=_checks(lambda ctx, a: report.check_zhu(ctx, a.k)))

    p = sub.add_parser("c2", help="C2-quotient kernel polynomials")
    p.add_argument("--k", type=_check_level_arg, default=None)
    p.set_defaults(run=_checks(lambda ctx, a: report.check_c2(ctx, a.k)))

    p = sub.add_parser("singular", help="singular vectors at a fixed level")
    p.add_argument("--k", type=int, choices=(2, 3, 4, 5, 6), required=True)
    p.add_argument("--r", type=int, choices=(0, 1, 2, 3), default=3)
    p.set_defaults(run=_checks(lambda ctx, a: report.check_singular(ctx, a.k, a.r)))

    p = sub.add_parser("groebner", help="Groebner bases of the level ideals")
    p.add_argument("--k", type=int, choices=(5, 6), required=True)
    p.add_argument("--ideal", choices=("P", "A"), required=True)
    p.set_defaults(run=_checks(lambda ctx, a: report.check_groebner(ctx, a.k, a.ideal)))

    p = sub.add_parser("top-levels", help="module top-level eigenvalues")
    p.add_argument("--k", type=int, choices=(2, 3, 4, 5, 6), required=True)
    p.set_defaults(run=_checks(_toplevels))

    p = sub.add_parser("f-matrix", help="level-6 descendant system")
    p.set_defaults(run=_checks(lambda ctx, a: report.check_f_matrix(ctx)))

    p = sub.add_parser("report", help="full verification report")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--json", type=_output_path, default="report.json")
    p.add_argument("--txt", type=_output_path, default="report.txt")
    p.set_defaults(run=_checks(_report))

    p = sub.add_parser("parse", help="round-trip an element through the parser")
    p.add_argument("--kind", choices=("pbw", "nf", "scalar"), default="pbw")
    p.add_argument("--k", type=_level_arg, default=None)
    p.add_argument("text")
    p.set_defaults(run=_parse_command)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
    return args.run(args)


def _parse_command(args):
    dom = make_domain(args.k)
    try:
        if args.kind == "scalar":
            value = dom.parse(args.text)
            print(dom.fmt(value))
        elif args.kind == "pbw":
            elt = exprs.parse_pbw(args.text, dom)
            print(exprs.format_pbw(elt, dom))
        else:
            elt = exprs.parse_nf(args.text, dom)
            print(exprs.format_nf(elt, dom))
    except exprs.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
