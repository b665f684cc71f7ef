"""The w2345 benchmark: one command, three workloads, exact outputs checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Repetitions run one at a time, each in a
fresh child process (perfbench/workloads.py), so every repetition pays the
cold memo tables a user pays; a new one starts only while it is expected to
end within the --seconds window.  Every check's rows are hashed and compared
with the digests recorded in perfbench/digests.json; a check that returns
fail, raises, or changes its output counts as failed.

With --trace 0 the last stdout line reports the end-to-end metrics, medians
over the repetitions, with wall_s and setup_s rescaled by the host-speed
probe (see probe()); with --trace 1 traced and untraced repetitions
alternate and it reports the per-layer metrics named in BENCHMARK.json
(medians over the traced repetitions, not rescaled) plus the tracing
overhead.

    python3 perfbench/run.py --record    # rewrite digests.json at this commit
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("generic_table", "level_modules", "groebner_ideals")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(HERE, ".work")
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 120
# Times are rescaled to a host on which probe() takes this long.
PROBE_NOMINAL_S = 0.35


class ChildError(RuntimeError):
    pass


def probe():
    """Host-speed probe: a fixed mix of the dict, tuple, Fraction and big-int
    work the package does, timed.  On a shared host the speed of the same
    code drifts by up to 2x over minutes; dividing by the probe time taken
    around each repetition removes much of that drift from the times."""
    start = time.perf_counter()
    acc = {}
    for i in range(60000):
        key = (i % 97, i % 13, (i * 7) % 31)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * 3
    x = 1
    for i in range(2000):
        x = (x * 1234567891011 + i) % (1 << 400)
    return time.perf_counter() - start


def run_child(workload, seed, rep, traced):
    """Run one repetition; returns its record with the spawn-relative times.

    rep selects the repetition's input order; equal reps get equal inputs."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--rep", str(rep),
    ]
    if traced:
        cmd += ["--trace", os.path.join(WORK_DIR, f"spans-{workload}-{seed}.json")]
    spawned = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ended = time.monotonic()
    if proc.returncode != 0:
        raise ChildError(f"repetition {rep} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    record["wall_s"] = record["done"] - record["ready"]
    record["elapsed_s"] = ended - spawned
    record["traced"] = traced
    return record


def failed_checks(record, expected):
    """Keys of the record's checks that failed, raised, changed output or
    did not run."""
    checks = record["checks"]
    return [
        key
        for key in sorted(set(checks) | set(expected))
        if key not in checks or checks[key]["failed"] or checks[key]["digest"] != expected.get(key)
    ]


def repetitions(workload, seed, seconds, traced):
    """Repetitions within the window; traced runs alternate untraced/traced."""
    start = time.monotonic()
    records = []
    took = {False: [], True: []}  # seconds per repetition, probe included
    rep = 0
    minimum = 2 if traced else 1
    before = probe()
    while True:
        kind = traced and rep % 2 == 1
        elapsed = time.monotonic() - start
        if len(records) >= minimum and elapsed + median(took[kind]) > seconds:
            break
        # a traced repetition gets the inputs of the untraced one before it
        rec = run_child(workload, seed, rep // 2 if traced else rep, kind)
        after = probe()
        rec["probe_s"] = (before + after) / 2
        before = after
        took[kind].append(rec["elapsed_s"] + after)
        records.append(rec)
        rep += 1
    return records, time.monotonic() - start


def evaluate(workload, records, expected):
    """(checks_run, checks_failed, failure descriptions) over all records."""
    run = failed = 0
    notes = []
    for rec in records:
        # traced repetitions too: tracing must not change any output
        bad = failed_checks(rec, expected)
        run += len(rec["checks"])
        failed += len(bad)
        for key in bad:
            err = rec["checks"].get(key, {"error": "did not run"})["error"]
            notes.append(f"{workload} {key}: " + (err or "output digest differs from digests.json"))
    return run, failed, notes


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records):
    """Medians over the untraced repetitions; times rescaled by the probe."""
    plain = [r for r in records if not r["traced"]]
    return {
        "wall_s": median([r["wall_s"] * PROBE_NOMINAL_S / r["probe_s"] for r in plain]),
        "setup_s": median([r["setup_s"] * PROBE_NOMINAL_S / r["probe_s"] for r in plain]),
        "peak_rss_mb": median([r["rss_mb"] for r in plain]),
    }


def per_layer(records):
    traced = [r for r in records if r["traced"]]
    names = sorted({name for r in traced for name in r["layers"]})
    out = {name: median([r["layers"].get(name, 0) for r in traced]) for name in names}
    plain = [r for r in records if not r["traced"]]
    out["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
    return out


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def record_digests():
    os.makedirs(WORK_DIR, exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        rec = run_child(workload, DEFAULT_SEED, 0, False)
        bad = [k for k, c in rec["checks"].items() if c["failed"]]
        if bad:
            raise ChildError(f"{workload}: checks fail, not recording: {bad}")
        digests[workload] = {k: c["digest"] for k, c in sorted(rec["checks"].items())}
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    ap = argparse.ArgumentParser(description="w2345 benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite digests.json and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "w2345", "__init__.py")):
        print("perfbench: run from a checkout that has src/w2345", file=sys.stderr)
        return 2
    # byte-compile once here, so the first repetition's set-up does not
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("perfbench: src does not compile", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.record:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    spec = load_json(SPEC_PATH)
    expected = load_json(DIGESTS_PATH).get(args.workload, {})
    try:
        records, window = repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    run, failed, notes = evaluate(args.workload, records, expected)

    if args.trace:
        values = per_layer(records)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(records)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    plain = [r for r in records if not r["traced"]]
    print(
        f"workload {args.workload}, seed {args.seed}: {len(records)} repetitions"
        f" ({len(plain)} untraced) in {window:.1f} s"
    )
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    walls = sorted(r["wall_s"] for r in plain)
    print(
        f"  unscaled wall over {len(walls)} untraced repetitions: median {median(walls):.4f},"
        f" min {walls[0]:.4f}, max {walls[-1]:.4f} s; probe median"
        f" {median([r['probe_s'] for r in records]):.4f} s (nominal {PROBE_NOMINAL_S} s)"
    )
    print(f"  {'checks_run':<44} {run:>14d} count")
    print(f"  {'checks_failed':<44} {failed:>14d} count")
    for note in notes:
        print(f"  FAILED {note}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": run, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
