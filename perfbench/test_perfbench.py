"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q      # from the repository root, about a minute
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import make_ideals  # noqa: E402
import run  # noqa: E402


def test_stored_ideals_regenerate_identically():
    with open(make_ideals.IDEALS_PATH) as fh:
        assert fh.read() == make_ideals.render()


def test_wrong_digest_counts_as_failed():
    record = run.run_child("groebner_ideals", 0, 0, False)
    expected = run.load_json(run.DIGESTS_PATH)["groebner_ideals"]
    assert run.evaluate("groebner_ideals", [record], expected)[:2] == (3, 0)
    wrong = dict(expected, gb_P5="0" * 64)
    checks_run, checks_failed, notes = run.evaluate("groebner_ideals", [record], wrong)
    assert checks_run == 3 and checks_failed == 1
    assert notes and "gb_P5" in notes[0]


def test_seed_changes_order_not_outputs():
    a = run.run_child("level_modules", 1, 0, False)
    b = run.run_child("level_modules", 2, 5, False)
    assert {k: c["digest"] for k, c in a["checks"].items()} == {
        k: c["digest"] for k, c in b["checks"].items()
    }


def test_traced_metrics_are_the_declared_per_layer_metrics():
    record = run.run_child("groebner_ideals", 0, 0, True)
    declared = {m["name"] for m in run.load_json(run.SPEC_PATH)["per_layer"]}
    emitted = set(record["layers"])
    assert emitted <= declared
    # the rest are other workloads' checks and the run-level overhead
    assert all(n.startswith("report.check.") or n == "trace.overhead_s" for n in declared - emitted)
    assert record["layers"]["scalars.ip_gcd.calls"] == 0
    assert record["layers"]["groebner.basis_elements"] == 5 + 11 + 13


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groebner_ideals", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
