import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from w2345 import cli, exprs, report, zhu
from w2345.groebner import buchberger
from w2345.scalars import domain as make_domain


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "w2345.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_parse_round_trip():
    proc = run_cli("parse", "--kind", "pbw", "h(-1)h(-1)|0>")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "h(-1)h(-1)|0>"
    proc = run_cli("parse", "--kind", "nf", "(72/7) * W4[-1]|0>")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "72/7 * W4[-1]|0>"


def test_parse_error_exit_code():
    proc = run_cli("parse", "--kind", "pbw", "h(0)|0>")
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_singular_subcommand_k2():
    rc = cli.main(["singular", "--k", "2"])
    assert rc == 0


def test_toplevels_subcommand():
    rc = cli.main(["top-levels", "--k", "4"])
    assert rc == 0


def test_report_serialization_deterministic(tmp_path):
    results = [
        report.CheckResult("b_check", "pass", "payload two"),
        report.CheckResult("a_check", "fail", "payload one"),
    ]
    paths = []
    for i in (1, 2):
        pj = tmp_path / f"r{i}.json"
        pt = tmp_path / f"r{i}.txt"
        report.serialize(results, pj, pt)
        paths.append((pj.read_bytes(), pt.read_bytes()))
    assert paths[0] == paths[1]
    data = json.loads(paths[0][0])
    assert data["schema"] == "v1"
    assert report.exit_code(results) == 1


def test_cache_resume(tmp_path):
    ctx = report.Context(cache_dir=str(tmp_path), resume=True)
    calls = []

    def fn():
        calls.append(1)
        return [report.CheckResult("x", "pass", "ran")]

    r1 = report._run(ctx, "unit-test-key", fn)
    r2 = report._run(ctx, "unit-test-key", fn)
    assert len(calls) == 1
    assert [r.name for r in r1] == [r.name for r in r2] == ["x"]


def _counting_check(calls):
    def fn():
        calls.append(1)
        return [report.CheckResult("x", "pass", "ran")]

    return fn


def test_edited_sources_miss_the_cache(tmp_path, monkeypatch):
    # An entry written by other package sources must never be replayed.
    calls = []
    fn = _counting_check(calls)
    report._run(report.Context(cache_dir=str(tmp_path)), "unit-test-key", fn)
    monkeypatch.setattr(report, "source_digest", lambda: "0" * 64)
    ctx = report.Context(cache_dir=str(tmp_path), resume=True)
    report._run(ctx, "unit-test-key", fn)
    assert len(calls) == 2
    report._run(ctx, "unit-test-key", fn)
    assert len(calls) == 2


def test_source_digest_follows_every_source_file(tmp_path):
    # A copy of the package: its digest matches until one file is edited.
    pkg = tmp_path / "w2345"
    shutil.copytree(os.path.dirname(report.__file__), pkg)

    def digest():
        proc = subprocess.run(
            [sys.executable, "-c", "from w2345 import report; print(report.source_digest())"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert digest() == report.source_digest()
    seen = {report.source_digest()}
    for name in ("reference.py", "groebner.py"):
        with open(pkg / name, "a") as fh:
            fh.write("\n# edited\n")
        seen.add(digest())
    assert len(seen) == 3


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    calls = []
    fn = _counting_check(calls)
    ctx = report.Context(cache_dir=str(tmp_path), resume=True)
    report._run(ctx, "unit-test-key", fn)
    for garbage in ("{not json", '[{"name": "x"}]', '"rows"', "[1, 2]"):
        with open(ctx._cache_path("unit-test-key"), "w") as fh:
            fh.write(garbage)
        capsys.readouterr()
        rows = report._run(ctx, "unit-test-key", fn)
        err = capsys.readouterr().err
        assert "[cache] unreadable entry unit-test-key, recomputing" in err
        assert "[resume]" not in err
        assert [r.payload for r in rows] == ["ran"]
    assert len(calls) == 5
    # the recomputed rows were stored again and now replay
    report._run(ctx, "unit-test-key", fn)
    assert len(calls) == 5


def test_report_plan_cache_keys_distinct():
    keys = [check.key(*args) for check, args in report.REPORT]
    assert len(set(keys)) == len(keys)


def test_singular_cache_key_includes_rmax(tmp_path, monkeypatch):
    # A short run must not answer a later full run from the cache.  The
    # normal forms are stubbed: only the cache key is under test here.
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    monkeypatch.setattr(report.singular, "ur_normal_form", lambda ses, r: {})
    d = str(tmp_path)
    short = report.check_singular(report.Context(cache_dir=d), 5, rmax=0)
    full = report.check_singular(report.Context(cache_dir=d, resume=True), 5)
    assert [r.name for r in short] == ["u0_theta_parity_k5", "u0_k5"]
    assert [r.name for r in full] == ["u0_theta_parity_k5"] + [
        f"u{r}_k5" for r in range(4)
    ]


def test_empty_cache_dir_variable_means_no_cache(monkeypatch):
    monkeypatch.setenv("WORKBENCH_CACHE_DIR", "")
    ctx = report.Context()
    rows = report.check_toplevels(ctx, 2)
    assert [r.status for r in rows] == ["pass"] * 3
    assert ctx.cache_dir is None


def test_torn_cache_write_leaves_no_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    d = str(tmp_path)

    def torn_dump(obj, fh):
        fh.write('[{"name": "quartets_k2", "sta')
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(report.json, "dump", torn_dump)
        with pytest.raises(OSError):
            report.check_toplevels(report.Context(cache_dir=d), 2)
    assert os.listdir(d) == []
    capsys.readouterr()
    rows = report.check_toplevels(report.Context(cache_dir=d, resume=True), 2)
    assert "[resume]" not in capsys.readouterr().err
    assert [r.status for r in rows] == ["pass"] * 3
    assert len(os.listdir(d)) == 1


def test_groebner_and_variety_share_one_lex_basis(monkeypatch):
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    qq = make_domain(0)
    gens = [
        exprs.parse_multipoly(t, zhu.W_VARS, qq).map_coeffs(Fraction)
        for t in ("w2^2 - 1", "w3^2 - w2", "w4 - 1", "w5")
    ]
    monkeypatch.setattr(report, "_ideal_generators", lambda ctx, level, which: gens)
    calls = []

    def counting_buchberger(*args):
        calls.append(1)
        return buchberger(*args)

    monkeypatch.setattr(report, "buchberger", counting_buchberger)
    ctx = report.Context()
    report.check_groebner(ctx, 5, "P")
    report.check_variety(ctx, 5)
    assert len(calls) == 1
