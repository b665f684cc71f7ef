import json
import subprocess
import sys

from w2345 import cli, report


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
