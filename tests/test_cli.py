import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from w2345 import cli, exprs, groebner, pbw, report, singular, zhu
from w2345.groebner import buchberger
from w2345.scalars import domain as make_domain
from w2345.walgebra import Session


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


@pytest.mark.parametrize(
    "level, text", [("3", "1/0"), ("-2", "1/(k+2)"), ("generic", "1/(k-k)")]
)
def test_parse_division_by_zero_is_a_parse_error(level, text):
    proc = run_cli("parse", "--kind", "scalar", "--k", level, text)
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: division by zero")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["verify-ope", "zhu", "c2"])
@pytest.mark.parametrize("level", ["0", "-1", "-2"])
def test_check_commands_refuse_levels_below_one(command, level):
    proc = run_cli(command, "--k", level)
    assert proc.returncode == 2
    assert "level must be 'generic' or an integer >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


@pytest.mark.parametrize("flag", ("--json", "--txt"))
def test_report_into_a_missing_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, flag):
    # refused when the arguments are parsed, before any check runs
    def refused(ctx):
        raise AssertionError("the report ran")

    monkeypatch.setattr(report, "run_all", refused)
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--all", flag, str(tmp_path / "missing" / "r.out")])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err


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


# The bytes of the full report define the workbench's behaviour: they hold
# every row, the computed-no-reference rows included, which no other test
# pins.  A changed hash is a change of behaviour; record it in CHANGES.md
# together with its reason.
REPORT_SHA256 = {
    "report.json": "cf91e29d941d5eff16a62fa6978557f3f0d670579502c25d75913d4bc0eb519d",
    "report.txt": "11b1f7a8bfb83dfa9ab30872bf3635ac38157942acda3c709266f12d9952d583",
}


def test_full_report_bytes_are_pinned(report_ctx, tmp_path):
    # report_ctx shares its sessions with the gses, ses5 and ses6 fixtures
    report.serialize(
        report.run_all(report_ctx), tmp_path / "report.json", tmp_path / "report.txt"
    )
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in REPORT_SHA256
    }
    assert got == REPORT_SHA256


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


CORRUPT_ENTRIES = (
    "{not json",
    '[{"name": "x"}]',
    '"rows"',
    "[1, 2]",
    # [] would replay as zero rows: the check would vanish from the report
    "[]",
    '[{"name": "x", "status": "skipped", "payload": "ran"}]',
    '[{"name": "x", "status": "pass", "payload": 1}]',
    '[{"name": ["x"], "status": "pass", "payload": "ran"}]',
    '[{"name": "x", "status": "pass", "payload": "ran"}, {"name": "y", "status": null, "payload": ""}]',
)


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    calls = []
    fn = _counting_check(calls)
    ctx = report.Context(cache_dir=str(tmp_path), resume=True)
    report._run(ctx, "unit-test-key", fn)
    for garbage in CORRUPT_ENTRIES:
        with open(ctx._cache_path("unit-test-key"), "w") as fh:
            fh.write(garbage)
        capsys.readouterr()
        rows = report._run(ctx, "unit-test-key", fn)
        err = capsys.readouterr().err
        assert "[cache] unreadable entry unit-test-key, recomputing" in err
        assert "[resume]" not in err
        assert [r.payload for r in rows] == ["ran"]
    assert len(calls) == 1 + len(CORRUPT_ENTRIES)
    # the recomputed rows were stored again and now replay
    report._run(ctx, "unit-test-key", fn)
    assert len(calls) == 1 + len(CORRUPT_ENTRIES)


def test_an_entry_that_cannot_be_read_is_a_miss(tmp_path, monkeypatch, capsys):
    # a directory in place of the stored toplevels(level=2) entry
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    d = str(tmp_path)
    rows = report.check_toplevels(report.Context(cache_dir=d), 2)
    ctx = report.Context(cache_dir=d, resume=True)
    key = report.check_toplevels.key(2)
    path = ctx._cache_path(key)
    assert [r.name for r in ctx.cached(key)] == [r.name for r in rows]
    os.remove(path)
    os.mkdir(path)
    capsys.readouterr()
    assert ctx.cached(key) is None
    assert f"[cache] unreadable entry {key}, recomputing" in capsys.readouterr().err
    # the resumed check recomputes its rows, cannot store them over the
    # directory, warns and leaves the directory alone
    again = report.check_toplevels(ctx, 2)
    assert f"[cache] cannot store entry {key}: " in capsys.readouterr().err
    assert [(r.name, r.status, r.payload) for r in again] == [
        (r.name, r.status, r.payload) for r in rows
    ]
    assert os.listdir(d) == [os.path.basename(path)] and os.path.isdir(path)


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
        rows = report.check_toplevels(report.Context(cache_dir=d), 2)
    key = report.check_toplevels.key(2)
    assert f"[cache] cannot store entry {key}: disk full" in capsys.readouterr().err
    assert [r.status for r in rows] == ["pass"] * 3
    assert os.listdir(d) == []
    capsys.readouterr()
    rows = report.check_toplevels(report.Context(cache_dir=d, resume=True), 2)
    assert "[resume]" not in capsys.readouterr().err
    assert [r.status for r in rows] == ["pass"] * 3
    assert len(os.listdir(d)) == 1


def _stub_level_ideal(monkeypatch):
    """A small zero-dimensional ideal in place of every level ideal."""
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    qq = make_domain(0)
    gens = [
        exprs.parse_multipoly(t, zhu.W_VARS, qq).map_coeffs(Fraction)
        for t in ("w2^2 - 1", "w3^2 - w2", "w4 - 1", "w5")
    ]
    monkeypatch.setattr(report, "_ideal_generators", lambda ctx, level, which: gens)


def test_groebner_and_variety_share_one_lex_basis(monkeypatch):
    _stub_level_ideal(monkeypatch)
    calls = []

    def counting_buchberger(*args):
        calls.append(1)
        return buchberger(*args)

    monkeypatch.setattr(report, "buchberger", counting_buchberger)
    ctx = report.Context()
    report.check_groebner(ctx, 5, "P")
    report.check_variety(ctx, 5)
    assert len(calls) == 1


def test_a_context_keeps_one_session_per_level_and_no_failed_basis(monkeypatch):
    ctx = report.Context()
    assert ctx.session(5) is ctx.session(5) and ctx.session(None) is ctx.session(None)
    assert ctx.session(5) is not ctx.session(6)
    assert sorted(ctx.kept["session"], key=repr) == [(5,), (6,), (None,)]
    _stub_level_ideal(monkeypatch)
    stub = report._ideal_generators

    def failing(ctx, level, which):
        raise ValueError("no generators")

    monkeypatch.setattr(report, "_ideal_generators", failing)
    with pytest.raises(ValueError):
        ctx.lex_basis(5, "P")
    assert ctx.kept["lex_basis"] == {}
    monkeypatch.setattr(report, "_ideal_generators", stub)
    assert ctx.lex_basis(5, "P") is ctx.lex_basis(5, "P")
    assert list(ctx.kept["lex_basis"]) == [(5, "P")]


def test_groebner_and_variety_build_each_staircase_once(monkeypatch):
    # The staircase is derived once per basis, when it is built: once for the
    # grevlex basis and once for the lex basis that fglm makes from it.  The
    # dimension, the standard monomials and the radical check read that value.
    _stub_level_ideal(monkeypatch)
    built = []
    staircase = groebner._staircase

    def counting_staircase(leads, nvars):
        built.append(leads)
        return staircase(leads, nvars)

    monkeypatch.setattr(groebner, "_staircase", counting_staircase)
    ctx = report.Context()
    report.check_groebner(ctx, 5, "P")
    report.check_variety(ctx, 5)
    _, gb = ctx.lex_basis(5, "P")
    assert len(built) == 2
    assert built[1] == gb.leads


def test_null_fields_check_fails_on_a_perturbed_relation(monkeypatch):
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    null_fields = Session.null_fields

    def perturbed(self, d):
        rels = [dict(r) for r in null_fields(self, d)]
        other = list(rels[0])[1]  # the first key is the anchor
        rels[0][other] = rels[0][other] + 1
        return rels

    monkeypatch.setattr(Session, "null_fields", perturbed)
    rows = {r.name: r for r in report.check_null_fields(report.Context(), 8)}
    assert rows["null_dimensions_wt8"].status == "pass"
    assert rows["null_fields_expand_to_zero_wt8"].status == "fail"


def _with_foreign_first_monomial(monkeypatch):
    """Put e(-1)e(-1)f(-1)|0>, which no commutant state holds, first in W3."""
    generator_state = Session.generator_state

    def patched(self, g):
        state = generator_state(self, g)
        if g == 1:
            state = {((pbw.E, -1), (pbw.E, -1), (pbw.F, -1)): self.domain.one, **state}
        return state

    monkeypatch.setattr(Session, "generator_state", patched)


def test_commutant_check_fails_on_a_primary_missing_the_generator_monomial(monkeypatch):
    monkeypatch.delenv("WORKBENCH_CACHE_DIR", raising=False)
    _with_foreign_first_monomial(monkeypatch)
    with pytest.raises(ValueError, match="lacks the generator's monomial"):
        Session().find_primary(3)
    rows = {r.name: r for r in report.check_commutant(report.Context())}
    assert rows["unique_primaries"].status == "fail"
    assert "lacks the generator's monomial" in rows["unique_primaries"].payload


def test_degenerate_identity_fails_on_a_generator_monomial_missing_from_u0(monkeypatch):
    _with_foreign_first_monomial(monkeypatch)
    with pytest.raises(singular.SingularCheckError, match="lacks the generator's monomial"):
        singular.degenerate_identity(Session(2))
