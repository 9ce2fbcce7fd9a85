"""End-to-end command-line behavior: exit codes, JSON output, config and
seed precedence, the dump formats, the console script, and a package that
needs nothing outside the standard library."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rslab.cli import main, read_config

ROOT = Path(__file__).resolve().parents[1]


def _env_with_src():
    """os.environ with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(*argv, env=None):
    """Invoke the entry point in-process, capturing stdout/stderr."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    if env is not None:
        old = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = int(exc.code or 0)
    finally:
        if env is not None:
            for k, v in old.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def test_verify_single_suite_passes():
    code, out, err = run_cli("verify", "--suite", "cauchy", "--n-max", "60", "--p-max", "20")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_json_records():
    code, out, _ = run_cli(
        "verify", "--suite", "gauss", "--json", "--n-max", "60", "--p-max", "20",
        "--seed", "5",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert records
    for rec in records:
        assert rec["suite"] == "gauss"
        assert rec["ok"] is True
        assert rec["seed"] == 5
        assert "anchor" in rec and rec["anchor"]


def test_verify_fault_injection_exits_2():
    code, out, err = run_cli(
        "verify", "--suite", "doublesum", "--inject-fault", "doublesum-random",
        "--n-max", "60", "--p-max", "20",
    )
    assert code == 2
    assert "FAIL" in out
    assert "reproduce" in err


def test_verify_honours_n_max():
    code, out, _ = run_cli("verify", "--suite", "doublesum", "--json", "--n-max", "300")
    assert code == 0
    details = {rec["check"]: rec["detail"] for rec in map(json.loads, out.splitlines())}
    assert "n <= 300" in details["doublesum-random"]
    assert "n <= 300" in details["standardcoeff"]


def test_verify_rejects_n_max_above_bound(tmp_path):
    too_big = str(10**5 + 1)
    code, _, err = run_cli("verify", "--suite", "doublesum", "--n-max", too_big)
    assert code == 3
    assert "n_max" in err
    cfgfile = tmp_path / "rs.cfg"
    cfgfile.write_text(f"n_max={too_big}\n")
    code, _, err = run_cli("verify", "--suite", "doublesum", "--config", str(cfgfile))
    assert code == 3


def test_verify_honours_p_max():
    counts = {}
    for p_max in ("40", "50"):
        code, out, _ = run_cli("verify", "--suite", "gauss", "--json", "--p-max", p_max)
        assert code == 0
        details = {rec["check"]: rec["detail"] for rec in map(json.loads, out.splitlines())}
        counts[p_max] = details["gauss-modulus"].split(" over ")[1]
    # primitive characters with 2 <= q <= 40, and with 2 <= q <= 50
    assert counts == {"40": "284 primitive characters", "50": "470 primitive characters"}


def test_verify_rejects_p_max_above_bound(tmp_path):
    code, out, err = run_cli("verify", "--suite", "gauss", "--p-max", "351")
    assert (code, out) == (3, "")
    assert "p_max" in err
    cfgfile = tmp_path / "rs.cfg"
    cfgfile.write_text("p_max=351\n")
    code, out, _ = run_cli("verify", "--suite", "gauss", "--config", str(cfgfile))
    assert (code, out) == (3, "")


@pytest.mark.parametrize("argv", [
    ("gauss", "--q", "226"),
    ("dump", "gauss", "--q", "226"),
    ("funceq", "--q", str(4 * 10**5 + 1), "--chi-index", "1"),
    # each point costs q Hurwitz zeta values: q = 30011 at 14 points is past the bound
    ("funceq", "--q", "30011", "--chi-index", "1", "--points", ",".join(["0.5"] * 14)),
])
def test_q_above_bound_exits_3(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert "--q" in err


@pytest.mark.parametrize("exc", [ValueError("bad knob"), ZeroDivisionError("division by zero")])
def test_verify_reports_an_error_inside_a_check(monkeypatch, exc):
    """A check that raises fails with an `error:` record and its traceback
    on stderr; the checks after it still run and verify exits 2."""
    from rslab import registry

    def broken(cfg, rng):
        raise exc

    fine = next(c for c in registry.CHECKS if c.check_id == "conductor-exp")
    monkeypatch.setattr(registry, "CHECKS", (registry.Check("broken", "matid", "raises", broken), fine))
    code, out, err = run_cli("verify", "--suite", "matid", "--json")
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["check"], r["ok"]) for r in records] == [("broken", False), ("conductor-exp", True)]
    assert records[0]["detail"] == f"error: {type(exc).__name__}: {exc}"
    assert "Traceback" in err and str(exc) in err


def test_verify_rejects_bad_suite():
    code, _, err = run_cli("verify", "--suite", "nope")
    assert code == 3


def test_verify_seed_precedence_cli_over_env(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed=99\nn_max=60\np_max=20\n")
    # config file supplies 99 ...
    code, out, _ = run_cli(
        "verify", "--suite", "cauchy", "--json", "--config", str(cfgfile)
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == 99
    # ... env var beats config ...
    code, out, _ = run_cli(
        "verify", "--suite", "cauchy", "--json", "--config", str(cfgfile),
        env={"RS_LAB_SEED": "123"},
    )
    assert json.loads(out.splitlines()[0])["seed"] == 123
    # ... and the explicit flag beats both
    code, out, _ = run_cli(
        "verify", "--suite", "cauchy", "--json", "--config", str(cfgfile),
        "--seed", "7", env={"RS_LAB_SEED": "123"},
    )
    assert json.loads(out.splitlines()[0])["seed"] == 7


def test_read_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume=11\n")
    code, _, err = run_cli("verify", "--config", str(bad))
    assert code == 3


def test_config_comments_and_blanks(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# comment line\n\nseed=3\nmode=exact\n")
    cfg = read_config(str(f))
    assert cfg == {"seed": "3", "mode": "exact"}


def test_gauss_output_shape():
    code, out, _ = run_cli("gauss", "--q", "5")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    # phi(5) = 4 characters, each with phi(5) = 4 beta values
    assert len(records) == 16
    for rec in records:
        assert rec["q"] == 5
        assert set(rec) >= {"q", "chi_index", "beta", "value", "abs2"}
        if rec["chi_index"] == 0:
            # trivial character: Ramanujan sum, |c_5(r)|^2 = mu(5)^2 = 1
            assert abs(rec["abs2"] - 1) < 1e-9
        else:
            # primitive characters mod 5: |tau|^2 = 5
            assert abs(rec["abs2"] - 5) < 1e-9


def test_gauss_q12_has_vanishing_rows():
    """Imprimitive characters mod 12 produce genuinely zero sums."""
    code, out, _ = run_cli("gauss", "--q", "12")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(records) == 16
    assert any(rec["abs2"] < 1e-18 for rec in records)


def test_dump_coeffs_csv(tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli("dump", "coeffs", "--N", "12", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "n,lambda,c,pair,residual"
    row2 = lines[2].split(",")
    assert row2[0] == "2"
    assert row2[2] == "18"
    row4 = lines[4].split(",")
    assert row4[2] == "197"
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])


@pytest.mark.parametrize("name, extra", [
    ("coeffs_anchor.csv", ()),
    ("coeffs_mixed.csv", ("--alphas=-1/2,3,2/5", "--gammas=-3,1/7")),
])
def test_dump_coeffs_matches_golden(tmp_path, name, extra):
    """Byte for byte the committed table: a fault shared by both routes of the
    double sum leaves the residual column at 0, but not the values."""
    target = tmp_path / name
    code, _, _ = run_cli("dump", "coeffs", "--N", "120", *extra, "--out", str(target))
    assert code == 0
    golden = Path(__file__).resolve().parent / "golden" / name
    assert target.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("seed", ["1729", "7"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_all_json_matches_golden(seed, mode):
    """`verify --suite all --json` is byte-identical to the committed records:
    a change of speed or layout may not change a verdict, a count or a
    printed residual."""
    code, out, err = run_cli("verify", "--suite", "all", "--json", "--seed", seed, "--mode", mode)
    assert code == 0, err
    golden = Path(__file__).resolve().parent / "golden" / f"verify_seed{seed}_{mode}.jsonl"
    assert out.encode() == golden.read_bytes()


def test_dump_gauss_matches_gauss_command(tmp_path):
    target = tmp_path / "g.jsonl"
    code, _, _ = run_cli("dump", "gauss", "--q", "7", "--out", str(target))
    assert code == 0
    dumped = [json.loads(l) for l in target.read_text().splitlines() if l.strip()]
    code, out, _ = run_cli("gauss", "--q", "7")
    direct = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert dumped == direct


def _write_rep(tmp_path) -> Path:
    """A degree-3 local-parameter file for every prime up to 50."""
    from rslab.arith import primes_up_to

    rep = tmp_path / "pi.rep"
    lines = [f"{p} 0 1 0.9 1.1 {1/(0.9*1.1):.17g}" for p in primes_up_to(50)]
    rep.write_text("\n".join(lines) + "\n")
    return rep


def test_twist_command(tmp_path):
    rep = _write_rep(tmp_path)
    code, out, _ = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "20")
    assert code == 0
    records = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert len(records) == 20
    assert all(len(rec["coeff"]) == 2 for rec in records)


def test_twist_requires_pi_file():
    code, _, err = run_cli("twist", "--beta", "1/4", "--N", "10")
    assert code == 3
    # the dump route reaches the same guard past argparse
    code, _, err = run_cli("dump", "twist", "--beta", "1/4", "--N", "10")
    assert code == 3


def test_reduce_command():
    code, out, _ = run_cli(
        "reduce", "--matrix", "1/5,0;3,5", "--ctx", "5,3,2"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["gamma1"] == "5"
    assert rec["gamma2"] == "1/25"
    assert rec["in_support"] in (True, False)


@pytest.mark.parametrize("head, option, value, want", [
    (("reduce", "--ctx", "5,3,2"), "--matrix", "-1,0;0,1", 0),
    # no valid context starts with '-': the value must reach CosetContext
    (("reduce", "--matrix", "1,0;0,1"), "--ctx", "-5,3,2", 3),
    (("dump", "coeffs", "--N", "5"), "--alphas", "-1,2,3", 0),
    (("dump", "coeffs", "--N", "5"), "--gammas", "-3,1/7", 0),
    (("twist", "--N", "5"), "--beta", "-1/4", 0),
    (("dump", "twist", "--N", "5"), "--beta", "-1/4", 0),
    (("funceq", "--q", "5", "--chi-index", "1"), "--points", "-0.5+1j", 0),
])
def test_leading_dash_value_as_separate_word(tmp_path, head, option, value, want):
    """'--opt -x' parses as '--opt=-x' does, instead of as a missing value."""
    if "twist" in head:
        head = head + ("--pi-file", str(_write_rep(tmp_path)))
    split = run_cli(*head, option, value)
    joined = run_cli(*head, f"{option}={value}")
    assert split == joined
    code, out, err = split
    assert code == want, err
    assert "expected one argument" not in err
    assert (out != "") == (code == 0)


def test_missing_value_before_next_option_still_rejected():
    code, _, err = run_cli("reduce", "--matrix", "--ctx", "5,3,2")
    assert code == 3
    assert "expected one argument" in err


@pytest.mark.parametrize("argv", [
    ("reduce", "--mat=-1,0;0,1", "--ctx", "5,3,2"),
    ("reduce", "--mat", "-1,0;0,1", "--ctx", "5,3,2"),
    ("reduce", "--matrix", "1,0;0,1", "--ct", "5,3,2"),
    ("verify", "--suite", "cauchy", "--n-m", "60"),
    ("funceq", "--q", "5", "--chi", "1"),
])
def test_abbreviated_options_rejected(argv):
    """Only full option names parse, so a value is never read by a prefix match."""
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert "unrecognized arguments" in err or "required" in err


def test_reduce_rejects_singular():
    code, _, err = run_cli("reduce", "--matrix", "1,1;1,1", "--ctx", "5,3,2")
    assert code == 3


def test_reduce_rejects_non_integer_ctx():
    code, out, err = run_cli("reduce", "--matrix", "1/5,0;3,5", "--ctx", "5,3,7/2")
    assert code == 3
    assert out == ""
    assert "--ctx" in err


@pytest.mark.parametrize("matrix, ctx, want", [
    ("1,0;0,1", "100000007,3,7",
     '{"gamma1":"100000007","gamma2":"1/10000001400000049","u":[["1","47619051/100000007"],'
     '["0","1"]],"g":[["-10","-47619051"],["21","100000007"]],"canonical":'
     '[["1/100000007","0"],["21","100000007"]],"in_support":true}'),
    ("1,0;0,10000001400000049", "5,3,7",
     '{"gamma1":"50000007000000245","gamma2":"1/250000035000001225","u":[["1",'
     '"1/50000007000000245"],["0","1"]],"g":[["-4","-1"],["21","5"]],"canonical":'
     '[["1/5","0"],["210000029400001029","50000007000000245"]],"in_support":false}'),
])
def test_reduce_large_entries_are_fast(matrix, ctx, want):
    """The support predicate needs no factorization: these inputs, where
    factoring p^2 by trial division took 5-12 s, finish at once."""
    start = time.perf_counter()
    code, out, _ = run_cli("reduce", "--matrix", matrix, "--ctx", ctx)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, want + "\n")


def test_reduce_rejects_ctx_above_bound():
    code, out, err = run_cli("reduce", "--matrix", "1,0;0,1", "--ctx", "1000000000039,3,7")
    assert (code, out) == (3, "")
    assert "--ctx" in err


def test_funceq_command():
    code, out, _ = run_cli(
        "funceq", "--q", "5", "--chi-index", "1", "--points", "0.5,0.5+1j"
    )
    assert code == 0
    records = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert len(records) == 2
    assert all(rec["residual"] < 1e-8 for rec in records)


@pytest.mark.parametrize("points", ["0", "1+1e-7j", "nan", "7.5+1j", "0.5+400j"])
def test_funceq_rejects_points_outside_validated_range(points):
    # index 2 mod 5 is even: Gamma_R(s) has a pole at 0 and Gamma_R(1-s) at 1
    code, out, err = run_cli("funceq", "--q", "5", "--chi-index", "2", "--points", points)
    assert code == 3, err
    assert out == ""  # no record, so no NaN either


def test_funceq_nan_residual_fails(monkeypatch):
    monkeypatch.setattr("rslab.funceq.fe_residual_dirichlet", lambda chi, s: float("nan"))
    code, out, _ = run_cli("funceq", "--q", "5", "--chi-index", "1", "--points", "0.5")
    assert code == 2
    assert "NaN" not in out
    assert json.loads(out)["residual"] is None


def test_funceq_rejects_imprimitive():
    # mod 4 has exactly one nontrivial character; index 0 is the trivial one
    code, _, err = run_cli("funceq", "--q", "4", "--chi-index", "0", "--points", "0.5")
    assert code == 3


def test_console_script_installed(tmp_path):
    """The rslab entry point responds to --help without error.

    The script is the wrapper pip would generate from the ``rslab`` entry of
    ``[project.scripts]`` in ``pyproject.toml``, so the declared entry point
    is exercised from a plain checkout, without an install.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["rslab"]
    module, func = entry.split(":")
    script = tmp_path / "rslab"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    env = _env_with_src()
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    proc = subprocess.run(
        ["rslab", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout, proc.stderr


def test_import_loads_only_the_standard_library():
    """`import rslab` adds no module from outside the standard library."""
    code = (
        "import sys; before = set(sys.modules); import rslab; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "rslab" in loaded
    assert loaded - {"rslab"} <= set(sys.stdlib_module_names), sorted(loaded)


def test_public_names_resolve():
    """Every name rslab exports is an attribute of the package, listed once."""
    import rslab

    missing = [name for name in rslab.__all__ if not hasattr(rslab, name)]
    assert not missing, missing
    assert len(rslab.__all__) == len(set(rslab.__all__))


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
