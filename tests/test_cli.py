"""End-to-end command-line behavior: exit codes, JSON output, verify's
knobs read from its flags alone, the table formats, the console script, and
a package that needs nothing outside the standard library."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rslab.cli import main

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


def _failing_records(out: str) -> list:
    return [rec for rec in map(json.loads, out.splitlines()) if not rec["ok"]]


@pytest.mark.parametrize("source", ["flags", "defaults"])
def test_reproduce_line_reproduces(source):
    """The printed command, run as it stands, fails the same way: it carries
    the effective seed, n_max, p_max and fault, given as flags or not."""
    argv = ["--n-max", "60", "--p-max", "20", "--seed", "5"] if source == "flags" else []
    code, out, err = run_cli(
        "verify", "--suite", "doublesum", "--json", "--inject-fault", "doublesum-random", *argv,
    )
    assert code == 2
    line = next(ln for ln in err.splitlines() if ln.startswith("reproduce: "))
    words = shlex.split(line.removeprefix("reproduce: "))
    assert words[:2] == ["rslab", "verify"], line
    code2, out2, _ = run_cli(*words[1:], "--json")
    assert code2 == 2
    assert _failing_records(out2) == _failing_records(out) != []


@pytest.mark.parametrize("suite, fault, want", [
    ("clgp", "gauss-modulus", 3),
    ("doublesum", "clgp-random", 3),
    ("doublesum", "doublesum-random", 2),
    ("gauss", "gauss-modulus", 2),
    # checks that take no fault: each is shown able to fail in test_registry
    ("gauss", "gauss-window", 3),
    ("clgp", "gauss-window", 3),
    ("clgp", "clgp-random", 3),
    ("cauchy", "schur-tableau", 3),
    ("all", "gauss-modulus", 2),
])
def test_inject_fault_must_name_a_check_of_the_suite(suite, fault, want):
    """A fault outside the selected suite, or one no check takes, would never
    be applied, so the run is rejected instead of passing unseen."""
    code, out, err = run_cli(
        "verify", "--suite", suite, "--inject-fault", fault, "--n-max", "60", "--p-max", "20",
    )
    assert code == want, err
    assert (out == "") == (want == 3)
    if want == 3:
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_honours_n_max():
    code, out, _ = run_cli("verify", "--suite", "doublesum", "--json", "--n-max", "300")
    assert code == 0
    details = {rec["check"]: rec["detail"] for rec in map(json.loads, out.splitlines())}
    assert "n <= 300" in details["doublesum-random"]
    assert "n <= 300" in details["standardcoeff"]


def test_verify_rejects_n_max_above_bound():
    code, _, err = run_cli("verify", "--suite", "doublesum", "--n-max", str(10**5 + 1))
    assert code == 3
    assert "n_max" in err


def test_verify_honours_p_max():
    counts = {}
    for p_max in ("40", "50"):
        code, out, _ = run_cli("verify", "--suite", "gauss", "--json", "--p-max", p_max)
        assert code == 0
        details = {rec["check"]: rec["detail"] for rec in map(json.loads, out.splitlines())}
        counts[p_max] = details["gauss-modulus"].split(" over ")[1]
    # primitive characters with 2 <= q <= 40, and with 2 <= q <= 50
    assert counts == {"40": "284 primitive characters", "50": "470 primitive characters"}


def test_verify_rejects_p_max_above_bound():
    code, out, err = run_cli("verify", "--suite", "gauss", "--p-max", "351")
    assert (code, out) == (3, "")
    assert "p_max" in err


@pytest.mark.parametrize("flag, value, bounds", [
    ("--n-max", "9", "n_max must be in [10, 100000]"),
    ("--n-max", "100001", "n_max must be in [10, 100000]"),
    ("--p-max", "4", "p_max must be in [5, 350]"),
    ("--p-max", "351", "p_max must be in [5, 350]"),
])
def test_verify_range_message_names_the_value(flag, value, bounds):
    """Just past either end of its range, each knob of `verify` is refused
    with its bounds as numbers and the value it got, as every other
    subcommand's range refusal is."""
    code, out, err = run_cli("verify", flag, value)
    assert (code, out, err) == (3, "", f"error: {bounds}, got {value}\n")


@pytest.mark.parametrize("argv", [
    ("gauss", "--q", "226"),
    ("gauss", "--q", "0"),
    ("funceq", "--q", str(4 * 10**5 + 1), "--chi-index", "1"),
    # each point costs q Hurwitz zeta values: q = 30011 at 14 points is past the bound
    ("funceq", "--q", "30011", "--chi-index", "1", "--points", ",".join(["0.5"] * 14)),
])
def test_q_above_bound_exits_3(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert "--q" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--n-max=--"),
    ("verify", "--seed=--"),
    ("coeffs", "--alphas=--"),
    ("gauss", "--q=--"),
    ("twist", "--pi-file=--", "--beta", "1/4"),
])
def test_option_value_written_as_double_dash_exits_3(argv):
    """An option's value written '--' (the end-of-options marker) is a bad
    input naming the option, not a crash."""
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert argv[1].split("=")[0] in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [ValueError("bad knob"), ZeroDivisionError("division by zero")])
def test_verify_reports_an_error_inside_a_check(monkeypatch, exc):
    """A check that raises fails with an `error:` record and its traceback
    on stderr; the checks after it still run and verify exits 2."""
    from rslab import registry

    def broken(cfg, rng):
        raise exc

    fine = next(c for c in registry.CHECKS if c.check_id == "conductor-exp")
    monkeypatch.setattr(registry, "CHECKS", (registry.Check("broken", "matid", "exact", "raises", broken), fine))
    code, out, err = run_cli("verify", "--suite", "matid", "--json")
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["check"], r["ok"]) for r in records] == [("broken", False), ("conductor-exp", True)]
    assert records[0]["detail"] == f"error: {type(exc).__name__}: {exc}"
    assert "Traceback" in err and str(exc) in err


def test_verify_rejects_bad_suite():
    code, _, err = run_cli("verify", "--suite", "nope")
    assert code == 3


def test_verify_ignores_rs_lab_seed():
    """The seed comes from --seed alone: with RS_LAB_SEED set, the default
    battery still prints the seed-1729 records byte for byte."""
    code, out, _ = run_cli("verify", "--suite", "all", "--json", env={"RS_LAB_SEED": "5"})
    assert code == 0
    assert out.encode() == (ROOT / "tests" / "golden" / "verify_seed1729.jsonl").read_bytes()


#: each table command's own options, each with a valid value
TABLE_OPTIONS = {
    "coeffs": {"--alphas": "1,2,3", "--gammas": "1,2", "--N": "5"},
    "gauss": {"--q": "5"},
    "twist": {"--pi-file": "pi.rep", "--beta": "1/4", "--parity": "1", "--N": "5"},
}
ALL_OPTIONS = {option: value for own in TABLE_OPTIONS.values() for option, value in own.items()}
FOREIGN_OPTIONS = [
    (command, *(w for item in own.items() for w in item), option, value)
    for command, own in TABLE_OPTIONS.items()
    for option, value in ALL_OPTIONS.items() if option not in own
]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "cauchy", "--mode", "float"),
    ("verify", "--suite", "cauchy", "--config", "mode.cfg"),
    # JSON records go to stdout only (--json > FILE)
    ("verify", "--suite", "cauchy", "--out", "records.jsonl"),
    ("dump", "coeffs"),
    *FOREIGN_OPTIONS,
], ids=" ".join)
def test_option_the_command_does_not_read_exits_3(tmp_path, monkeypatch, argv):
    """No command takes an option or subcommand it would ignore; verify has
    no config file, so --config is one of them."""
    monkeypatch.chdir(tmp_path)
    _write_rep(tmp_path)
    (tmp_path / "mode.cfg").write_text("mode=float\n")
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, ""), err


def test_table_commands_run_with_their_own_options(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_rep(tmp_path)
    for command, own in TABLE_OPTIONS.items():
        code, out, err = run_cli(command, *(w for item in own.items() for w in item))
        assert code == 0 and out, (command, err)


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


def test_dump_coeffs_csv():
    code, out, _ = run_cli("coeffs", "--N", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda,c,pair,residual"
    row2 = lines[2].split(",")
    assert row2[0] == "2"
    assert row2[2] == "18"
    row4 = lines[4].split(",")
    assert row4[2] == "197"
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])


def test_coeffs_beyond_its_bound_exits_3():
    from rslab.cli import COEFFS_N_MAX

    code, out, err = run_cli("coeffs", "--N", str(COEFFS_N_MAX + 1))
    assert (code, out) == (3, "")
    assert str(COEFFS_N_MAX) in err


def test_coeffs_with_a_parameter_beyond_float_range_exits_0():
    """10**400 does not fit a float; the exact Euler factors never need it to."""
    code, out, err = run_cli("coeffs", "--alphas", f"{10**400},2,3", "--gammas", "1,2", "--N", "3")
    assert code == 0, err
    rows = out.strip().splitlines()[1:]
    assert [row.split(",", 1)[0] for row in rows] == ["1", "2", "3"]
    assert all(row.rsplit(",", 1)[1] == "0" for row in rows)


@pytest.mark.parametrize("argv", [
    ("reduce", "--matrix", "1e5000,0;0,1", "--ctx", "5,3,2"),
    ("coeffs", "--alphas", "1e5000,1,1", "--N", "3"),
    ("twist", "--pi-file", "pi.rep", "--beta", "1e99999999", "--N", "1"),
], ids=" ".join)
def test_huge_exponent_exits_3_promptly(tmp_path, argv):
    """A decimal exponent above EXPONENT_MAX is refused before 10**exponent
    is built: 1e5000 is built at once but prints past Python's int-to-str
    limit, and 1e99999999 alone takes minutes to build.  A subprocess, so
    that a slow build fails by its timeout rather than hanging the suite."""
    (tmp_path / "pi.rep").write_text("# no primes are needed for N = 1\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rslab.cli", *argv], capture_output=True,
                          text=True, timeout=30, cwd=tmp_path, env=_env_with_src())
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "is above 4300" in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_result_too_long_to_print_exits_3():
    """1e4000 is within the exponent bound, but lambda(4) ~ 1e8000 has more
    digits than Python prints an int with: exit 3, nothing on stdout."""
    code, out, err = run_cli("coeffs", "--alphas", "1e4000,1,1", "--N", "4")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_result_within_the_digit_limit_prints():
    """A stream value past 10**4300 / 2, but every printed int within 4300
    digits: the rows are formed before one is written, and all print."""
    code, out, err = run_cli("coeffs", "--alphas", "3e4299,0,0", "--gammas", "1,2", "--N", "3")
    assert code == 0, err
    rows = out.splitlines()
    assert len(rows) == 4 and rows[2].split(",")[1] == str(3 * 10**4299)
    assert max(len(v) for row in rows for v in row.split(",")) == 4300


@pytest.mark.parametrize("name, extra", [
    ("coeffs_anchor.csv", ()),
    ("coeffs_mixed.csv", ("--alphas=-1/2,3,2/5", "--gammas=-3,1/7")),
])
def test_dump_coeffs_matches_golden(name, extra):
    """Byte for byte the committed table: a fault shared by both routes of the
    double sum leaves the residual column at 0, but not the values."""
    code, out, err = run_cli("coeffs", "--N", "120", *extra)
    assert code == 0, err
    golden = Path(__file__).resolve().parent / "golden" / name
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("args, name", [
    pytest.param(("--suite", "all", "--seed", "1729"), "verify_seed1729.jsonl", id="1729"),
    pytest.param(("--suite", "all", "--seed", "7"), "verify_seed7.jsonl", id="7"),
    pytest.param(("--suite", "gauss", "--p-max", "350"), "verify_gauss_p350.jsonl", id="gauss-p350"),
])
def test_verify_all_json_matches_golden(args, name):
    """`verify --json` is byte-identical to the committed records, for both
    seeds of `--suite all` and for the gauss suite at p_max's bound (every
    primitive tau(chi) with q <= 350): a change of speed or layout may not
    change a verdict, a count or a printed residual."""
    code, out, err = run_cli("verify", *args, "--json")
    assert code == 0, err
    assert out.encode() == (Path(__file__).resolve().parent / "golden" / name).read_bytes()


@pytest.mark.parametrize("parity", ["0", "1"])
def test_twist_readme_matches_golden(parity):
    """`twist` on the README's local-parameter file is byte-identical to the
    committed records: the float series path may not change a printed value.
    The file is committed too, as the installed script's input in CI."""
    golden = Path(__file__).resolve().parent / "golden"
    rep = golden / "pi_readme.rep"
    assert next(block for block in _readme_blocks() if block.startswith("# p ")) == rep.read_text()
    code, out, err = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "10",
                             "--parity", parity)
    assert code == 0, err
    assert out.encode() == (golden / f"twist_readme_p{parity}.jsonl").read_bytes()


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


@pytest.mark.parametrize("command", ["twist"])
def test_file_that_is_not_utf8_exits_3(tmp_path, command):
    """`twist --pi-file` is the one option that reads a file."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"2 0 1 1 1 \xff\xfe\n")
    code, out, err = run_cli(command, "--pi-file", str(bad), "--beta", "1/4", "--N", "2")
    assert (code, out) == (3, "")
    assert "cannot read" in err


@pytest.mark.parametrize("scalar", ["nan", "inf", "-inf", "1e400", "1,nan"])
def test_rep_file_non_finite_scalar_exits_3(tmp_path, scalar):
    rep = tmp_path / "pi.rep"
    rep.write_text(f"2 0 1 {scalar} 1 1\n")
    code, out, err = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "2")
    assert (code, out) == (3, "")
    assert "not a finite number" in err


@pytest.mark.parametrize("param, message", [
    # the local factor's coefficients overflow: rejected where it is built
    ("1e308", "must be finite"),
    # the factor is finite, but a(2^4) ~ 1e400 is not
    ("1e100", "overflows a float"),
])
def test_twist_float_overflow_exits_3(tmp_path, param, message):
    rep = tmp_path / "pi.rep"
    rep.write_text(f"2 0 1 {param} {param} {param}\n" + "".join(
        f"{p} 0 1 1 1 1\n" for p in (3, 5, 7, 11, 13)))
    code, out, err = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "16")
    assert (code, out) == (3, "")
    assert message in err


def test_twist_prints_the_multiplicative_product_bit_for_bit(tmp_path):
    """`twist` builds a(n) as a(n / p^k) a(p^k), p the largest prime of n;
    that is the product `euler.multiplicative` takes, in the same order, so
    every printed float (signed zeros included) is the one it gives."""
    from rslab.arith import primes_up_to
    from rslab.euler import inverse_series, multiplicative
    from rslab.langlands import parse_rep_file
    from rslab.scalars import FLOAT
    from rslab.twists import unit_average

    rng = random.Random(18)
    scalars = ["-2,-0.0", "0.5,-0.0", "-0.0,-0.75", "1", "-1.5,0.25", "2e-3,-7"]
    text = "".join(f"{p} 0 1 {' '.join(rng.choice(scalars) for _ in range(3))}\n"
                   for p in primes_up_to(900))
    rep = tmp_path / "mixed.rep"
    rep.write_text(text)
    params = parse_rep_file(text, 900)
    tables = {p: inverse_series(params[p], 10, FLOAT) for p in params}
    for beta, parity in ((Fraction(2, 7), 1), (Fraction(0), 0)):
        code, out, err = run_cli("twist", "--pi-file", str(rep), f"--beta={beta}",
                                 "--N", "900", "--parity", str(parity))
        assert code == 0, err
        want = [
            multiplicative(n, lambda p, k: tables[p][k], FLOAT)
            * unit_average(n * beta.numerator, beta.denominator, parity)
            for n in range(1, 901)
        ]
        assert out == "".join(
            json.dumps({"n": n, "coeff": [c.real, c.imag]}, separators=(",", ":")) + "\n"
            for n, c in enumerate(want, 1))


def _twist_peak_kb(rep, n: str) -> int:
    """The peak RSS in kB of `rslab twist --pi-file rep --N n` in a child."""
    probe = (
        "import resource, subprocess, sys; "
        "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "rslab.cli", "twist",
         "--pi-file", str(rep), "--beta", "1/4", "--N", n],
        capture_output=True, text=True, timeout=120, env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def _primes_rep(path, bound: int):
    from rslab.arith import primes_up_to

    path.write_text("".join(f"{p} 0 1 0.5 0.25,0.5 -0.3\n" for p in primes_up_to(bound)))
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_twist_memory_stays_flat_in_n(tmp_path):
    """`twist` keeps its coefficients as packed floats, writes its lines in
    chunks and factorizes no n, so --N 100000 peaks within 16 MB of --N 1
    (no per-n record, full JSON text or factorization cache entry stays)."""
    rep = _primes_rep(tmp_path / "primes.rep", 10**5)
    assert _twist_peak_kb(rep, "100000") - _twist_peak_kb(rep, "1") < 16 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_twist_memory_stays_flat_in_the_file(tmp_path):
    """At --N 10, a file of all 78,498 primes below 10^6 peaks within 6 MB of
    one of the primes below 10^5: `twist` keeps the parameters of the
    primes <= --N only, and holds neither a list of the file's lines nor
    one of the primes up to its largest p (the text itself remains)."""
    small = _primes_rep(tmp_path / "small.rep", 10**5)
    large = _primes_rep(tmp_path / "large.rep", 10**6)
    assert _twist_peak_kb(large, "10") - _twist_peak_kb(small, "10") < 6 * 1024


@pytest.mark.parametrize("beta, parity, want", [
    # float(1e400) overflows, and float(10^20) has lost 10^20 mod 1
    ("1e400", "0", [1.0, 0.0]),
    ("100000000000000000000", "0", [1.0, 0.0]),
    # sign(n beta)^parity still reads the sign of the unshifted beta
    ("-100000000000000000000", "1", [-1.0, 0.0]),
])
def test_twist_huge_integer_beta_prints_the_exact_value(tmp_path, beta, parity, want):
    """For an integer beta, e(n beta) = 1 exactly, however large beta is."""
    rep = tmp_path / "pi.rep"
    rep.write_text("# no primes are needed for N = 1\n\n")
    code, out, err = run_cli("twist", "--pi-file", str(rep), f"--beta={beta}", "--N", "1",
                             "--parity", parity)
    assert (code, err) == (0, "")
    assert [json.loads(line) for line in out.splitlines()] == [{"n": 1, "coeff": want}]


def test_twist_rejects_a_huge_prime_fast(tmp_path):
    """A line above the largest --N can enter no series, so it is refused
    by its size, before any primality test (the sieve would run to p)."""
    rep = tmp_path / "pi.rep"
    rep.write_text("1000000000000000000000000000057 0 1 1 1 1\n")
    start = time.perf_counter()
    code, out, err = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "is above 1000000" in err


def test_twist_rejects_a_composite_above_n(tmp_path):
    """Every listed p is tested for primality at its line, also one above
    --N that no coefficient reads."""
    rep = tmp_path / "pi.rep"
    rep.write_text("2 0 1 1 1 1\n3 0 1 1 1 1\n999999 0 1 1 1 1\n")
    code, out, err = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "3")
    assert (code, out, err) == (3, "", "error: line 3: 999999 is not prime\n")


def test_twist_refuses_a_composite_at_its_line(tmp_path):
    """2, 9, 3 in that order: the composite is refused at line 2, before the
    lines after it are read."""
    rep = tmp_path / "pi.rep"
    rep.write_text("2 0 1 1 1 1\n9 0 1 1 1 1\n3 0 1 1 1 1\n")
    code, out, err = run_cli("twist", "--pi-file", str(rep), "--beta", "1/4", "--N", "3")
    assert (code, out, err) == (3, "", "error: line 2: 9 is not prime\n")


@pytest.mark.parametrize("argv, bound", [
    (("coeffs", "--N", "0"), "400000"),
    (("twist", "--pi-file", str(ROOT / "tests" / "golden" / "pi_readme.rep"),
      "--beta", "1/4", "--N", "0"), "1000000"),
    (("gauss", "--q", "0"), "225"),
])
def test_one_range_message(argv, bound):
    code, out, err = run_cli(*argv)
    option = argv[argv.index("0") - 1]
    assert (code, out, err) == (3, "", f"error: {option} must be in [1, {bound}], got 0\n")


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
    (("coeffs", "--N", "5"), "--alphas", "-1,2,3", 0),
    (("coeffs", "--N", "5"), "--gammas", "-3,1/7", 0),
    (("twist", "--N", "5"), "--beta", "-1/4", 0),
    (("twist", "--N", "5", "--parity", "1"), "--beta", "-1/4", 0),
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


@pytest.mark.parametrize("points", ["0.5,,1", "0.5,", ",0.5"])
def test_funceq_refuses_an_empty_point(points):
    """An empty entry in --points is refused as --alphas refuses one: exit 3,
    one error line, no record."""
    code, out, err = run_cli("funceq", "--q", "5", "--chi-index", "1", "--points", points)
    assert (code, out, err) == (3, "", f"error: --points: could not parse {points!r}\n")


def test_funceq_nan_residual_fails(monkeypatch):
    monkeypatch.setattr("rslab.funceq.fe_residual_dirichlet", lambda chi, s: float("nan"))
    code, out, _ = run_cli("funceq", "--q", "5", "--chi-index", "1", "--points", "0.5")
    assert code == 2
    assert "NaN" not in out
    assert json.loads(out)["residual"] is None


@pytest.mark.parametrize("index", ["4", "-1"])
def test_funceq_chi_index_out_of_range_exits_3(index):
    """`CharGroup.character_at` owns the index range, with its one message."""
    code, out, err = run_cli("funceq", "--q", "5", f"--chi-index={index}")
    assert (code, out, err) == (3, "", f"error: character index {index} must be in [0, 3] for q=5\n")


def test_funceq_rejects_imprimitive():
    """`characters.require_primitive` refuses the trivial character mod 4
    (index 0) and index 1 mod 12, which factors through mod 3, with its one
    message."""
    for q, index, conductor in ((4, 0, 1), (12, 1, 3)):
        code, out, err = run_cli("funceq", "--q", str(q), "--chi-index", str(index))
        assert (code, out) == (3, "")
        assert err == f"error: chi mod {q} is not primitive: its conductor is {conductor}\n"


@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_failed_stdout_write_exits_3(target):
    """`rslab gauss --q 40 | head -1` once head has exited, and a full disk:
    one error line and exit 3, no traceback."""
    if target == "closed pipe":
        read_end, fd = os.pipe()
        os.close(read_end)  # no reader left: every write fails with EPIPE
    elif os.path.exists(target):
        fd = os.open(target, os.O_WRONLY)
    else:
        pytest.skip(f"{target} does not exist here")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rslab.cli", "gauss", "--q", "40"],
            stdout=fd, stderr=subprocess.PIPE, text=True, timeout=60, env=_env_with_src(),
        )
    finally:
        os.close(fd)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=" ".join)
def test_help_that_cannot_be_written_exits_3(argv, unbuffered):
    """argparse drops a failed help write and exits 0; the help goes through
    the same output guard as data, so a full device gives one error line."""
    if not os.path.exists("/dev/full"):
        pytest.skip("/dev/full does not exist here")
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rslab.cli", *argv],
            stdout=fd, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(fd)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    code, out, _ = run_cli(*argv)
    assert code == 0 and out.startswith("usage: rslab")


def _readme_blocks() -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


README_COMMANDS = [shlex.split(line, comments=True) for block in _readme_blocks()
                   for line in block.splitlines() if line.startswith("rslab ")]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    """Every `rslab` line of the README's code blocks exits 0, run from a
    directory that holds the README's local-parameter file as pi.rep.  A
    trailing `> FILE` is the shell's redirection, not an option."""
    rep = next(block for block in _readme_blocks() if block.startswith("# p "))
    (tmp_path / "pi.rep").write_text(rep)
    monkeypatch.chdir(tmp_path)
    if ">" in argv:
        argv = argv[:argv.index(">")]
    code, _, err = run_cli(*argv[1:])
    assert code == 0, err


def test_readme_lists_every_command():
    commands = {argv[1] for argv in README_COMMANDS}
    assert commands == {"verify", "coeffs", "gauss", "twist", "reduce", "funceq"}


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


def _modules_after(imports: str) -> set:
    """The modules a fresh interpreter holds after `import sys, <imports>`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {imports}; print(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    """A cold `rslab` start does not pay for `dataclasses`, nor for the
    `inspect` it loads (about 7 ms of a 230 ms `verify`), unless the
    standard-library modules rslab uses load `inspect` on this Python."""
    cold = _modules_after("rslab, rslab.cli")
    assert "rslab.cli" in cold
    assert "dataclasses" not in cold
    if "inspect" not in _modules_after("fractions, argparse, json, random, typing, cmath"):
        assert "inspect" not in cold


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
