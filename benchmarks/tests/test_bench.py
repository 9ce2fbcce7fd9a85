"""The benchmark's own tests, at small sizes:

    python -m pytest benchmarks/tests -q

Each workload runs to its end on small inputs and passes its checks, and
each check reports a problem when handed a corrupted output.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads as wl  # noqa: E402
from rslab import coeffs, characters  # noqa: E402

ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}


# -- the helpers written apart from rslab ------------------------------------


def test_own_number_theory():
    assert [wl.phi(n) for n in (1, 9, 12, 37)] == [1, 6, 4, 36]
    assert [wl.primitive_count(q) for q in (1, 2, 4, 8, 9, 12, 15)] == [1, 0, 1, 2, 4, 1, 3]
    assert wl.prime_powers(10) == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
    # h_2(1, 2) = 1 + 2 + 4
    assert wl.complete_homogeneous((1, 2), 2) == [1, 3, 7]


def test_rounds_come_from_the_seed():
    for name, w in wl.WORKLOADS.items():
        assert w.make_round(5) == w.make_round(5), name
    assert wl.coeff_round(5) != wl.coeff_round(6)
    assert len(set(wl.coeff_round(5))) == wl.COEFF_SETS
    assert sorted(wl.exact_round(5)) == sorted(wl.EXACT_POOL)
    assert sorted(op.q for op in wl.float_round(5)) == sorted(wl.FLOAT_POOL)


# -- coeff-exact -------------------------------------------------------------


@pytest.fixture(scope="module")
def coeff_case():
    ops = wl.coeff_round(3, sets=2, n_max=60)
    return ops, [wl.coeff_run(op)[1] for op in ops]


def test_coeff_runs_and_passes(coeff_case):
    ops, outs = coeff_case
    for op, out in zip(ops, outs):
        assert wl.coeff_check(op, out) == []
    assert wl.coeff_check_round(ops, outs) == []


@pytest.mark.parametrize("corrupt", [
    lambda out: out["double"].__setitem__(6, Fraction(1, 7)),
    lambda out: out["standard"].__setitem__(0, 0.0),  # a float zero is not exact
    lambda out: out["double"].pop(),
    lambda out: out.__setitem__("data", coeffs.CoeffData.constant((1, 1, 1), (1, 1), 60)),
])
def test_coeff_check_catches(coeff_case, corrupt):
    op, out = coeff_case[0][0], copy.deepcopy(coeff_case[1][0])
    corrupt(out)
    assert wl.coeff_check(op, out)


def test_coeff_multiplicativity_and_anchor_catch(coeff_case, monkeypatch):
    op, out = coeff_case[0][0], coeff_case[1][0]
    real = coeffs.lambda_rs
    # off by one wherever n has two distinct primes: prime powers stay right
    monkeypatch.setattr(coeffs, "lambda_rs", lambda n, d: real(n, d) + (len(wl.factor(n)) > 1))
    assert any("multiplicative" in p for p in wl.coeff_check(op, out))
    real_c = coeffs.c_pi_tau
    monkeypatch.setattr(coeffs, "c_pi_tau", lambda n, d: real_c(n, d) + 1)
    assert wl.coeff_check_round([], [])


# -- charsum-float -----------------------------------------------------------


@pytest.fixture(scope="module")
def float_case():
    ops = wl.float_round(3, pool=range(7, 13))
    return ops, [wl.float_run(op)[1] for op in ops]


def test_float_runs_and_passes(float_case):
    for op, out in zip(*float_case):
        assert wl.float_check(op, out) == []


def _q7(float_case):
    ops, outs = float_case
    i = next(i for i, op in enumerate(ops) if op.q == 7)
    return ops[i], copy.deepcopy(outs[i])


@pytest.mark.parametrize("corrupt", [
    lambda out: out["table"].__setitem__((0, 2), out["table"][0, 2] * 1.001),
    lambda out: out["table"].pop((0, 1)),
    lambda out: out["residuals"].__setitem__(next(iter(out["residuals"])), 1e-6),
    lambda out: out["residuals"].pop(next(iter(out["residuals"]))),
])
def test_float_check_catches(float_case, corrupt):
    op, out = _q7(float_case)
    corrupt(out)
    assert wl.float_check(op, out)


def test_float_check_catches_wrong_gauss_modulus(float_case):
    op, out = _q7(float_case)
    # swap tau(chi) of a primitive chi with that of the trivial one (index 0,
    # |tau|^2 = 1): every column still sums to phi(q)^2
    prim = next(idx for idx, _ in out["residuals"])
    out["table"][prim, 1], out["table"][0, 1] = out["table"][0, 1], out["table"][prim, 1]
    problems = wl.float_check(op, out)
    assert problems and all("|tau(" in p for p in problems)


# -- charsum-exact -----------------------------------------------------------


@pytest.fixture(scope="module")
def exact_case():
    ops = wl.exact_round(3, pool=range(7, 13))
    return ops, [wl.exact_run(op)[1] for op in ops]


def test_exact_runs_and_passes(exact_case):
    for op, out in zip(*exact_case):
        assert wl.exact_check(op, out) == []
        assert wl.exact_deep_check(op, out) == []


def test_exact_check_catches_vanishing_verdict(exact_case):
    op, out = exact_case[0][0], copy.deepcopy(exact_case[1][0])
    chi, q2, _ = out["verdicts"][0]
    out["verdicts"][0] = (chi, q2, (False, [1]))
    assert wl.exact_check(op, out)
    out["verdicts"].pop()
    assert wl.exact_check(op, out)


def test_exact_check_catches_bad_sums(exact_case, monkeypatch):
    op, out = exact_case[0][0], exact_case[1][0]
    real = characters.gauss_beta

    def shifted(chi, beta, mode="exact"):
        val = real(chi, beta, mode)
        return val + 1 if mode == "exact" else val

    monkeypatch.setattr(characters, "gauss_beta", shifted)
    assert any("vs float" in p for p in wl.exact_deep_check(op, out))
    monkeypatch.setattr(characters, "gauss_beta", real)
    monkeypatch.setattr(characters, "gauss_classical", lambda chi, mode: real(chi, Fraction(2, 3), mode))
    assert any("conj" in p for p in wl.exact_deep_check(op, out))


# -- verify-cold -------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_case():
    seed = wl.verify_round(3)[0]
    return seed, wl.verify_run(seed, ENV)[1]


def test_verify_runs_and_passes(verify_case):
    seed, out = verify_case
    assert wl.verify_check(seed, out) == []
    assert wl.verify_check_round([seed, seed], [out, out]) == []
    assert wl.verify_fault_problems(ENV) == []


def _edit_records(out, edit):
    records = [json.loads(line) for line in out["stdout"].splitlines()]
    edit(records)
    return dict(out, stdout="".join(json.dumps(r) + "\n" for r in records).encode())


@pytest.mark.parametrize("edit", [
    lambda rs: rs.pop(),
    lambda rs: rs[3].__setitem__("ok", False),
    lambda rs: rs[5].__setitem__("seed", 0),
    lambda rs: [r.__setitem__("suite", "cauchy") for r in rs],
])
def test_verify_check_catches(verify_case, edit):
    seed, out = verify_case
    assert wl.verify_check(seed, _edit_records(out, edit))


def test_verify_check_catches_exit_and_drift(verify_case):
    seed, out = verify_case
    assert wl.verify_check(seed, dict(out, returncode=2))
    assert wl.verify_check_round([seed, seed], [out, dict(out, stdout=out["stdout"] + b"\n")])


# -- the runner and the tracer -----------------------------------------------


def test_every_step_of_an_operation_is_marked():
    laps = []
    wl.coeff_run(wl.coeff_round(3, sets=1, n_max=30)[0], lap=lambda: laps.append(1))
    assert len(laps) == 2 * 30
    laps.clear()
    items, _ = wl.float_run(wl.float_round(3, pool=(7,))[0], lap=lambda: laps.append(1))
    assert len(laps) == items
    laps.clear()
    _, out = wl.exact_run(9, lap=lambda: laps.append(1))
    assert len(laps) == len(out["verdicts"])


def test_run_refuses_a_directory_without_rslab(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                           "--workload", "coeff-exact", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


TRACED = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from spans import Tracer, layer_metrics
import workloads as wl
tracer = Tracer.install()
import rslab.coeffs, rslab.arith
assert rslab.coeffs.factorize is rslab.arith.factorize  # the imported name is wrapped too
op = wl.coeff_round(1, sets=1, n_max=40)[0]
wl.coeff_run(op)
tracer.active = False
print(json.dumps(layer_metrics(tracer.summary())))
"""


def test_traced_counts_repeat_exactly():
    code = TRACED.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    runs = [json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, check=True, timeout=60).stdout)
            for _ in range(2)]
    counts = [{k: v for k, (v, unit) in r.items() if unit == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["coeffs.calls"] > 0 and counts[0]["arith.factorize.calls"] > 0
    assert counts[0]["arith.factorize.misses"] > 0
    assert counts[0]["characters.calls"] == 0
