"""The check registry: determinism, coverage, fault injection, and each
check shown able to fail."""

from math import nan

import pytest

from rslab import characters, coeffs, cyclotomic, funceq, matid, symfunc, twists
from rslab.characters import char_group
from rslab.matid import Mat
from rslab.registry import (
    CHECKS,
    FAULT_CAPABLE,
    SUITES,
    RunConfig,
    run_check,
    run_suite,
)
from rslab.scalars import FLOAT


def test_all_checks_pass_default_config():
    cfg = RunConfig()
    results = run_suite("all", cfg)
    assert len(results) == len(CHECKS)
    failing = [r.check_id for r in results if not r.ok]
    assert not failing, failing


def test_every_suite_nonempty_and_ids_unique():
    ids = [c.check_id for c in CHECKS]
    assert len(ids) == len(set(ids))
    for s in SUITES:
        assert any(c.suite == s for c in CHECKS), s
    assert all(c.suite in SUITES for c in CHECKS)
    assert all(c.description for c in CHECKS)


def test_run_suite_filters():
    cfg = RunConfig(n_max=60, p_max=20)
    results = run_suite("gauss", cfg)
    assert results
    assert all(r.suite == "gauss" for r in results)
    with pytest.raises(ValueError):
        run_suite("nonsense", cfg)


def test_determinism_under_fixed_seed():
    cfg1 = RunConfig(seed=42, n_max=60, p_max=20)
    cfg2 = RunConfig(seed=42, n_max=60, p_max=20)
    r1 = run_suite("doublesum", cfg1)
    r2 = run_suite("doublesum", cfg2)
    assert [(r.check_id, r.ok, r.detail) for r in r1] == [
        (r.check_id, r.ok, r.detail) for r in r2
    ]


def test_different_seeds_still_pass():
    for seed in (1, 7, 2024):
        cfg = RunConfig(seed=seed, n_max=60, p_max=20)
        rs = run_suite("cauchy", cfg)
        assert all(r.ok for r in rs)


def _fails_alone(check_id, inject_fault=None):
    """Run the suite of check_id: that check fails on a comparison (an
    exception would show only that something raised) and every other check
    of its suite passes."""
    check = next(c for c in CHECKS if c.check_id == check_id)
    results = run_suite(check.suite, RunConfig(n_max=60, p_max=20, inject_fault=inject_fault))
    res = next(r for r in results if r.check_id == check_id)
    assert not res.ok, f"{check_id} still passed"
    assert not res.detail.startswith("error:"), res.detail
    assert all(r.ok for r in results if r is not res), [r for r in results if not r.ok]


def test_fault_injection_breaks_named_checks():
    """Corrupting the inputs must flip the targeted check to failure --
    the detector is not vacuous."""
    for check_id in sorted(FAULT_CAPABLE):
        _fails_alone(check_id, inject_fault=check_id)


def test_clgp_random_fails_on_a_wrong_witness(monkeypatch):
    """A right witness g*[[1,1],[0,1]]: the top-right entry of u*M*g becomes
    gamma1*gamma2 != 0.  The other clgp checks read only the invariants."""
    reduce = matid.coset_reduce

    def wrong_witness(M, ctx):
        out = reduce(M, ctx)
        return out._replace(g=out.g * Mat([[1, 1], [0, 1]]))

    monkeypatch.setattr(matid, "coset_reduce", wrong_witness)
    _fails_alone("clgp-random")


def test_gauss_window_fails_on_a_reported_zero(monkeypatch):
    monkeypatch.setattr(characters, "vanishing_sums", lambda chi, m, rs: rs[:1])
    _fails_alone("gauss-window")


def test_gauss_window_fault_is_caught_only_by_the_exact_descent(monkeypatch):
    """The sum of the trivial character mod 16 at 1/16, outside its window,
    is the Ramanujan sum c_16(1) = mu(16) = 0: a true zero, which no numeric
    bound can certify, so `vanishing_sums` reports it because the exact
    descent says "zero".  With the descent made to answer "nonzero", it
    reports none."""
    trivial = char_group(16).trivial()
    assert characters.vanishing_sums(trivial, 16, [1]) == [1]
    monkeypatch.setattr(cyclotomic, "_vanishes", lambda n, weights, primes: False)
    assert characters.vanishing_sums(trivial, 16, [1]) == []


@pytest.mark.parametrize("check_id", ["cauchy-gradewise", "cauchy-two-row", "standardcoeff"])
def test_wrong_split_denominator_fails_checks_against_the_expansion(monkeypatch, check_id):
    """A wrong common denominator in `symfunc._split` reaches the Schur side
    only.  These three checks compare the Schur side against the `euler`
    expansion, which never goes through the split, so each must fail.

    `schur-tableau` alone cannot see this fault: its determinant and tableau
    routes both go through the split, so both are off by the same power of
    the wrong denominator and still agree."""
    split = symfunc._split

    def wrong_denominator(xs, mode):
        values, d = split(xs, mode)
        return values, None if d is None else 2 * d

    monkeypatch.setattr(symfunc, "_split", wrong_denominator)
    check = next(c for c in CHECKS if c.check_id == check_id)
    res = run_check(check, RunConfig(n_max=60, p_max=20))
    assert not res.ok, f"{check_id} passed with a wrong denominator"
    assert not res.detail.startswith("error:"), res.detail


@pytest.mark.parametrize("check_id, factor", [("standardcoeff", "pi"), ("twist-compat", "tau")])
def test_one_wrong_local_value_fails_the_stream_checks(monkeypatch, check_id, factor):
    """The first coefficient of one local expansion, off by 1, fails its
    check.  standardcoeff compares the "pi" expansion with the Schur tables,
    which never read it; twist-compat reads mu(p) + 1 on the twisted side as
    -mu(p) + 1 where u_p = -1, and as u(p) (mu(p) + 1) = -mu(p) - 1 on the
    plain side."""
    expansion = coeffs._LocalTables.expansion

    def off_by_one(self, name, k):
        value = expansion(self, name, k)
        return value + 1 if (name, k) == (factor, 1) else value

    monkeypatch.setattr(coeffs._LocalTables, "expansion", off_by_one)
    check = next(c for c in CHECKS if c.check_id == check_id)
    res = run_check(check, RunConfig())
    assert not res.ok, f"{check_id} passed with a wrong local value"
    assert not res.detail.startswith("error:"), res.detail


def test_schur_tableau_fails_on_a_missing_partition(monkeypatch):
    """Without the partitions with l3 = 0 both routes still agree, on 52
    points; the check decides on its count, 112, and so fails."""
    partitions = symfunc.partitions3_of
    monkeypatch.setattr(symfunc, "partitions3_of",
                        lambda d: (lam for lam in partitions(d) if lam.l3 != 0))
    check = next(c for c in CHECKS if c.check_id == "schur-tableau")
    res = run_check(check, RunConfig())
    assert not res.ok
    assert res.detail == "determinant and tableau routes agree at 52 points"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_max=5)
    with pytest.raises(ValueError):
        RunConfig(p_max=2)
    with pytest.raises(ValueError, match="n_max"):
        RunConfig(n_max=10**5 + 1)
    with pytest.raises(ValueError, match="p_max"):
        RunConfig(p_max=351)
    RunConfig(n_max=10**5, p_max=350)
    # a fault the checks do not know would otherwise pass every check unseen
    for bad in ("gauss-root", "", "no-such-check", "schur-tableau", "gauss-window", "clgp-random"):
        with pytest.raises(ValueError, match="inject_fault"):
            RunConfig(p_max=20, inject_fault=bad)


def _float_only(fn):
    """fn's NaN stand-in on the float route; the exact route runs as before."""
    def patched(*args):
        return [complex("nan")] if args[-1] == FLOAT else fn(*args)
    return patched


NAN_SOURCES = [
    ("gauss-modulus", characters, "gauss_classical", lambda chi, mode: complex("nan")),
    ("gauss-factor", characters, "gauss_factorization_residual", lambda chi: nan),
    ("gauss-root", characters, "dirichlet_root_number", lambda chi: complex("nan")),
    ("addtomult-prim", characters, "addtomult_residuals", lambda chi, ns, mode: [nan] * len(ns)),
    ("gl31-decomp", twists, "unit_average", lambda x, q, parity: complex("nan")),
    ("cauchy-gradewise", symfunc, "cauchy_check", _float_only(symfunc.cauchy_check)),
    ("hurwitz-anchors", funceq, "hurwitz_zeta_star", lambda s, a: nan),
    ("dirichlet-fe", funceq, "fe_residual_dirichlet", lambda chi, s: nan),
    ("dirichlet-fe", funceq, "dirichlet_L", lambda s, chi: complex("nan")),
    ("synthetic-fe", funceq, "synthetic_fe_check", lambda *args: funceq.SyntheticFEReport(
        1 + 0j, 125, [(0.5, 0.0), (0.5 + 1j, nan), (0.3 + 0.7j, 0.0)])),
    ("fe-root-modulus", twists, "fe_root_number", lambda *args: complex("nan")),
]


@pytest.mark.parametrize("check_id, module, name, nan_source", NAN_SOURCES,
                         ids=[f"{c}-{n}" for c, _, n, _ in NAN_SOURCES])
def test_nan_residual_fails_its_check(monkeypatch, check_id, module, name, nan_source):
    """max(0.0, nan) is 0.0, so a worst residual taken with max() passes a NaN."""
    monkeypatch.setattr(module, name, nan_source)
    check = next(c for c in CHECKS if c.check_id == check_id)
    res = run_check(check, RunConfig(n_max=60, p_max=20))
    assert not res.ok, res.detail
    assert not res.detail.startswith("error:"), res.detail
    assert "nan" in res.detail, res.detail
