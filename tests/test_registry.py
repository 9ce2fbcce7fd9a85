"""The check registry: determinism, coverage, and fault injection."""

from math import nan

import pytest

from rslab import characters, funceq, symfunc, twists
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


def test_fault_injection_breaks_named_checks():
    """Corrupting the inputs must flip the targeted check to failure --
    the detector is not vacuous."""
    for check_id in sorted(FAULT_CAPABLE):
        cfg = RunConfig(n_max=60, p_max=20, inject_fault=check_id)
        check = next(c for c in CHECKS if c.check_id == check_id)
        res = run_check(check, cfg)
        assert not res.ok, f"{check_id} still passed with a fault injected"
        # an exception also fails a check, but shows only that the hook raised
        assert not res.detail.startswith("error:"), res.detail
        # and the rest of its suite is untouched
        others = [
            run_check(c, cfg)
            for c in CHECKS
            if c.suite == check.suite and c.check_id != check_id
        ]
        assert all(r.ok for r in others)


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
    for bad in ("gauss-root", "", "no-such-check"):
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
