"""The check registry: determinism, coverage, and fault injection."""

import pytest

from rslab.registry import (
    CHECKS,
    FAULT_CAPABLE,
    SUITES,
    RunConfig,
    run_check,
    run_suite,
)


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
    for bad in ("gauss-window", "", "no-such-check"):
        with pytest.raises(ValueError, match="inject_fault"):
            RunConfig(p_max=20, inject_fault=bad)
