"""The check registry: determinism, coverage, fault injection, and each
check shown able to fail."""

import json
from math import nan

import pytest

from rslab import characters, coeffs, cyclotomic, euler, funceq, matid, registry, symfunc, twists
from rslab.arith import largest_prime_powers
from rslab.characters import char_group
from rslab.cli import main
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


@pytest.fixture
def uncached_groups():
    """Empty `char_group`'s cache before and after, so no group keeps a
    phase row or a tau built by another test or by a mutant."""
    char_group.cache_clear()
    yield
    char_group.cache_clear()


def _mutate_phase_row(monkeypatch, mutant):
    row = characters.CharGroup.phase_row

    def mutated(group):
        columns, phases = row(group)
        return columns, mutant(phases)

    monkeypatch.setattr(characters.CharGroup, "phase_row", mutated)


def test_a_scaled_phase_fails_gauss_modulus(monkeypatch, capsys, uncached_groups):
    """Every float tau(chi) sums against its group's one phase row: e(1/q)
    scaled by 1.5 fails gauss-modulus, and `verify --suite gauss` exits 2."""
    _mutate_phase_row(monkeypatch, lambda phases: [1.5 * phases[0], *phases[1:]])
    assert main(["verify", "--suite", "gauss", "--json"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert not next(r for r in records if r["check"] == "gauss-modulus")["ok"]


def test_a_conjugated_phase_row_fails_the_modulus_3_anchor(monkeypatch, capsys, uncached_groups):
    """With the row conjugated, tau(chi) becomes chi(-1) tau(chi): gauss-modulus
    and gauss-factor cannot see it, but gauss-root's anchor tau = i sqrt(3)
    at modulus 3 fails, and so does every check that uses tau's phase."""
    _mutate_phase_row(monkeypatch, lambda phases: [w.conjugate() for w in phases])
    assert main(["verify", "--suite", "all", "--json"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failed = {r["check"]: r["detail"] for r in records if not r["ok"]}
    assert failed["gauss-root"].startswith("tau at modulus 3 is "), failed["gauss-root"]
    assert sorted(failed) == ["addtomult-prim", "dirichlet-fe", "gauss-root", "gl31-decomp",
                              "synthetic-fe"]


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


def test_gl31_decomp_guards_the_shared_exponent_map_kernel(monkeypatch):
    """The exact gl31 route folds `exponent_maps` of conj(chi); each map one
    count short fails gl31-decomp (at q = 3, n = 1), while the other checks
    of its suite, which reach the kernel through `characters`, still pass."""
    kernel = characters.exponent_maps

    def short_by_one(chi, m, rs):
        for big, weights in kernel(chi, m, rs):
            weights = dict(weights)
            weights[next(iter(weights))] -= 1
            yield big, weights

    monkeypatch.setattr(twists, "exponent_maps", short_by_one)
    _fails_alone("gl31-decomp")


@pytest.mark.parametrize("mutant", [
    lambda twist, stream, beta, parity: twist(stream, beta, 0),
    lambda twist, stream, beta, parity: twist(stream, 2 * beta, parity),
], ids=["parity-forced-to-0", "phase-doubled"])
def test_gl31_decomp_guards_the_twist_engine(monkeypatch, capsys, mutant):
    """gl31-decomp's float half reads its additive twists from
    `additive_twist`, the engine of `rslab twist`: with the parity forced to
    0 (the odd character mod 8 fails), or the phase e(n beta) read at
    2 n beta, the decomposition fails and `verify --suite addtomult` exits
    2, while the other checks of the suite, which never call the engine,
    still pass."""
    twist = twists.additive_twist
    monkeypatch.setattr(twists, "additive_twist", lambda *args: mutant(twist, *args))
    assert main(["verify", "--suite", "addtomult", "--json"]) == 2
    capsys.readouterr()
    _fails_alone("gl31-decomp")


def test_gl31_decomp_guards_the_shared_table_cap(monkeypatch, capsys):
    """gl31-decomp lists one parameter object at every prime <= 12, so
    `additive_twist` builds one table for all of them; cut at the cap of the
    last prime listed (11: k <= 1) in place of the first (2: k <= 3), a(4)
    reads past its end, and `verify --suite addtomult` exits 2 with only
    gl31-decomp failing."""
    tables = twists.prime_power_tables

    def cut_at_last(entries, n_max, table):
        last = max(entries)
        k = max(j for j in range(n_max.bit_length()) if last**j <= n_max)
        return tables(entries, n_max, lambda entry, _: table(entry, k))

    monkeypatch.setattr(twists, "prime_power_tables", cut_at_last)
    assert main(["verify", "--suite", "addtomult", "--json"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["check"] for r in records if not r["ok"]] == ["gl31-decomp"]


def test_nan_unit_average_fails_gl31_decomp(monkeypatch):
    """A NaN from `unit_average` stops at `additive_twist`'s refusal of a
    coefficient that is not finite: gl31-decomp fails with that error."""
    monkeypatch.setattr(twists, "unit_average", lambda t, q, parity: complex("nan"))
    check = next(c for c in CHECKS if c.check_id == "gl31-decomp")
    res = run_check(check, RunConfig(n_max=60, p_max=20))
    assert not res.ok
    assert res.detail == "error: ValueError: coefficient a(1) overflows a float", res.detail


def test_doublesum_random_guards_the_shared_sieve(monkeypatch, capsys):
    """The coefficient streams share one `largest_prime_powers` table, so a
    wrong exponent there cancels out of standardcoeff, which compares two
    such streams.  doublesum-random compares the double sum c(n), whose m1
    part comes from `factorize(m1)` and not from the table, with the pairing
    stream, and is the sieve's guard: with exp[m] in place of exp[m] + 1
    (every p^k read as p^1) `verify --suite doublesum` exits 2 and
    doublesum-random fails on a comparison."""

    def wrong_exponents(n):
        top, rest, exp = largest_prime_powers(n)
        for k in range(2, n + 1):
            m = k // top[k]
            if top[m] == top[k]:
                exp[k] = exp[m]
        return top, rest, exp

    monkeypatch.setattr(coeffs, "largest_prime_powers", wrong_exponents)
    assert main(["verify", "--suite", "doublesum", "--json"]) == 2
    records = {r["check"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    guard = records["doublesum-random"]
    assert not guard["ok"] and not guard["detail"].startswith("error:"), guard
    assert records["standardcoeff"]["ok"], records["standardcoeff"]


def test_doublesum_random_guards_the_stream_kernel(monkeypatch, capsys):
    """A kernel that reads a(p^(k-1)) for a(p^k) corrupts every stream
    `CoeffStreams` builds, the same way on both sides of standardcoeff; the
    m1 part of c(n) comes from `factorize(m1)`, so doublesum-random fails on
    a comparison."""

    def shifted(local, powers, a1):
        return euler.sieve_stream({p: [None, *t] for p, t in local.items()}, powers, a1)

    monkeypatch.setattr(coeffs, "sieve_stream", shifted)
    assert main(["verify", "--suite", "doublesum", "--json"]) == 2
    records = {r["check"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    guard = records["doublesum-random"]
    assert not guard["ok"] and not guard["detail"].startswith("error:"), guard
    assert records["standardcoeff"]["ok"], records["standardcoeff"]


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


@pytest.mark.parametrize("check_id, detail", [
    ("gauss-factor", "on 18 characters"),
    ("addtomult-prim", "on 156 pairs"),
    ("fe-root-modulus", "over 18 unitary draws"),
])
def test_counts_decide_on_fewer_characters(monkeypatch, check_id, detail):
    """Without the first primitive character of each modulus every residual
    still passes; each check fails on its count fixed by construction (22,
    192 and 24), with its usual detail."""
    primitive_chars = registry._primitive_chars
    monkeypatch.setattr(registry, "_primitive_chars", lambda q: primitive_chars(q)[1:])
    check = next(c for c in CHECKS if c.check_id == check_id)
    res = run_check(check, RunConfig())
    assert not res.ok, res.detail
    assert not res.detail.startswith("error:") and res.detail.endswith(detail), res.detail


@pytest.mark.parametrize("check_id, detail", [
    ("cauchy-gradewise", "40 graded residuals vanish over 5 parameter sets"),
    ("cauchy-two-row", "two-row regrouping matches on 32 graded pieces"),
])
def test_counts_decide_on_fewer_degrees(monkeypatch, check_id, detail):
    """With the top degree of every graded identity dropped, the residuals
    left still vanish; the checks fail on their counts, 45 and 36."""
    cauchy_check = symfunc.cauchy_check
    monkeypatch.setattr(symfunc, "cauchy_check", lambda *args: cauchy_check(*args)[:-1])
    check = next(c for c in CHECKS if c.check_id == check_id)
    res = run_check(check, RunConfig())
    assert not res.ok, res.detail
    assert res.detail.startswith(detail), res.detail


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
    ("gl31-decomp", twists, "gauss_classical", lambda chi, mode: complex("nan")),
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
