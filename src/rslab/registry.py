"""Named verification checks, grouped into suites for the CLI.

Each check is a small, deterministic instance of one of the library's
identities: exact where the arithmetic is exact, float with explicit
tolerances where it is not.  The registry is static so the CLI and the
test-suite agree on ids; `run_suite` drives everything.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from math import gcd, isnan, nan, pi
from typing import NamedTuple

from . import characters, coeffs, funceq, langlands, matid, symfunc, twists
from .arith import primes_up_to
from .characters import char_group
from .coeffs import CoeffData
from .euler import EulerFactorPoly, poly_mul
from .matid import CosetContext, FactorizationInstance, Mat
from .scalars import EXACT, FLOAT
from .symfunc import Partition3

EULER_GAMMA = 0.5772156649015329
CATALAN = 0.915965594177219


class RunConfig:
    __slots__ = ("n_max", "p_max", "seed", "inject_fault")

    def __init__(self, n_max: int = 200, p_max: int = 40, seed: int = 1729,
                 inject_fault: str | None = None):
        # on 2 vCPUs, `verify --suite gauss` takes about 1.1 s at the p_max
        # bound, and `verify --suite doublesum` 1.5-2.0 s and 32 MB at n_max's
        if not 10 <= n_max <= 10**5:
            raise ValueError(f"n_max must be in [10, {10**5}], got {n_max}")
        if not 5 <= p_max <= 350:
            raise ValueError(f"p_max must be in [5, 350], got {p_max}")
        if inject_fault is not None and inject_fault not in FAULT_CAPABLE:
            raise ValueError(f"inject_fault must be one of: {', '.join(sorted(FAULT_CAPABLE))}")
        self.n_max, self.p_max, self.seed, self.inject_fault = n_max, p_max, seed, inject_fault


class CheckResult(NamedTuple):
    check_id: str
    suite: str
    ok: bool
    detail: str


class Check(NamedTuple):
    """One named check.  `mode` names the routes whose comparisons decide its
    verdict: "exact" (integers, Fraction, cyclotomic), "float" (complex
    values against a tolerance) or "exact+float" (both, on every run)."""

    check_id: str
    suite: str
    mode: str
    description: str
    runner: object


def _rand_fracs(rng: random.Random, k: int, nonzero: bool = False) -> tuple:
    out = []
    while len(out) < k:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if nonzero and f == 0:
            continue
        out.append(f)
    return tuple(out)


def _rand_pairs(rng: random.Random, k: int) -> list:
    """k random (alphas, gammas): three fractions, then two nonzero ones."""
    return [(_rand_fracs(rng, 3), _rand_fracs(rng, 2, nonzero=True)) for _ in range(k)]


def _rand_units(rng: random.Random, k: int) -> tuple:
    return tuple(cmath.exp(2j * pi * rng.random()) for _ in range(k))


def _worst(residuals) -> float:
    """The largest residual (0.0 if none), or NaN if any is NaN: max() keeps
    a NaN only in first place, and `worst < tol` must fail on one."""
    residuals = list(residuals)
    return nan if any(map(isnan, residuals)) else max(residuals, default=0.0)


# -- cauchy -------------------------------------------------------------------


def _run_cauchy(cfg: RunConfig, rng: random.Random):
    sets = [((1, 2, 3), (1, 2)), ((Fraction(1, 2), -1, 3), (Fraction(2, 3), -2)),
            *_rand_pairs(rng, 3)]
    count = 0
    for alphas, gammas in sets:
        res = symfunc.cauchy_check(alphas, gammas, 8, EXACT)
        if any(r != 0 for r in res):
            return False, f"nonzero exact residual for {alphas}, {gammas}"
        count += len(res)
    worst = _worst(
        abs(r) for _ in sets
        for r in symfunc.cauchy_check(_rand_units(rng, 3), _rand_units(rng, 2), 8, FLOAT)
    )
    if not worst <= 1e-9:
        return False, f"float residual {worst:.2e} exceeds 1e-9"
    # 9 degrees (0 to 8) for each of the 5 sets
    return count == 45, (f"{count} graded residuals vanish over {len(sets)} parameter sets; "
                         f"float residual <= {worst:.2e} over {len(sets)} unit sets")


def _run_two_row(cfg: RunConfig, rng: random.Random):
    sets = [((1, 2, 3), (1, 2)), *_rand_pairs(rng, 3)]
    count = 0
    for alphas, gammas in sets:
        res = symfunc.cauchy_check(alphas, gammas, 8, EXACT)
        if any(r != 0 for r in res):
            return False, f"nonzero residual for {alphas}, {gammas}"
        count += len(res)
    return count == 36, f"two-row regrouping matches on {count} graded pieces"


def _run_schur_tableau(cfg: RunConfig, rng: random.Random):
    points = [(1, 2, 3), (2, 2, 5), (1, 1, 1), _rand_fracs(rng, 3)]
    checked = 0
    for d in range(0, 9):
        for lam in symfunc.partitions3_of(d):
            if lam.l1 > 4:
                continue
            for xs in points:
                a = symfunc.schur3(lam, xs)
                b = symfunc.schur3_tableau(lam, xs)
                if a != b:
                    return False, f"s_{lam.parts} disagrees at {xs}: {a} vs {b}"
                checked += 1
    # 28 partitions at 4 points each: a partition lost upstream fails the count
    return checked == 112, f"determinant and tableau routes agree at {checked} points"


# -- doublesum ----------------------------------------------------------------


def _run_doublesum_anchor(cfg: RunConfig, rng: random.Random):
    data = CoeffData.constant((1, 2, 3), (1, 2), 9)
    anchors = [
        (coeffs.lambda_double(2, 1, data), 11),
        (coeffs.lambda_double(1, 4, data), 25),
        (coeffs.lambda_tau(4, data), 7),
        (coeffs.c_pi_tau(2, data), 18),
        (coeffs.c_pi_tau(4, data), 197),
        (symfunc.schur3(Partition3(2, 1, 0), (1, 1, 1)), 8),
        (symfunc.elementary_symmetric(2, (1, 2, 3)), 11),
    ]
    for got, want in anchors:
        if got != want:
            return False, f"anchor mismatch: got {got}, want {want}"
    return True, "frozen coefficient anchors (11, 25, 7, 18, 197, 8, 11) hold"


def _run_doublesum_random(cfg: RunConfig, rng: random.Random):
    n_max = cfg.n_max
    sets = [((1, 2, 3), (1, 2)), *_rand_pairs(rng, 3)]
    for alphas, gammas in sets:
        data = CoeffData.constant(alphas, gammas, n_max)
        if cfg.inject_fault == "doublesum-random":
            # deliberately corrupt one local parameter so the harness must trip
            data = CoeffData({p: (a, (g1, g2 + (1 if p == 2 else 0)), c)
                              for p, (a, (g1, g2), c) in data.local.items()})
        s = coeffs.CoeffStreams(data, n_max)
        bad = [n for n, (c, pair) in enumerate(zip(s.c(), s.expansion("pair"))) if c != pair]
        if bad:
            return False, f"convolution identity fails at n={bad[:5]} for {alphas}"
    return True, f"double-sum identity exact for n <= {n_max}, {len(sets)} parameter sets"


def _run_standardcoeff(cfg: RunConfig, rng: random.Random):
    n_max = cfg.n_max
    sets = [((1, 2, 3), (1, 2)), *_rand_pairs(rng, 1)]
    for alphas, gammas in sets:
        data = CoeffData.constant(alphas, gammas, n_max)
        s = coeffs.CoeffStreams(data, n_max)
        bad = [n for n, (lam, std) in enumerate(zip(s.schur(), s.expansion("pi"))) if lam != std]
        if bad:
            return False, f"degenerate-index identity fails at n={bad[:5]}"
    return True, f"lambda(1, n) = lambda(n) for all n <= {n_max}"


def _run_twist_compat(cfg: RunConfig, rng: random.Random):
    data = CoeffData.constant(*_rand_pairs(rng, 1)[0], 100)
    units = {p: Fraction(rng.choice([1, -1])) for p in data.local}
    residuals = coeffs.twist_compatibility_check(100, data, units)
    bad = [n for n, r in enumerate(residuals, 1) if r != 0]
    if bad:
        return False, f"unit-twist compatibility fails at n={bad[:5]}"
    return True, "twisted coefficients scale by the unit value for n <= 100"


# -- aux ----------------------------------------------------------------------


def _run_aux_grid(cfg: RunConfig, rng: random.Random):
    checked = 0
    for p in (2, 5):
        for b in (1, 2, 3):
            for m in (1, 2, 3):
                for e1, e2 in ((1, 1), (1, -1), (Fraction(2, 3), 1), (None, 1), (1, None)):
                    blk1 = langlands.SteinbergBlock(b, e1)
                    blk2 = langlands.SteinbergBlock(m, e2)
                    full = langlands.rs_full_local(blk1, blk2, p)
                    naive = langlands.rs_naive_local(
                        langlands.block_params(blk1, p), langlands.block_params(blk2, p)
                    )
                    quot = langlands.rs_quotient_poly(blk1, blk2, p)
                    lo, hi = min(b, m), max(b, m)
                    expect = EulerFactorPoly.one()
                    if e1 is not None and e2 is not None:
                        for i in range(lo - 1):
                            factor = EulerFactorPoly(
                                [1, -Fraction(e1) * Fraction(e2) / p ** (hi - 1 + i)]
                            )
                            expect = poly_mul(expect, factor)
                    if quot != expect:
                        return False, f"quotient mismatch at p={p}, b={b}, m={m}"
                    if poly_mul(naive, quot) != full:
                        return False, f"naive * quotient != full at p={p}, b={b}, m={m}"
                    checked += 1
    return checked == 90, f"local quotient closed form verified on {checked} (p, b, m, units) cells"


def _run_aux_steinberg(cfg: RunConfig, rng: random.Random):
    for p in (2, 7):
        quot = langlands.rs_quotient_poly(
            langlands.SteinbergBlock(3, 1), langlands.SteinbergBlock(2, 1), p
        )
        if list(quot.coeffs) != [Fraction(1), -Fraction(1, p * p)]:
            return False, f"full-block quotient at p={p} is {quot.coeffs}"
    return True, "full 3x2 block pair has quotient 1 - p^-2 X at p = 2 and 7"


def _run_aux_degenerate(cfg: RunConfig, rng: random.Random):
    cases = [
        (langlands.SteinbergBlock(1, 1), langlands.SteinbergBlock(3, Fraction(1, 2))),
        (langlands.SteinbergBlock(4, -1), langlands.SteinbergBlock(1, 1)),
        (langlands.SteinbergBlock(2, None), langlands.SteinbergBlock(3, 1)),
        (langlands.SteinbergBlock(1, 1), langlands.SteinbergBlock(1, None)),
    ]
    for blk1, blk2 in cases:
        if not langlands.degenerate_factor_check(blk1, blk2, 3):
            return False, f"degenerate quotient not 1 for b={blk1.b}, m={blk2.b}"
    return True, "quotient collapses to 1 whenever one block is minimal or ramified"


# -- gauss --------------------------------------------------------------------


def _run_gauss_modulus(cfg: RunConfig, rng: random.Random):
    errs = []
    for q in range(2, cfg.p_max + 1):
        for chi in char_group(q).primitive_characters():
            tau = characters.gauss_classical(chi, FLOAT)
            err = abs(abs(tau) ** 2 - q)
            if cfg.inject_fault == "gauss-modulus":
                err += 1
            errs.append(err / q)
    worst = _worst(errs)
    ok = worst < 1e-9
    return ok, f"| |tau|^2 - q | / q <= {worst:.2e} over {len(errs)} primitive characters"


def _run_gauss_window(cfg: RunConfig, rng: random.Random):
    tried = 0
    for q in (9, 12, 16, 18, 24):
        chars = list(char_group(q).characters())
        rng.shuffle(chars)
        for chi in chars[:3]:
            for q2 in characters.window_moduli(chi):
                ok, failures = characters.nonvanishing_window_check(chi, q2)
                if not ok:
                    return False, f"vanishing twisted sum at q={q}, q2={q2}, r={failures[:3]}"
                tried += 1
    return True, f"twisted sums nonzero on {tried} in-window (chi, q2) pairs"


def _run_gauss_factorization(cfg: RunConfig, rng: random.Random):
    errs = [characters.gauss_factorization_residual(chi)
            for q in (15, 21, 24, 35, 40) for chi in char_group(q).primitive_characters()[:6]]
    worst = _worst(errs)
    ok = worst < 1e-9 and len(errs) == 22  # 3 + 5 + 2 + 6 + 6 characters
    return ok, f"prime-power factorization residual <= {worst:.2e} on {len(errs)} characters"


def _run_gauss_root(cfg: RunConfig, rng: random.Random):
    errs = [abs(abs(characters.dirichlet_root_number(chi)) - 1)
            for q in range(3, cfg.p_max + 1) for chi in char_group(q).primitive_characters()]
    chi3 = next(c for c in char_group(3).characters() if not c.is_trivial())
    tau3 = characters.gauss_classical(chi3, FLOAT)
    if not abs(tau3 - 1j * 3**0.5) <= 1e-12:
        return False, f"tau at modulus 3 is {tau3}, expected i*sqrt(3)"
    worst = _worst(errs)
    ok = worst < 1e-9
    return ok, f"| |eps(chi)| - 1 | <= {worst:.2e} on {len(errs)} primitive characters"


# -- addtomult ----------------------------------------------------------------


def _run_addtomult(cfg: RunConfig, rng: random.Random):
    errs = []
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        prims = list(char_group(q).primitive_characters())
        rng.shuffle(prims)
        for chi in prims[:2]:
            ns = rng.sample(range(1, 61), 10) + [q, 2 * q]
            errs += characters.addtomult_residuals(chi, ns, FLOAT)
    worst = _worst(errs)
    ok = worst < 1e-10 and len(errs) == 192  # 12 n for each of (7 * 2 + 2) characters
    return ok, f"additive-to-multiplicative residual <= {worst:.2e} on {len(errs)} pairs"


def _run_gl31_decomposition(cfg: RunConfig, rng: random.Random):
    data = CoeffData.constant((1, 2, 3), (1, 2), 30)
    for q in (3, 4, 5):
        for chi in char_group(q).primitive_characters():
            for n, r in enumerate(twists.gl31_decomposition_residuals(chi, data, range(1, 16)), 1):
                if r != 0:
                    return False, f"exact decomposition fails at q={q}, n={n} (residual {r})"
    params = dict.fromkeys(primes_up_to(12), _rand_units(rng, 3))
    worst = _worst(r for _, res in twists.gl31_twist_residuals(8, params, 12) for r in res)
    ok = worst < 1e-10
    return ok, f"exact at q<=5; float residual <= {worst:.2e} at q=8"


def _run_twisted_series(cfg: RunConfig, rng: random.Random):
    data = CoeffData.constant((1, 2, 3), (1, 2), 20)
    # level 1: the prefactor is exactly 1, so the series is the pairing
    # stream itself (lam_pair(1) = 1)
    one = twists.twisted_prefactor(char_group(1).trivial(), 1, 1, 1, 1, data)
    if one != 1:
        return False, f"level-1 prefactor is {one}, not 1"
    # zeta = 1: prefactor equals the twisted sum itself
    for chi in list(char_group(12).characters())[:6]:
        for q2 in characters.window_moduli(chi):
            t = twists.twisted_prefactor(chi, twists.forced_q1(12, q2), q2, 1, 1, data)
            tau = characters.gauss_beta(chi, Fraction(1, q2), EXACT)
            if not (t - tau).is_zero():
                return False, f"prefactor != twisted sum at q2={q2} for {chi}"
    # nontrivial zeta on a level-4 primitive character, exact square case
    chi4 = char_group(4).primitive_characters()[0]
    t = twists.twisted_prefactor(chi4, 4, 4, 1, 16, data)
    manual = characters.gauss_beta(chi4, Fraction(1, 4), EXACT) * (
        Fraction(16, 64) * coeffs.lambda_tau(16, data)
    )
    if not (t - manual).is_zero():
        return False, "prefactor with zeta = 16 disagrees with manual assembly"
    return True, "prefactor degenerations (level 1, zeta = 1, zeta = q^2) all match"


# -- clgp ---------------------------------------------------------------------


def _rand_matrix(rng: random.Random) -> Mat:
    while True:
        M = Mat([[Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2)]
                 for _ in range(2)])
        if M.det() != 0:
            return M


def _rand_unimodular(rng: random.Random) -> Mat:
    g = Mat.identity(2)
    for _ in range(4):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            g = g * Mat([[1, k], [0, 1]])
        else:
            g = g * Mat([[1, 0], [k, 1]])
    if rng.random() < 0.5:
        g = g * Mat([[0, -1], [1, 0]])
    return g


def _run_clgp_anchor(cfg: RunConfig, rng: random.Random):
    ctx = CosetContext(5, 6, 7)
    out = matid.coset_reduce(Mat([[0, -1], [1, 0]]), ctx)
    if (out.gamma1, out.gamma2) != (Fraction(5), Fraction(1, 25)):
        return False, f"anchor reduction gave ({out.gamma1}, {out.gamma2})"
    return True, "anchor matrix reduces to gamma1 = 5, gamma2 = 1/25"


def _run_clgp_random(cfg: RunConfig, rng: random.Random):
    ctxs = [CosetContext(5, 6, 7), CosetContext(3, 4, 7), CosetContext(2, 9, 5),
            CosetContext(7, 10, 3)]
    count = 0
    for ctx in ctxs:
        for _ in range(10):
            M = _rand_matrix(rng)
            out = matid.coset_reduce(M, ctx)
            if (out.u * M * out.g) != out.canonical_matrix():
                return False, f"witnesses do not reproduce the canonical form for {M}"
            if out.gamma1 <= 0 or out.gamma2 == 0:
                return False, f"degenerate invariants ({out.gamma1}, {out.gamma2})"
            count += 1
    return count == 40, f"{count} random matrices reduce with verified witnesses"


def _run_clgp_invariance(cfg: RunConfig, rng: random.Random):
    ctx = CosetContext(5, 6, 7)
    for _ in range(8):
        M = _rand_matrix(rng)
        base = matid.coset_reduce(M, ctx)
        u0 = matid.upper_unipotent2(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        g0 = _rand_unimodular(rng)
        pert = matid.coset_reduce(u0 * M * g0, ctx)
        if (base.gamma1, base.gamma2) != (pert.gamma1, pert.gamma2):
            return False, "invariants changed under allowed left/right moves"
    return True, "invariants stable under 8 random left-unipotent/right-integral moves"


def _run_clgp_support(cfg: RunConfig, rng: random.Random):
    ctx = CosetContext(5, 6, 7)
    for _ in range(6):
        g1 = Fraction(5 * rng.randint(1, 5))
        g2 = Fraction(rng.choice([1, -1]) * rng.randint(1, 9), 5 ** rng.randint(0, 2))
        M = Mat([[g1 * g2, 0], [g1 * ctx.alpha, g1]])
        out = matid.coset_reduce(M, ctx)
        if not matid.coset_in_support(out.gamma1, out.gamma2, ctx):
            return False, f"in-support pair ({g1}, {g2}) flagged as out of support"
    bad = [(Fraction(1), Fraction(1)), (Fraction(5), Fraction(1, 125)),
           (Fraction(5), Fraction(1, 3))]
    for g1, g2 in bad:
        if matid.coset_in_support(g1, g2, ctx):
            return False, f"out-of-support pair ({g1}, {g2}) accepted"
    return True, "support predicate separates 6 admissible from 3 inadmissible pairs"


def _run_unipotent_split(cfg: RunConfig, rng: random.Random):
    for p in (5, 7):
        for uval in (1, 2, 3, -4, p + 1):
            ok, (left, mid, right) = matid.verify_lower_unipotent_split(Fraction(uval), p)
            if not ok:
                return False, f"split fails for u={uval}, p={p}"
            if mid != Mat.diag(Fraction(p), Fraction(1, p)) or right.det() != 1:
                return False, f"split pieces malformed for u={uval}, p={p}"
    return True, "lower-unipotent split verified for 10 (u, p) pairs"


# -- matid --------------------------------------------------------------------


def _run_matid_anchor(cfg: RunConfig, rng: random.Random):
    inst = FactorizationInstance.make_consistent(3, 1, 1, w=1)
    if inst.v != 2 or inst.u != 6:
        return False, f"anchor instance solved to v={inst.v}, u={inst.u}"
    rep = matid.verify_3x3_factorization(inst)
    if not rep.identity_ok or not rep.det_gamma_ok:
        return False, f"anchor identity fails: {rep}"
    if rep.beta1_prime != 0:
        return False, f"anchor beta1' = {rep.beta1_prime}, expected 0"
    if not rep.all_side_conditions:
        return False, f"side conditions fail: {rep}"
    return True, "anchor instance (q=3) factorizes with all side conditions"


def _run_matid_random(cfg: RunConfig, rng: random.Random):
    count = 0
    for _ in range(20):
        q = rng.choice([2, 3, 4, 5, 7, 9])
        n = rng.choice([k for k in range(1, 13) if gcd(k, q) == 1])
        r = rng.choice([k for k in range(1, q + 1) if gcd(k, q) == 1])
        w = rng.randint(1, 3)
        a_j = Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2]))
        a_k = Fraction(rng.choice([1, 2, 5, -3]), rng.choice([1, 3]))
        inst = FactorizationInstance.make_consistent(q, n, r, w, a_j, a_k)
        rep = matid.verify_3x3_factorization(inst)
        if not (rep.identity_ok and rep.det_gamma_ok):
            return False, f"identity fails at q={q}, n={n}, r={r}: {rep}"
        kappa = Mat([[1, Fraction(rng.randint(-5, 5))], [Fraction(rng.randint(-2, 2)),
                     Fraction(rng.choice([1, 2]))]])
        if kappa.det() == 0:
            kappa = Mat.identity(2)
        rep2 = matid.verify_3x3_factorization(inst, kappa)
        if not (rep2.identity_ok and rep2.det_gamma_ok):
            return False, f"identity fails for a generic invertible block at q={q}"
        count += 2
    return count == 40, f"{count} factorization instances verified entrywise"


def _run_conductor(cfg: RunConfig, rng: random.Random):
    for _ in range(10):
        n = rng.randint(1, 50)
        q = rng.randint(1, 20)
        ok, mism = twists.conductor_exponent_check(n, q, n * n * q**3)
        if not ok:
            return False, f"exponent bookkeeping fails at n={n}, q={q}: {mism}"
    ok, _ = twists.conductor_exponent_check(6, 3, 500)
    if ok:
        return False, "mismatched conductor accepted"
    return True, "conductor exponents 2*ord(n) + 3*ord(q) confirmed on 10 draws"


# -- funceq -------------------------------------------------------------------


def _run_hurwitz_anchors(cfg: RunConfig, rng: random.Random):
    checks = [
        ("zeta(2)", abs(funceq.hurwitz_zeta(2, 1.0) - pi**2 / 6)),
        ("zeta(0, a)", abs(funceq.hurwitz_zeta(0, 0.3) - 0.2)),
        ("regularized value at 1", abs(funceq.hurwitz_zeta_star(1, 1.0) - EULER_GAMMA)),
    ]
    s0 = 2.3 + 1.1j
    rel = abs(
        funceq.hurwitz_zeta(s0, 0.5) - (2**s0 - 1) * funceq.hurwitz_zeta(s0, 1.0)
    ) / abs(funceq.hurwitz_zeta(s0, 0.5))
    checks.append(("half-shift identity", rel))
    if funceq.bernoulli_number(12) != Fraction(-691, 2730):
        return False, "Bernoulli recurrence broken at B_12"
    worst = _worst(err for _, err in checks)
    ok = worst < 1e-11
    return ok, f"series anchors hold to {worst:.2e}"


def _run_dirichlet_fe(cfg: RunConfig, rng: random.Random):
    chi4 = char_group(4).primitive_characters()[0]
    err_l = abs(funceq.dirichlet_L(1, chi4) - pi / 4)
    err_cat = abs(funceq.dirichlet_L(2, chi4) - CATALAN)
    anchors = _worst((err_l, err_cat))
    if not anchors <= 1e-11:
        return False, f"L-value anchors off by {anchors:.2e}"
    worst = _worst(funceq.fe_residual_dirichlet(chi, s)
                   for q in (3, 4, 5) for chi in char_group(q).primitive_characters()[:2]
                   for s in (0.5, 0.5 + 1j, 0.25 + 2j))
    ok = worst < funceq.FE_TOL
    return ok, f"completed-function reflection residual <= {worst:.2e}"


def _run_synthetic_fe(cfg: RunConfig, rng: random.Random):
    chi = char_group(5).primitive_characters()[0]
    report = funceq.synthetic_fe_check(
        chi, (0.5, -0.3, 0.1), 0.2, [0.5, 0.5 + 1j, 0.3 + 0.7j]
    )
    if report.conductor != 125:
        return False, f"composite conductor {report.conductor}, expected 125"
    if not abs(abs(report.eps) - 1) <= 1e-9:
        return False, f"|composite eps| = {abs(report.eps)}"
    worst = _worst(r for _, r in report.residuals)
    ok = worst < funceq.FE_TOL and len(report.residuals) == 3
    return ok, f"degree-6 reflection residual <= {worst:.2e}"


def _run_fe_root_modulus(cfg: RunConfig, rng: random.Random):
    errs = []
    for q in (5, 7, 8):
        group = char_group(q)
        rs = group.phase_row()[0]
        for chi in group.primitive_characters()[:3]:
            for _ in range(3):
                units = _rand_units(rng, 5)
                r, rp = rng.choice(rs), rng.choice(rs)
                eps = twists.fe_root_number(
                    units[0], units[1], units[2], units[3], units[4],
                    chi, Fraction(r, q), Fraction(rp, q),
                )
                errs.append(abs(abs(eps) - 1))
    worst = _worst(errs)
    ok = worst < 1e-9 and len(errs) == 24  # 3 draws for each of 3 + 3 + 2 characters
    return ok, f"| |eps| - 1 | <= {worst:.2e} over {len(errs)} unitary draws"


# -- registry -----------------------------------------------------------------

CHECKS: tuple[Check, ...] = (
    Check("cauchy-gradewise", "cauchy", "exact+float", "graded expansion of the six-factor product matches the paired-partition sum", _run_cauchy),
    Check("cauchy-two-row", "cauchy", "exact", "two-row regrouping of the graded identity", _run_two_row),
    Check("schur-tableau", "cauchy", "exact", "determinant Schur values agree with the tableau enumeration", _run_schur_tableau),
    Check("doublesum-anchor", "doublesum", "exact", "frozen small-coefficient anchors", _run_doublesum_anchor),
    Check("doublesum-random", "doublesum", "exact", "convolution double sum equals the pairing coefficients", _run_doublesum_random),
    Check("standardcoeff", "doublesum", "exact", "degenerate first index gives the standard coefficients", _run_standardcoeff),
    Check("twist-compat", "doublesum", "exact", "unit twist rescales the convolution coefficients", _run_twist_compat),
    Check("aux-grid", "aux", "exact", "local pairing quotient matches its closed form on a (p, b, m) grid", _run_aux_grid),
    Check("aux-steinberg", "aux", "exact", "minimal twisted blocks pair to 1 - p^-2 X", _run_aux_steinberg),
    Check("aux-degenerate", "aux", "exact", "quotient collapses for minimal or ramified blocks", _run_aux_degenerate),
    Check("gauss-modulus", "gauss", "float", "|tau(chi)|^2 = q for primitive characters", _run_gauss_modulus),
    Check("gauss-window", "gauss", "exact", "twisted character sums are nonzero inside the window", _run_gauss_window),
    Check("gauss-factor", "gauss", "float", "character sums factor over prime-power components", _run_gauss_factorization),
    Check("gauss-root", "gauss", "float", "normalized character sums are unitary", _run_gauss_root),
    Check("addtomult-prim", "addtomult", "float", "additive expansion reproduces character values", _run_addtomult),
    Check("gl31-decomp", "addtomult", "exact+float", "multiplicative twist decomposes over symmetrized additive twists", _run_gl31_decomposition),
    Check("twisted-series", "addtomult", "exact", "assembled series prefactor degenerations", _run_twisted_series),
    Check("clgp-anchor", "clgp", "exact", "frozen coset reduction example", _run_clgp_anchor),
    Check("clgp-random", "clgp", "exact", "random matrices reduce to canonical form with witnesses", _run_clgp_random),
    Check("clgp-invariance", "clgp", "exact", "reduction invariants survive allowed moves", _run_clgp_invariance),
    Check("clgp-support", "clgp", "exact", "support predicate matches the valuation bounds", _run_clgp_support),
    Check("unipotent-split", "clgp", "exact", "lower-unipotent matrices split through the diagonal", _run_unipotent_split),
    Check("matid-anchor", "matid", "exact", "frozen 3x3 factorization instance", _run_matid_anchor),
    Check("matid-random", "matid", "exact", "3x3 factorization holds entrywise on random instances", _run_matid_random),
    Check("conductor-exp", "matid", "exact", "conductor exponent bookkeeping", _run_conductor),
    Check("hurwitz-anchors", "funceq", "exact+float", "shifted zeta series anchors", _run_hurwitz_anchors),
    Check("dirichlet-fe", "funceq", "float", "completed L-function reflection formula", _run_dirichlet_fe),
    Check("synthetic-fe", "funceq", "exact+float", "degree-6 product reflection with composite constant", _run_synthetic_fe),
    Check("fe-root-modulus", "funceq", "float", "reflection constant is unitary for unitary inputs", _run_fe_root_modulus),
)

SUITES: tuple[str, ...] = tuple(dict.fromkeys(c.suite for c in CHECKS))

FAULT_CAPABLE: frozenset = frozenset({"doublesum-random", "gauss-modulus"})


def check_ids() -> list[str]:
    return [c.check_id for c in CHECKS]


def run_check(check: Check, cfg: RunConfig) -> CheckResult:
    """Run one check; an exception inside it fails the check (traceback to stderr)."""
    rng = random.Random(f"{cfg.seed}:{check.check_id}")
    try:
        ok, detail = check.runner(cfg, rng)
    except Exception as exc:
        import traceback  # here, not at the top: it adds 3 ms to `import rslab`

        traceback.print_exc()
        ok, detail = False, f"error: {type(exc).__name__}: {exc}"
    return CheckResult(check.check_id, check.suite, ok, detail)


def run_suite(suite: str, cfg: RunConfig) -> list[CheckResult]:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    selected = [c for c in CHECKS if suite == "all" or c.suite == suite]
    if cfg.inject_fault is not None and cfg.inject_fault not in {c.check_id for c in selected}:
        raise ValueError(f"inject_fault {cfg.inject_fault!r} is not a check of suite {suite!r}")
    return [run_check(c, cfg) for c in selected]
