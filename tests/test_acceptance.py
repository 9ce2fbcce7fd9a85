"""Full-size acceptance runs for every guarantee the package ships.

Each test re-runs one guarantee at its complete advertised size and
tolerance (the unit-test modules cover the same code at smaller sizes);
`pytest -v tests/test_acceptance.py` prints the one-line verdict per
guarantee.  The random draws are seeded, so the suite is deterministic.
"""

import cmath
import json
import random
import time
from fractions import Fraction
from math import gcd, lcm, sqrt

from rslab.arith import divisors, primes_up_to, radical
from rslab.characters import (
    addtomult_residuals,
    char_group,
    gauss_beta,
    gauss_classical,
)
from rslab.coeffs import CoeffData, c_pi_tau, lambda_rs, standardcoeff_check
from rslab.euler import EulerFactorPoly, poly_divide_exact
from rslab.funceq import fe_residual_dirichlet, synthetic_fe_check
from rslab.langlands import (
    SteinbergBlock,
    block_params,
    degenerate_factor_check,
    rs_full_local,
    rs_naive_local,
    rs_quotient_poly,
)
from rslab.matid import (
    FactorizationInstance,
    Mat,
    coset_reduce,
    CosetContext,
    lower_unipotent2,
    upper_unipotent2,
    verify_3x3_factorization,
    verify_lower_unipotent_split,
)
from rslab.registry import RunConfig, run_suite
from rslab.scalars import EXACT, FLOAT
from rslab.symfunc import (
    Partition3,
    cauchy_check,
    schur3,
    schur3_tableau,
)
from rslab.twists import fe_root_number, gl31_decomposition_residuals, gl31_twist_residuals


def _rand_param_set(rng):
    alphas = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3))
    gammas = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(2))
    return alphas, gammas


def _unitary_triple(rng):
    a = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    b = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
    return (a, b, 1 / (a * b))


def test_double_sum_equals_pairing_to_5000():
    """c(n) == lambda_pair(n) exactly, n <= 5000, 20 parameter sets, < 60 s."""
    start = time.perf_counter()
    rng = random.Random(5000)
    sets = [((Fraction(1), Fraction(2), Fraction(3)), (Fraction(1), Fraction(2)))]
    while len(sets) < 20:
        sets.append(_rand_param_set(rng))
    for idx, (alphas, gammas) in enumerate(sets):
        data = CoeffData.constant(alphas, gammas, 5000)
        if idx == 0:
            assert c_pi_tau(4, data) == 197  # the worked p = 2 anchor
        for n in range(1, 5001):
            assert c_pi_tau(n, data) == lambda_rs(n, data), (idx, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_stream_checks_at_the_n_max_bound():
    """doublesum-random, standardcoeff and twist-compat, on the stream
    engine, pass at n_max = 10^5, the largest `verify --n-max`, in under 30 s
    (1.5-2 s on 2 vCPUs)."""
    start = time.perf_counter()
    results = run_suite("doublesum", RunConfig(n_max=10**5))
    stream_checks = {"doublesum-random", "standardcoeff", "twist-compat"}
    assert stream_checks <= {r.check_id for r in results}
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"


def test_cauchy_expansion_and_two_row_to_degree_12():
    """The six-factor expansion equals the two-row (paired-partition) Schur
    sum gradewise to total degree 12: exact for 10 rational parameter sets,
    below 1e-9 in float."""
    rng = random.Random(12)
    for _ in range(10):
        alphas = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) or Fraction(1) for _ in range(3))
        gammas = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) or Fraction(1, 2) for _ in range(2))
        assert all(r == 0 for r in cauchy_check(alphas, gammas, kmax=12, mode=EXACT))
    for _ in range(10):
        alphas = tuple(complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(3))
        gammas = tuple(complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(2))
        assert max(abs(r) for r in cauchy_check(alphas, gammas, kmax=12, mode=FLOAT)) < 1e-9


def test_schur_bialternant_equals_tableaux_grid():
    """Both Schur evaluation routes agree exactly on every shape with
    l1 <= 6, 50 random points per shape, coincident points included."""
    rng = random.Random(66)
    for l1 in range(7):
        for l2 in range(l1 + 1):
            for l3 in range(l2 + 1):
                lam = Partition3(l1, l2, l3)
                for i in range(50):
                    if i % 5 == 4:  # force a repeated coordinate
                        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        xs = [x, x, Fraction(rng.randint(-6, 6), rng.randint(1, 4))]
                        rng.shuffle(xs)
                    else:
                        xs = [
                            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in range(3)
                        ]
                    # the bialternant route at distinct points, else Jacobi-Trudi
                    assert schur3_tableau(lam, xs) == schur3(lam, xs), (lam, xs)


def test_block_pairing_division_grid():
    """Exact divisibility of the full pairing by the naive factor across the
    b, m <= 4 grid with both ramification patterns; the Steinberg(3) x
    Steinberg(2) quotient is 1 - p^{-2} X; the collapsed cases hold."""
    p = 3
    for b in range(1, 5):
        for m in range(1, 5):
            for eta1 in (1, None):
                for eta2 in (1, None):
                    b1, b2 = SteinbergBlock(b, eta1), SteinbergBlock(m, eta2)
                    full = rs_full_local(b1, b2, p)
                    naive = rs_naive_local(block_params(b1, p), block_params(b2, p))
                    quot = poly_divide_exact(full, naive)  # raises on remainder
                    assert quot == rs_quotient_poly(b1, b2, p)
                    if min(b, m) == 1 or eta1 is None or eta2 is None:
                        assert degenerate_factor_check(b1, b2, p)
                        assert quot.is_one()
    for p in (2, 3, 5, 7):
        anchor = rs_quotient_poly(SteinbergBlock(3, 1), SteinbergBlock(2, 1), p)
        assert anchor == EulerFactorPoly((Fraction(1), Fraction(-1, p * p)))


def test_gauss_sums_modulus_window_nonvanishing_additive():
    """|tau(chi)|^2 = q for every primitive chi with q <= 100; the shifted
    sums are nonzero on the whole admissible (chi, q2, beta2) window for
    q <= 60; the additive-to-multiplicative coefficient identity holds for
    every primitive chi with q <= 40 and n <= 200."""
    for q in range(3, 101):
        for chi in char_group(q).characters():
            if chi.is_primitive():
                z = gauss_classical(chi, mode=FLOAT)
                assert abs(abs(z) - sqrt(q)) < 1e-9, q

    for q in range(1, 61):
        for chi in char_group(q).characters():
            c = chi.conductor()
            top = lcm(c, radical(q))
            for q2 in divisors(q):
                if q2 % c or top % q2:
                    continue
                for r in range(1, q2 + 1):
                    if gcd(r, q2) != 1:
                        continue
                    beta = Fraction(r, q2) if q2 > 1 else Fraction(0)
                    z = gauss_beta(chi, beta, mode=FLOAT)
                    if abs(z) <= 1e-6:
                        # numerically ambiguous: settle it exactly
                        assert not gauss_beta(chi, beta, mode=EXACT).is_zero(), (
                            q, q2, r,
                        )

    for q in range(3, 41):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            for n, res in enumerate(addtomult_residuals(chi, range(1, 201)), 1):
                assert res < 1e-10, (q, n)


def test_standard_coefficient_collapse_to_2000():
    """lam(1, n) equals the expansion coefficient lam(n), n <= 2000,
    10 random exact parameter sets."""
    rng = random.Random(2000)
    for _ in range(10):
        alphas, gammas = _rand_param_set(rng)
        data = CoeffData.constant(alphas, gammas, 2000)
        for n in range(1, 2001):
            assert standardcoeff_check(n, data) == 0, (alphas, n)


def test_coset_reduction_500_matrices():
    """u M g == canonical with gamma2 = det(M)/gamma1^2 up to the positive
    normalization, for 500 random matrices; the invariants survive 5 random
    admissible perturbations each."""
    rng = random.Random(500)
    ctx = CosetContext(5, 3, 2)

    def rand_invertible():
        while True:
            m = Mat(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                    for _ in range(2)
                ]
            )
            if m.det() != 0:
                return m

    def rand_unit():
        g = Mat.identity(2)
        for _ in range(rng.randint(1, 4)):
            k = Fraction(rng.randint(-3, 3))
            g = g * (upper_unipotent2(k) if rng.random() < 0.5 else lower_unipotent2(k))
        if rng.random() < 0.5:
            g = g * Mat.diag(Fraction(1), Fraction(-1))
        return g

    for _ in range(500):
        m = rand_invertible()
        red = coset_reduce(m, ctx)
        assert (red.u * (m * red.g)).rows == red.canonical_matrix().rows
        assert red.gamma1 > 0 and red.gamma2 > 0
        assert red.gamma2 == abs(m.det()) / red.gamma1**2
        for _ in range(5):
            pert = upper_unipotent2(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            m2 = pert * (m * rand_unit())
            red2 = coset_reduce(m2, ctx)
            assert (red2.gamma1, red2.gamma2) == (red.gamma1, red.gamma2)


def test_matrix_factorization_identities():
    """The lower-unipotent split for 100 random rational (u, w); the 3x3
    reflection identity for 100 consistent instances including the q = 3
    anchor, with the determinant bookkeeping confirmed every time."""
    rng = random.Random(33)
    done = 0
    while done < 100:
        u = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        w = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        if u == 0 or w == 0:
            continue
        ok, (left, mid, right) = verify_lower_unipotent_split(u, w)
        assert ok
        assert (left * (mid * right)).rows == lower_unipotent2(u / w).rows
        done += 1

    anchor = FactorizationInstance.make_consistent(3, 1, 1)
    assert (anchor.v, anchor.u) == (2, 6)
    report = verify_3x3_factorization(anchor)
    assert report.identity_ok and report.det_gamma_ok

    done = 0
    while done < 100:
        q = rng.choice([2, 3, 4, 5, 6, 7, 9, 12])
        n = rng.randint(1, 5)
        r = rng.randint(1, 3 * q)
        if gcd(r, q) != 1 or gcd(n, q) != 1:
            continue
        w = rng.randint(1, 3)
        a_j = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a_k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        inst = FactorizationInstance.make_consistent(q, n, r, w, a_j, a_k)
        rep = verify_3x3_factorization(inst)
        assert rep.identity_ok, inst
        assert rep.det_gamma_ok, inst
        done += 1


def test_gl31_decomposition_to_1000():
    """Coefficientwise character-to-additive decomposition: relative
    residual < 1e-10 for every primitive chi with q <= 20 and n <= 1000,
    on the additive twists `twist` prints; identically zero along the exact
    route."""
    params = dict.fromkeys(primes_up_to(1000), _unitary_triple(random.Random(31)))
    for q in range(1, 21):
        for _, residuals in gl31_twist_residuals(q, params, 1000):
            for n, res in enumerate(residuals, 1):
                assert res < 1e-10, (q, n)

    exact_data = CoeffData.constant(
        (Fraction(1), Fraction(2), Fraction(3)), (Fraction(1), Fraction(2)), 60
    )
    for q in (3, 4, 5, 8):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            for n, res in enumerate(gl31_decomposition_residuals(chi, exact_data, range(1, 61)), 1):
                assert res == 0.0, (q, n)


def test_functional_equations_and_root_numbers():
    """Completed-function reflection residual < 1e-8 for q in {3,4,5,7} at
    s = 1/2 + i{0,1,2}; the synthetic degree-6 product satisfies its own
    reflection with conductor exactly q^3; |eps| = 1 within 1e-9 for 100
    random unitary instantiations."""
    for q in (3, 4, 5, 7):
        for chi in char_group(q).characters():
            if not chi.is_primitive() or chi.is_trivial():
                continue
            for t in (0.0, 1.0, 2.0):
                assert fe_residual_dirichlet(chi, 0.5 + 1j * t) < 1e-8, (q, t)

    rng = random.Random(1010)
    for q in (3, 5, 7):
        chi = next(
            c for c in char_group(q).characters() if c.is_primitive() and not c.is_trivial()
        )
        report = synthetic_fe_check(
            chi,
            ts=(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            u1=rng.uniform(-0.5, 0.5),
            s_values=(0.5, 0.5 + 1j, 1.25 - 0.5j),
        )
        assert report.conductor == q**3
        assert all(r < 1e-8 for _, r in report.residuals), q

    done = 0
    moduli = [3, 4, 5, 7, 8, 9, 11, 12, 13]
    while done < 100:
        q = rng.choice(moduli)
        prim = [c for c in char_group(q).characters() if c.is_primitive()]
        if not prim:
            continue
        chi = rng.choice(prim)
        unit = lambda: cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))  # noqa: E731
        r1 = rng.choice([r for r in range(1, q) if gcd(r, q) == 1])
        r2 = rng.choice([r for r in range(1, q) if gcd(r, q) == 1])
        eps = fe_root_number(
            unit(), unit(), unit(), unit(), unit(),
            chi, Fraction(r1, q), Fraction(r2, q),
        )
        assert abs(abs(eps) - 1) < 1e-9
        done += 1


def test_full_verification_run_deterministic():
    """`verify --suite all` passes end to end, twice, with identical JSON
    under a fixed seed, in under five minutes."""
    import contextlib
    import io

    from rslab.cli import main

    start = time.perf_counter()
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", "--suite", "all", "--json", "--seed", "1729"])
        assert code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0].splitlines() if line.strip()]
    assert records and all(rec["ok"] for rec in records)
    suites = {rec["suite"] for rec in records}
    assert suites == {
        "cauchy", "doublesum", "aux", "gauss", "addtomult", "clgp", "matid", "funceq",
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
