"""The float stream, its additive twists, unit averages, and the twisted-series prefactor.

The unit average folds e(x) against an archimedean character over the
units congruent to 1 mod q (just {1} or {+-1} over Q); matching its parity
to a Dirichlet character makes the symmetrized additive twist reproduce
the plain multiplicative one, which is the decomposition checked here:
on floats from the additive twists of `additive_twist`, the engine of
`rslab twist`, on one `float_stream` (`gl31_twist_residuals`), and exactly
on exact `CoeffData` (`gl31_decomposition_residuals`).  x = t/q in the unit
average is exact, t an int over q, so e(x) sees x mod 1 at any size of x.
"""

from __future__ import annotations

import cmath
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm, pi, prod
from operator import index

from .arith import factorize, largest_prime_powers, valuation
from .characters import (DirichletCharacter, char_group, check_window, exponent_maps, gauss_beta,
                         gauss_classical)
from .coeffs import CoeffData, lambda_std, lambda_tau
from .cyclotomic import CycloElement
from .euler import inverse_series, prime_power_tables, sieve_stream
from .scalars import EXACT, FLOAT, one


def unit_average(t: int, q: int, parity: int) -> complex:
    """Average of e(u t/q) sign(u t)^parity over units u = 1 mod q, t an int
    (anything else raises TypeError, by `operator.index`).

    For q <= 2 every unit is congruent to 1 and the average is the single
    term e(t/q) sign(t)^parity; for q > 2 it is the mean of the two terms
    at +-t/q.  sign(0) counts as +1.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if q < 1:
        raise ValueError("q must be positive")
    t = index(t)
    # e(x) sees x mod 1 only: x = t/q is shifted by k 2^20, k the integer
    # nearest x / 2^20 (a tie to the even one, as `round` does), into
    # [-2^19, 2^19], exactly on ints, before it becomes a float, so the angle
    # is off by at most 2^-34 at any size of x (a huge integer gives exactly
    # e(0) = 1); int / int rounds once, as float(Fraction) does.  A factor
    # common to t and q changes neither k, nor the tie, nor the rounding
    k, rem = divmod(2 * t + (q << 20), q << 21)
    if rem == 0 and k & 1:
        k -= 1
    xf = (t - k * (q << 20)) / q
    sign = 1.0 if t >= 0 else -1.0
    term = cmath.exp(2j * pi * xf) * sign**parity
    if q <= 2:
        return term
    return (term + cmath.exp(2j * pi * -xf) * (-sign if t else 1.0)**parity) / 2


def float_stream(params, n_max: int):
    """The float stream a(1), ..., a(n_max), lazily, whose local factor at p
    has the parameters params[p] (`langlands.parse_rep_file`), one table per
    parameter object (`euler.prime_power_tables`)."""
    tables = prime_power_tables(params, n_max, lambda roots, k: inverse_series(roots, k, FLOAT))
    return sieve_stream(tables, largest_prime_powers(n_max), one(FLOAT))


def additive_twist(stream, beta: Fraction, parity: int) -> array:
    """a(n) unit_average(n num(beta), den(beta), parity) for the a(n) of
    stream, n = 1, 2, ..., as (re, im) pairs in one array.  ValueError,
    before anything is returned, if a coefficient overflows a float."""
    num, den = beta.numerator, beta.denominator
    coeffs = array("d")
    for n, a_n in enumerate(stream, 1):
        coeff = a_n * unit_average(n * num, den, parity)
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient a({n}) overflows a float")
        coeffs.extend((coeff.real, coeff.imag))
    return coeffs


def gl31_decomposition_residuals(chi: DirichletCharacter, data: CoeffData, ns) -> list[float]:
    """Residuals of  q * lam(n) chi(n) = tau(chi) * sum_r conj(chi)(-r) a_r(n),
    one per n in ns,

    where a_r is the additive twist at beta = r/q with parity matched to chi.
    The data are exact, and so is the verdict: 0.0 or the size of the defect,
    normalized by the scale q * |lam(n)| of the two sides.  tau(chi) and the
    values of conj(chi) are computed once for all n; `gl31_twist_residuals`
    is the float route.
    """
    q = chi.group.q
    a = chi.parity
    chibar = chi.conjugate()
    out = []
    # as n r > 0, the term lam * unit_average(n r / q) is
    # lam/2 e(n r / q) + (-1)^a lam/2 e(-n r / q) (just lam e(n r / q) for
    # q <= 2), and sum_r conj(chi)(-r) e(+-n r / q) = tau_q(conj(chi), -+n / q):
    # one exponent map per sign, folded with the weights num(lam) and
    # (-1)^a num(lam).  Both sides are taken times s = 2 den(lam)
    # (den(lam) for q <= 2), so every weight is an int
    ns = list(ns)
    halves = 1 if q <= 2 else 2
    maps = exponent_maps(chibar, q, [r for n in ns for r in (-n, n)[:halves]])
    tau = gauss_beta(chi, Fraction(1, q), EXACT)
    for n in ns:
        lam = lambda_std(n, data)
        s = halves * lam.denominator
        plus = lam.numerator
        weights: dict[int, int] = {}
        for w in (plus, -plus if a else plus)[:halves]:
            big, counts = next(maps)
            for k, c in counts.items():
                weights[k] = weights.get(k, 0) + w * c
        acc = CycloElement.from_exponents(big, weights)
        zn = chi.value(n)
        lhs = CycloElement.zero() if zn is None else zn * (q * halves * plus)
        diff = lhs - tau * acc
        scale = max(1.0, q * abs(complex(lam)))
        out.append(0.0 if diff.is_zero() else abs((diff * Fraction(1, s)).to_complex()) / scale)
    return out


def gl31_twist_residuals(q: int, params, n_max: int) -> list[tuple[DirichletCharacter, list[float]]]:
    """The same identity on floats, for every primitive chi mod q and
    n = 1..n_max: (chi, its residuals), each normalized by q * |lam(n)|.

    lam and every a_r come from `additive_twist` on the one `float_stream`
    of params (p -> roots, as there): lam at beta = 0, and a_r at beta = r/q
    for each r prime to q, once per parity that a primitive character mod q
    has.  tau(chi) is the float Gauss sum.
    """
    stream = list(float_stream(params, n_max))
    def columns(beta: Fraction, parity: int) -> list[complex]:
        twist = additive_twist(stream, beta, parity)
        return [complex(re, im) for re, im in zip(twist[::2], twist[1::2])]

    lam = columns(Fraction(0), 0)
    rs = [r for r in range(1, q + 1) if gcd(r, q) == 1]
    by_parity: dict[int, list[tuple]] = {}  # parity -> per n, a_r(n) for r in rs
    out = []
    for chi in char_group(q).characters():
        if not chi.is_primitive():
            continue
        if chi.parity not in by_parity:
            by_parity[chi.parity] = list(zip(*(columns(Fraction(r, q), chi.parity) for r in rs)))
        chibar = chi.conjugate()
        zs = [chibar.value_complex(-r) for r in rs]
        tau = gauss_classical(chi, FLOAT)
        res = []
        for n, (ln, a_n) in enumerate(zip(lam, by_parity[chi.parity]), 1):
            acc = 0j
            for z, a_r in zip(zs, a_n):
                acc += z * a_r
            scale = max(1.0, q * abs(ln))
            res.append(abs(q * ln * chi.value_complex(n) - tau * acc) / scale)
        out.append((chi, res))
    return out


# -- the twisted-series prefactor -------------------------------------------


def forced_q1(q: int, q2: int) -> int:
    """The part of q that q1 must contain: p^ord_p(q) for every prime p where
    q2 falls short of q, which is what makes lcm(q1, q2) = q."""
    return prod(p**e for p, e in factorize(q) if valuation(q2, p) < e)


def _validate_window(chi: DirichletCharacter, q1: int, q2: int) -> None:
    q = chi.group.q
    check_window(chi, q2)
    forced = forced_q1(q, q2)
    if q1 < 1 or q1 % forced != 0 or q % q1 != 0:
        raise ValueError(f"q1={q1} violates {forced} | q1 | {q}")


def twisted_prefactor(chi: DirichletCharacter, q1: int, q2: int, r: int,
                      zeta: int, data: CoeffData) -> CycloElement:
    """The exact prefactor of the twisted-series identity, whose series
    coefficients are prefactor * lam_pair(n).

    chi lives mod q (the level); its conductor and q1, q2 must satisfy the
    window conditions, beta2 = r/q2 with gcd(r, q2) = 1, and zeta must be
    supported on the primes dividing q (zeta = 1 unless the conductor is
    exactly q).  The prefactor is

        sqrt(q^2 zeta) / lcm(q1 zeta, q2) * tau_q(chi, beta2) * mu(zeta)

    with mu the degree-2 coefficient stream of the exact data, so q^2 zeta
    must be a perfect square.  With zeta = 1 the prefactor collapses to
    tau_q(chi, beta2), and for level 1 it is exactly 1.
    """
    q = chi.group.q
    cond = chi.conductor()
    _validate_window(chi, q1, q2)
    if gcd(r, q2) != 1:
        raise ValueError("beta2 = r/q2 must have gcd(r, q2) = 1")
    if zeta < 1:
        raise ValueError("zeta must be a positive integer")
    if zeta > 1 and (q == 1 or any(q % p for p, _ in factorize(zeta))):
        raise ValueError("zeta must be supported on primes dividing the level")
    if zeta != 1 and cond != q:
        raise ValueError("zeta != 1 requires conductor equal to the level")
    root = isqrt(q * q * zeta)
    if root * root != q * q * zeta:
        raise ValueError("q^2 * zeta must be a perfect square")
    tau = gauss_beta(chi, Fraction(r, q2), EXACT)
    return tau * (Fraction(root, lcm(q1 * zeta, q2)) * lambda_tau(zeta, data))


def fe_root_number(eps_pi: complex, eps_tau: complex, chi_omega_pi_q: complex,
                   omega_tau_nq2: complex, lam_tau_tilde_q2: complex,
                   chi_tau: DirichletCharacter, beta2: Fraction,
                   beta2p: Fraction) -> complex:
    """The reflection constant

        eps_pi^2 eps_tau chi_{w_pi}(q) w_tau(n q^2) mu~(q^2)
            * conj(tau_q(chi, beta2')) / tau_q(chi, beta2).

    All inputs are plain numbers except the character and the two rational
    twist points; unitary inputs give |result| = 1.
    """
    tau_b = gauss_beta(chi_tau, Fraction(beta2), FLOAT)
    if abs(tau_b) < 1e-12:
        raise ValueError("tau_q(chi, beta2) vanishes; beta2 outside the window?")
    tau_bp = gauss_beta(chi_tau, Fraction(beta2p), FLOAT)
    return (
        eps_pi**2
        * eps_tau
        * chi_omega_pi_q
        * omega_tau_nq2
        * lam_tau_tilde_q2
        * tau_bp.conjugate()
        / tau_b
    )


def conductor_exponent_check(n: int, q: int, declared: int) -> tuple[bool, list]:
    """Check declared = n^2 q^3 prime by prime: exponent 2 ord_p(n) + 3 ord_p(q)."""
    if n < 1 or q < 1 or declared < 1:
        raise ValueError("all arguments must be positive")
    mism = []
    for p, _ in factorize(n * q * declared):
        want = 2 * valuation(n, p) + 3 * valuation(q, p)
        got = valuation(declared, p)
        if want != got:
            mism.append((p, want, got))
    return (not mism, mism)
