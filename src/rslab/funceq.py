"""Archimedean side: Hurwitz zeta, Dirichlet L, and functional equations.

Everything here is float/complex numerics, standard library only.  The
Hurwitz zeta uses Euler-Maclaurin with a fixed shift and Bernoulli tail,
accurate to roughly 1e-12 relative for |Im s| up to a few tens; that is the
base for Dirichlet L-functions, their completed functional equation, and a
synthetic degree-6 product equation with composite root number and
conductor.

The complex Gamma behind the Gamma_R factors is computed independently of
the Hurwitz zeta: reflection below Re s = 1/2, an upward shift to |z| >= 10
and the Stirling series with the same Bernoulli numbers (DLMF 5.11.1).
Against 40-digit mpmath it is within 1e-13 relative for Re s in [-10, 10],
|Im s| <= 50, away from the poles.  fe_residual_dirichlet accepts
|Re s - 1/2| <= 2, |Im s| <= 100, off the Gamma_R poles, where the float
route was validated.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log, pi
from typing import NamedTuple

from .arith import factorize
from .characters import DirichletCharacter, dirichlet_root_number, require_primitive

_EM_SHIFT = 36
_EM_TERMS = 24
_STIRLING_MIN = 10.0  # |z| from which the Stirling series is summed
_STIRLING_TERMS = 10

# Where fe_residual_dirichlet accepts s: |Re s - 1/2| <= FE_RE_RADIUS,
# |Im s| <= FE_IM_MAX, and no closer than POLE_MARGIN to a pole of either
# Gamma_R factor.  On a grid over the box (primitive chi mod q <= 11) the
# residual stays <= 7.6e-13 on Re s = 1/2 and <= 2.2e-10 elsewhere (at
# s = 2.5, q = 3); farther out the fixed Euler-Maclaurin shift loses digits
# (5.6e-3 at 7.5+1j and 9.7e-3 at 0.5+400j for chi mod 5).
FE_RE_RADIUS = 2.0
FE_IM_MAX = 100.0
POLE_MARGIN = 1e-6


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """B_m with B_1 = -1/2, via the defining recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    if m > 1 and m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli_number(j)
    return -acc / (m + 1)


def _euler_maclaurin(s: complex, a: float, integral) -> complex:
    """sum_{k<_EM_SHIFT} (k+a)^{-s} + integral(x) + x^{-s}/2 + Bernoulli tail,
    with x = a + _EM_SHIFT; integral(x) is int_x^oo t^{-s} dt, less whatever
    the caller subtracts from the sum."""
    if a <= 0:
        raise ValueError("a must be positive")
    head = sum((a + k) ** -s for k in range(_EM_SHIFT))
    x = a + _EM_SHIFT
    total = head + integral(x) + 0.5 * x**-s
    rising = s  # s(s+1)...(s+2j-2), maintained incrementally
    xpow = x ** (-s - 1)
    for j in range(1, _EM_TERMS + 1):
        b = bernoulli_number(2 * j)
        total += (b.numerator / b.denominator) / factorial(2 * j) * rising * xpow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        xpow /= x * x
    return total


def hurwitz_zeta(s: complex, a: float) -> complex:
    """sum_{k>=0} (k+a)^{-s}, continued; raises too close to s = 1."""
    s = complex(s)
    if abs(s - 1) < 1e-8:
        raise ValueError("pole at s = 1")
    return _euler_maclaurin(s, a, lambda x: x ** (1 - s) / (s - 1))


def hurwitz_zeta_star(s: complex, a: float) -> complex:
    """hurwitz_zeta(s, a) - 1/(s-1), finite at s = 1."""
    s = complex(s)

    def integral(x: float) -> complex:
        # int_x^oo t^{-s} dt - 1/(s-1) = (x^{1-s} - 1)/(s - 1) stays finite
        # at s = 1: expand exp((1-s)ln x) by series near z = 0, where the
        # direct form loses digits.
        z = (1 - s) * cmath.log(x)
        if abs(z) < 0.5:
            return -(cmath.log(x) * sum(z**k / factorial(k + 1) for k in range(18)))
        return -((cmath.exp(z) - 1) / (1 - s))

    return _euler_maclaurin(s, a, integral)


def dirichlet_L(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) by splitting the sum over residues mod q.

    Nontrivial characters go through the regularized Hurwitz zeta, so the
    value is finite (and correct) at s = 1 as well.
    """
    s = complex(s)
    q = chi.group.q
    if chi.is_trivial():
        val = hurwitz_zeta(s, 1.0)
        for p, _ in factorize(q):
            val *= 1 - p ** -s
        return val
    acc = 0j
    for a in range(1, q + 1):
        z = chi.value_complex(a)
        if z != 0:
            acc += z * hurwitz_zeta_star(s, a / q)
    return q ** -s * acc


def gamma(s: complex) -> complex:
    """Gamma(s) for complex s; raises ValueError at the poles 0, -1, -2, ...

    Below Re s = 1/2 the reflection Gamma(s) Gamma(1-s) = pi / sin(pi s)
    is used.  Otherwise s is shifted up to z = s + m with |z| >= 10 and

        log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
                       + sum_{j=1}^{10} B_2j / (2j (2j-1) z^{2j-1})

    (Stirling series, DLMF 5.11.1), whose first omitted term is below
    2e-20 there; then Gamma(s) = Gamma(z) / (s (s+1) ... (s+m-1)).
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"Gamma needs a finite argument, got {s}")
    if s.imag == 0 and s.real <= 0 and s.real.is_integer():
        raise ValueError(f"Gamma has a pole at s = {s.real:g}")
    if s.real < 0.5:
        # sin(pi s) = (-1)^n sin(pi (s - n)); s - n is exact, so the
        # reflection keeps its relative accuracy next to the poles
        n = round(s.real)
        return pi / ((-1) ** n * cmath.sin(pi * (s - n)) * gamma(1 - s))
    z, shift = s, 1 + 0j
    while abs(z) < _STIRLING_MIN:
        shift *= z
        z += 1
    series, zpow, zinv2 = 0j, 1 / z, 1 / (z * z)
    for j in range(1, _STIRLING_TERMS + 1):
        b = bernoulli_number(2 * j)
        series += (b.numerator / b.denominator) / (2 * j * (2 * j - 1)) * zpow
        zpow *= zinv2
    return cmath.exp((z - 0.5) * cmath.log(z) - z + 0.5 * log(2 * pi) + series) / shift


def gamma_r(s: complex) -> complex:
    """pi^{-s/2} Gamma(s/2); raises ValueError at the poles 0, -2, -4, ..."""
    s = complex(s)
    return pi ** (-s / 2) * gamma(s / 2)


def completed_g(s: complex, chi: DirichletCharacter | None) -> complex:
    """pi^{-(s+a)/2} Gamma((s+a)/2) L(s, chi); chi = None means zeta."""
    s = complex(s)
    if chi is None:
        return gamma_r(s) * hurwitz_zeta(s, 1.0)
    a = chi.parity
    return gamma_r(s + a) * dirichlet_L(s, chi)


def _gamma_r_pole_distance(s: complex) -> float:
    """Distance from s to the nearest pole 0, -2, -4, ... of gamma_r."""
    return abs(s + 2 * max(0, round(-s.real / 2)))


def _require_validated(s: complex, a: int) -> None:
    """The validated-range test of fe_residual_dirichlet at parity a."""
    if not cmath.isfinite(s):
        raise ValueError(f"s = {s} is not finite")
    if abs(s.real - 0.5) > FE_RE_RADIUS or abs(s.imag) > FE_IM_MAX:
        raise ValueError(
            f"s = {s} is outside |Re s - 1/2| <= {FE_RE_RADIUS:g}, |Im s| <= {FE_IM_MAX:g}"
        )
    if min(_gamma_r_pole_distance(s + a), _gamma_r_pole_distance(1 - s + a)) < POLE_MARGIN:
        raise ValueError(f"s = {s} is within {POLE_MARGIN:g} of a Gamma_R pole")


def _require_nontrivial_primitive(chi: DirichletCharacter) -> None:
    require_primitive(chi)
    if chi.is_trivial():
        raise ValueError("use a nontrivial character (zeta has a pole)")


def fe_residual_dirichlet(chi: DirichletCharacter, s: complex) -> float:
    """Relative defect of  G(s, chi) = eps(chi) q^{1/2-s} G(1-s, conj chi).

    Raises ValueError for s not finite, outside the validated box or within
    POLE_MARGIN of a pole of Gamma_R(s + a) or Gamma_R(1 - s + a), a = parity.
    """
    _require_nontrivial_primitive(chi)
    s = complex(s)
    _require_validated(s, chi.parity)
    q = chi.group.q
    lhs = completed_g(s, chi)
    rhs = dirichlet_root_number(chi) * q ** (0.5 - s) * completed_g(1 - s, chi.conjugate())
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


# -- synthetic degree-6 product ----------------------------------------------


class SyntheticFEReport(NamedTuple):
    eps: complex
    conductor: int
    residuals: list  # (s, relative residual)


def synthetic_fe_check(chi: DirichletCharacter, ts: tuple, u1: float,
                       s_values: list) -> SyntheticFEReport:
    """Check the product equation for  prod_i G(s+i(t_i+u1), chi) G(s+i t_i).

    Three real shifts ts pair a chi-factor with a zeta-factor each;
    the product satisfies

        Lam(s) = eps(chi)^3 q^{-i(sum t + 3 u1)} (q^3)^{1/2-s} Lam~(1-s)

    with Lam~ the same product built from conj(chi) and negated shifts.
    Raises ValueError unless every factor's argument (s plus its shift)
    passes the validated-range test of fe_residual_dirichlet, the
    zeta-factors' poles at 0 and 1 included.
    """
    _require_nontrivial_primitive(chi)
    if len(ts) != 3:
        raise ValueError("need exactly three shifts")
    q = chi.group.q
    eps = dirichlet_root_number(chi) ** 3 * q ** (-1j * (sum(ts) + 3 * u1))
    conductor = q**3

    def lam(s: complex, conj: bool) -> complex:
        c = chi.conjugate() if conj else chi
        sgn = -1 if conj else 1
        out = 1 + 0j
        for t in ts:
            out *= completed_g(s + sgn * 1j * (t + u1), c)
            out *= completed_g(s + sgn * 1j * t, None)
        return out

    a = chi.parity
    residuals = []
    for s in s_values:
        s = complex(s)
        for t in ts:
            _require_validated(s + 1j * (t + u1), a)
            _require_validated(s + 1j * t, 0)
        lhs = lam(s, False)
        rhs = eps * conductor ** (0.5 - s) * lam(1 - s, True)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        residuals.append((s, abs(lhs - rhs) / scale))
    return SyntheticFEReport(eps, conductor, residuals)
