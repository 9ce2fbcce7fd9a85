"""Hurwitz zeta numerics, Dirichlet L-values, and completed functional
equations, including the synthetic degree-6 product."""

import cmath
import math
from fractions import Fraction

import pytest

from rslab.characters import char_group, dirichlet_root_number
from rslab.funceq import (
    bernoulli_number,
    completed_g,
    dirichlet_L,
    fe_residual_dirichlet,
    gamma,
    gamma_r,
    hurwitz_zeta,
    hurwitz_zeta_star,
    synthetic_fe_check,
)
from rslab.registry import CATALAN, EULER_GAMMA


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_hurwitz_zeta_at_integer_anchors():
    # zeta(2, 1) = pi^2 / 6
    assert abs(hurwitz_zeta(2, 1) - math.pi**2 / 6) < 1e-12
    # zeta(4, 1) = pi^4 / 90
    assert abs(hurwitz_zeta(4, 1) - math.pi**4 / 90) < 1e-12
    # zeta(0, a) = 1/2 - a
    for a in (0.25, 0.5, 1.0, 1.75):
        assert abs(hurwitz_zeta(0, a) - (0.5 - a)) < 1e-11


def test_hurwitz_zeta_shift_relation():
    """zeta(s, a) - zeta(s, a+1) = a^{-s}, an exact functional relation."""
    for s in (2.5, 0.5 + 1j, 3 - 2j):
        for a in (0.3, 1.0, 2.5):
            lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1)
            assert abs(lhs - a ** (-s)) < 1e-10


def test_hurwitz_zeta_rational_sum():
    """sum_{r=1..q} zeta(s, r/q) = q^s zeta(s, 1) (the multiplication rule)."""
    q = 5
    for s in (2.0, 1.5 + 1j):
        total = sum(hurwitz_zeta(s, Fraction(r, q)) for r in range(1, q + 1))
        assert abs(total - q**s * hurwitz_zeta(s, 1)) < 1e-9


def test_hurwitz_zeta_rejects_pole_and_bad_a():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0)


def test_hurwitz_zeta_star_at_pole():
    """zeta*(s, 1) -> Euler's constant as s -> 1 (exact at s = 1)."""
    assert abs(hurwitz_zeta_star(1, 1) - EULER_GAMMA) < 1e-10
    # near the pole the star value varies smoothly
    close = hurwitz_zeta_star(1 + 1e-9, 1)
    assert abs(close - EULER_GAMMA) < 1e-6


def test_hurwitz_zeta_star_matches_plain_away_from_pole():
    for s in (2.5, 0.25, 3 + 1j):
        a = 0.7
        want = hurwitz_zeta(s, a) - 1 / (s - 1)
        assert abs(hurwitz_zeta_star(s, a) - want) < 1e-10


def test_dirichlet_L_anchors():
    """L(1, chi_4) = pi/4 and L(2, chi_4) = Catalan's constant."""
    chi4 = next(c for c in char_group(4).characters() if not c.is_trivial())
    assert abs(dirichlet_L(1, chi4) - math.pi / 4) < 1e-10
    assert abs(dirichlet_L(2, chi4) - CATALAN) < 1e-10


def test_dirichlet_L_euler_product():
    """L(s, chi) agrees with a long partial Euler product for Re(s) large."""
    from rslab.arith import primes_up_to

    chi = next(c for c in char_group(5).characters() if not c.is_trivial())
    s = 6.0
    prod = 1.0 + 0j
    for p in primes_up_to(2000):
        v = chi.value(p)
        if v is None:
            continue
        prod *= 1 / (1 - v.to_complex() * p ** (-s))
    assert abs(dirichlet_L(s, chi) - prod) < 1e-10


def test_dirichlet_L_trivial_character_is_deflated_zeta():
    chi0 = char_group(6).trivial()
    s = 3.0
    zeta = hurwitz_zeta(s, 1)
    want = zeta * (1 - 2.0 ** (-s)) * (1 - 3.0 ** (-s))
    assert abs(dirichlet_L(s, chi0) - want) < 1e-10


def test_gamma_factors():
    assert abs(gamma_r(2) - math.pi ** (-1) * math.gamma(1)) < 1e-12


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_gamma_integers_and_half():
    """Gamma(n) = (n-1)! for n <= 20 and Gamma(1/2) = sqrt(pi)."""
    for n in range(1, 21):
        assert _rel(gamma(n), math.factorial(n - 1)) < 1e-14, n
    assert _rel(gamma(0.5), math.sqrt(math.pi)) < 1e-14


def test_gamma_recurrence_reflection_duplication():
    """Gamma(s+1) = s Gamma(s), Gamma(s) Gamma(1-s) = pi / sin(pi s) and
    Gamma(s) Gamma(s+1/2) = 2^{1-2s} sqrt(pi) Gamma(2s) at 90 points with
    Re s in [-10, 10], |Im s| <= 40, none on a pole."""
    for s in (complex(x + 0.37, y) for x in range(-10, 10, 2) for y in range(-40, 41, 10)):
        g = gamma(s)
        assert _rel(gamma(s + 1), s * g) < 2e-13, s
        assert _rel(g * gamma(1 - s), math.pi / cmath.sin(math.pi * s)) < 2e-13, s
        want = 2 ** (1 - 2 * s) * math.sqrt(math.pi) * gamma(2 * s)
        assert _rel(g * gamma(s + 0.5), want) < 2e-13, s


def test_gamma_rejects_poles():
    for s in (0, -1, -2):
        with pytest.raises(ValueError):
            gamma(s)
    for s in (0, -2, -4):
        with pytest.raises(ValueError):
            gamma_r(s)


def test_gamma_against_mpmath():
    """Relative error <= 1e-13 against 40-digit mpmath for Re s in [-10, 10],
    |Im s| <= 50, at least 0.1 from every pole."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for i in range(40):
            for j in range(-10, 11):
                s = complex(-10 + 0.5 * i + 0.1, 5.0 * j)
                want = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
                assert _rel(gamma(s), want) <= 1e-13, s


def test_completed_g_even_odd():
    chi4 = next(c for c in char_group(4).characters() if not c.is_trivial())
    # odd character: shifted Gamma_R(s + 1) present
    z = completed_g(1.3, chi4)
    want = math.pi ** (-(1.3 + 1) / 2) * math.gamma((1.3 + 1) / 2) * dirichlet_L(1.3, chi4)
    assert abs(z - want) < 1e-10


def test_fe_residual_dirichlet_small_moduli():
    for q in (3, 4, 5, 7):
        for chi in char_group(q).characters():
            if not chi.is_primitive() or chi.is_trivial():
                continue
            for t in (0.0, 1.0, 2.0):
                s = 0.5 + 1j * t
                assert fe_residual_dirichlet(chi, s) < 1e-8, (q, s)


def test_fe_residual_rejects_imprimitive():
    chi0 = char_group(4).trivial()
    with pytest.raises(ValueError, match="^chi mod 4 is not primitive: its conductor is 1$"):
        fe_residual_dirichlet(chi0, 0.5)


def test_one_nontrivial_rule():
    """The trivial character mod 1 is primitive: both functions refuse it
    with one wording."""
    chi = char_group(1).trivial()
    for call in (lambda: fe_residual_dirichlet(chi, 0.5),
                 lambda: synthetic_fe_check(chi, (0.5, -0.3, 0.1), 0.2, [0.5])):
        with pytest.raises(ValueError, match=r"^use a nontrivial character \(zeta has a pole\)$"):
            call()


def test_synthetic_fe_product():
    """Composed degree-6 object: conductor q^3, residuals below 1e-8."""
    chi = next(c for c in char_group(5).characters() if c.is_primitive())
    report = synthetic_fe_check(
        chi,
        ts=(0.0, 0.5, -0.25),
        u1=0.3,
        s_values=(0.5, 0.5 + 1j, 1.25 - 0.5j),
    )
    assert report.conductor == 125
    assert abs(abs(report.eps) - 1) < 1e-10
    assert all(r < 1e-8 for _, r in report.residuals)


@pytest.mark.parametrize("s, why", [
    (-0.7j, "Gamma_R pole"),  # a chi-factor's argument hits the pole at 0
    (1 - 0.5j, "Gamma_R pole"),  # a zeta-factor's argument hits its pole at 1
    (7.5 + 1j, "outside"),  # the Euler-Maclaurin tail gives a false 5.5e-3 there
])
def test_synthetic_fe_rejects_points_outside_validated_range(s, why):
    even = char_group(5).character((2,))
    assert even.is_primitive() and even.parity == 0
    with pytest.raises(ValueError, match=why):
        synthetic_fe_check(even, (0.5, -0.3, 0.1), 0.2, [0.5, s])


def test_root_number_feeds_fe():
    """The root number from the completed FE matches the Gauss-sum one."""
    for q in (3, 5, 7):
        for chi in char_group(q).characters():
            if not chi.is_primitive() or chi.is_trivial():
                continue
            eps = dirichlet_root_number(chi)
            s = 0.75 + 0.5j
            lhs = completed_g(s, chi)
            rhs = eps * q ** (0.5 - s) * completed_g(1 - s, chi.conjugate())
            assert abs(lhs - rhs) / abs(lhs) < 1e-9
