"""Additive twists of degree-3 coefficients, the window-constrained
twisted-series prefactor, and the root-number bookkeeping."""

import cmath
import random
from array import array
from fractions import Fraction
from math import gcd, isclose, pi

import pytest

from rslab.arith import primes_up_to
from rslab.characters import char_group
from rslab.coeffs import CoeffData
from rslab.euler import inverse_series, multiplicative
from rslab.scalars import FLOAT, parse_scalar
from rslab.twists import (
    additive_twist,
    conductor_exponent_check,
    fe_root_number,
    forced_q1,
    gl31_decomposition_residuals,
    gl31_twist_residuals,
    twisted_prefactor,
    unit_average,
)


def _unitary_params(rng, p_max=40):
    """One determinant-one unitary triple at every prime up to p_max."""
    alphas = [cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)) for _ in range(2)]
    return dict.fromkeys(primes_up_to(p_max), (*alphas, 1 / (alphas[0] * alphas[1])))


def test_unit_average_q_small():
    """q <= 2: a single exponential; no averaging happens."""
    assert isclose(unit_average(Fraction(1, 2), 1, 0).real, -1.0)
    z = unit_average(Fraction(1, 3), 2, 0)
    assert abs(z - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_unit_average_is_even_part_for_even_parity():
    """q > 2, parity 0: the average of e(x) and e(-x) is cos(2 pi x)."""
    rng = random.Random(33)
    for _ in range(25):
        x = Fraction(rng.randint(1, 30), rng.randint(2, 12))
        z = unit_average(x, 5, 0)
        assert abs(z - cmath.cos(2 * cmath.pi * float(x))) < 1e-12
        w = unit_average(x, 5, 1)
        assert abs(w - 1j * cmath.sin(2 * cmath.pi * float(x))) < 1e-12


def test_unit_average_depends_on_x_mod_1_at_any_size():
    """A huge x shifted by an integer gives the small x's value, with the
    sign of the huge x; float(x) alone overflows or loses x mod 1 here."""
    for big in (10**20, 10**400):
        for x in (Fraction(1, 4), Fraction(2, 3), Fraction(7, 5)):
            for q, parity in ((1, 0), (5, 0), (5, 1)):
                small = unit_average(x, q, parity)
                assert abs(unit_average(big + x, q, parity) - small) < 1e-9
                assert abs(unit_average(-big - x, q, parity) - small.conjugate() * (-1) ** parity) < 1e-9


def test_unit_average_sign_zero_convention():
    # sign(0) := +1, so x = 0 gives 1 for any parity at q <= 2
    assert unit_average(Fraction(0), 2, 0) == 1
    assert unit_average(Fraction(0), 2, 1) == 1


def _unit_average_by_fractions(x, q, parity):
    """unit_average with x shifted by 2^20 round(x / 2^20) as Fractions: the
    reference for its int shift."""
    xf = float(x - 2**20 * round(Fraction(x) / 2**20))
    sign = 1.0 if x >= 0 else -1.0

    def one_term(y, s):
        return cmath.exp(2j * pi * y) * s**parity

    if q <= 2:
        return one_term(xf, sign)
    return (one_term(xf, sign) + one_term(-xf, -sign if x else 1.0)) / 2


def _shift_cases():
    """n beta past 2^19, where the shift k is 1 or more (twist --beta 3/4
    from n = 699,051 on), exact ties x / 2^20 = j + 1/2, and large x."""
    for n in range(699_000, 699_100):
        yield n * Fraction(3, 4)
    for n in (*range(2**21 - 40, 2**21 + 40), *range(3 * 2**21 - 40, 3 * 2**21 + 40)):
        yield n * Fraction(1, 4)
    for beta in (2**19, 3 * 2**18, -(2**19), Fraction(2**19, 3)):
        for n in range(-13, 14):
            yield n * beta
    rng = random.Random(20)
    for _ in range(300):
        yield Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6))


def test_unit_average_int_shift_is_the_fraction_shift_bit_for_bit():
    cases = list(_shift_cases())
    # both sides of k = 0, and ties to an even and to an odd j
    assert {round(Fraction(x) / 2**20) for x in cases} >= {-2, -1, 0, 1, 2}
    halves = [Fraction(x) / 2**20 - Fraction(1, 2) for x in cases]
    ties = {j for j in halves if j.denominator == 1}
    assert {j % 2 for j in ties} == {0, 1}
    for x in cases:
        for q in (1, 2, 5, 12):
            for parity in (0, 1):
                got = unit_average(x, q, parity)
                want = _unit_average_by_fractions(x, q, parity)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (
                    x, q, parity)


def test_unit_average_refuses_a_float():
    for x in (0.25, 0.25j):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            unit_average(x, 5, 0)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6, 7, 900])
def test_additive_twist_is_the_multiplicative_product_bit_for_bit(n_max):
    """Each twisted coefficient is multiplicative(n) * unit_average(n beta)
    to the bit, signed zeros included (`tobytes` tells -0.0 from 0.0)."""
    rng = random.Random(n_max)
    scalars = ["-2,-0.0", "0.5,-0.0", "-0.0,-0.75", "1", "-1.5,0.25", "2e-3,-7"]
    params = {p: tuple(parse_scalar(rng.choice(scalars)) for _ in range(3))
              for p in primes_up_to(n_max)}
    tables = {p: inverse_series(params[p], 10, FLOAT) for p in params}
    for beta, parity in ((Fraction(2, 7), 1), (Fraction(-1, 3), 0), (Fraction(0), 0)):
        want = [multiplicative(n, lambda p, k: tables[p][k], FLOAT)
                * unit_average(n * beta, beta.denominator, parity) for n in range(1, n_max + 1)]
        got = additive_twist(params, beta, parity, n_max)
        assert got.tobytes() == array("d", [x for c in want for x in (c.real, c.imag)]).tobytes()


def test_gl31_decomposition_float():
    """q * lam(n) chi(n) = tau(chi) * sum_r conj(chi)(-r) a_r(n), a_r the
    additive twists: residual below 1e-10 for every primitive character of
    small modulus, both parities and q <= 2 among them."""
    params = _unitary_params(random.Random(1001))
    for q, count in ((1, 1), (3, 1), (4, 1), (5, 3), (7, 5), (8, 2)):
        residuals = gl31_twist_residuals(q, params, 39)
        assert [chi for chi, _ in residuals] == [c for c in char_group(q).characters()
                                                  if c.is_primitive()]
        assert len(residuals) == count
        for chi, res in residuals:
            assert len(res) == 39 and max(res) < 1e-10, chi


def test_gl31_decomposition_exact():
    alphas = (Fraction(1), Fraction(2), Fraction(3))
    gammas = (Fraction(1), Fraction(2))
    data = CoeffData.constant(alphas, gammas, 30)
    chi = next(c for c in char_group(3).characters() if not c.is_trivial())
    assert gl31_decomposition_residuals(chi, data, range(1, 25)) == [0.0] * 24
    # level 1 (the single-term q <= 2 route) and both parities mod 5
    chars = [char_group(1).trivial()] + [c for c in char_group(5).characters() if c.is_primitive()]
    assert {c.parity for c in chars[1:]} == {0, 1}
    for chi in chars:
        assert gl31_decomposition_residuals(chi, data, range(1, 25)) == [0.0] * 24, chi


def _exact_data():
    return CoeffData.constant((1, 2, 3), (1, 2), 20)


def test_twisted_prefactor_trivial_level():
    """q = 1 collapses: the prefactor is exactly 1, so the twisted series is
    the plain pairing stream (lam_pair(1) = 1)."""
    assert twisted_prefactor(char_group(1).trivial(), 1, 1, 0, 1, _exact_data()) == 1


def test_twisted_prefactor_window_validation():
    data = _exact_data()
    chi = next(c for c in char_group(12).characters() if c.conductor() == 12)
    # q2 = 6 misses the conductor divisibility requirement
    with pytest.raises(ValueError, match=r"q2=6 outside the window: need 12 \| q2 and q2 \| 12"):
        twisted_prefactor(chi, 12, 6, 1, 1, data)
    # q2 = 12 works, and then q1 must be a multiple of 1 dividing 12; the
    # prefactor is the Gauss sum of a primitive character, so nonzero
    assert not twisted_prefactor(chi, 1, 12, 1, 1, data).is_zero()
    with pytest.raises(ValueError, match="gcd"):
        twisted_prefactor(chi, 1, 12, 2, 1, data)


def test_twisted_prefactor_forced_q1():
    """Primes where ord_p(q2) < ord_p(q) must enter q1 at full weight."""
    data = _exact_data()
    # the one character mod 12 of conductor 3: the quadratic character mod 3
    chi12 = next(c for c in char_group(12).characters() if c.conductor() == 3)
    # window: 3 | q2 | lcm(3, 6) = 6; q2 = 3 leaves ord_2(q2)=0 < 2 = ord_2(12),
    # so 4 | q1; q1 = 4 and 12 both work, q1 = 2 does not
    twisted_prefactor(chi12, 4, 3, 1, 1, data)
    twisted_prefactor(chi12, 12, 3, 1, 1, data)
    with pytest.raises(ValueError, match="q1=2 violates 4"):
        twisted_prefactor(chi12, 2, 3, 1, 1, data)
    assert [forced_q1(12, q2) for q2 in (1, 2, 3, 4, 6, 12)] == [12, 12, 4, 3, 4, 1]
    assert forced_q1(1, 1) == 1
    # zeta != 1 needs the conductor to be the level
    with pytest.raises(ValueError, match="conductor equal to the level"):
        twisted_prefactor(chi12, 4, 3, 1, 4, data)


def test_twisted_prefactor_zeta_rules():
    data = _exact_data()
    chi = next(c for c in char_group(3).characters() if not c.is_trivial())
    tau = twisted_prefactor(chi, 3, 3, 1, 1, data)  # zeta = 1: tau_3(chi, 1/3)
    # zeta must be a positive integer supported on the primes of q
    with pytest.raises(ValueError, match="positive"):
        twisted_prefactor(chi, 3, 3, 1, 0, data)
    with pytest.raises(ValueError, match="supported on primes"):
        twisted_prefactor(chi, 3, 3, 1, 5, data)
    # zeta = 3 rides along when cond = q = 3, but q^2 zeta = 27 is no square
    with pytest.raises(ValueError, match="perfect square"):
        twisted_prefactor(chi, 3, 3, 1, 3, data)
    # zeta = 9: sqrt(81) / lcm(27, 3) * tau * mu(9), mu(9) = h_2(1, 2) = 7
    assert twisted_prefactor(chi, 3, 3, 1, 9, data) == tau * Fraction(7, 3)
    # the prefactor is exact only: mu(9) reads the parameters at 3
    for bad in (0.5, 0.5j):
        data = CoeffData({3: ((1, 2, 3), (1, bad), 2)})
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            twisted_prefactor(chi, 3, 3, 1, 9, data)


def test_fe_root_number_unitary():
    rng = random.Random(64)
    for q in (3, 4, 5, 7):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            for _ in range(5):
                eps_pi = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                eps_tau = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                unit = lambda: cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                r1 = rng.choice([r for r in range(1, q) if gcd(r, q) == 1])
                r2 = rng.choice([r for r in range(1, q) if gcd(r, q) == 1])
                eps = fe_root_number(
                    eps_pi, eps_tau, unit(), unit(), unit(),
                    chi, Fraction(r1, q), Fraction(r2, q),
                )
                assert abs(abs(eps) - 1) < 1e-9


def test_fe_root_number_rejects_vanishing_gauss():
    chi0 = char_group(4).trivial()
    with pytest.raises(ValueError):
        fe_root_number(1, 1, 1, 1, 1, chi0, Fraction(1, 4), Fraction(1, 4))


def test_conductor_exponent_check():
    """Composed conductor is n^2 q^3, prime by prime."""
    ok, mismatches = conductor_exponent_check(6, 3, 6**2 * 3**3)
    assert ok, mismatches
    ok, mismatches = conductor_exponent_check(6, 3, 6**2 * 3**2)
    assert not ok
    assert mismatches and mismatches[0][0] == 3
    ok, _ = conductor_exponent_check(1, 1, 1)
    assert ok
