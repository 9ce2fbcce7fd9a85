"""Additive twists of degree-3 coefficients, the window-constrained
twisted-series prefactor, and the root-number bookkeeping."""

import cmath
import random
from array import array
from fractions import Fraction
from math import gcd, isclose, pi

import pytest

from rslab import twists
from rslab.arith import primes_up_to
from rslab.characters import char_group
from rslab.coeffs import CoeffData
from rslab.euler import inverse_series, multiplicative
from rslab.scalars import FLOAT, parse_scalar
from rslab.twists import (
    additive_twist,
    conductor_exponent_check,
    fe_root_number,
    float_stream,
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
    """q <= 2: a single term e(t/q) sign(t)^parity; no averaging happens,
    which at t = -1, parity 1 would give 0."""
    assert isclose(unit_average(1, 2, 0).real, -1.0)
    assert abs(unit_average(-1, 2, 1) - 1) < 1e-12
    assert abs(unit_average(-3, 1, 1) + 1) < 1e-12
    assert abs(unit_average(3, 1, 0) - 1) < 1e-12


def test_unit_average_is_even_part_for_even_parity():
    """q > 2, parity 0: the average of e(x) and e(-x) is cos(2 pi x), x = t/q;
    parity 1 gives i sin(2 pi x)."""
    rng = random.Random(33)
    for _ in range(25):
        t, q = rng.randint(1, 60), rng.randint(3, 12)
        z = unit_average(t, q, 0)
        assert abs(z - cmath.cos(2 * cmath.pi * t / q)) < 1e-12
        w = unit_average(t, q, 1)
        assert abs(w - 1j * cmath.sin(2 * cmath.pi * t / q)) < 1e-12


def test_unit_average_depends_on_x_mod_1_at_any_size():
    """A huge x = t/q shifted by an integer gives the small x's value, with
    the sign of the huge x; float(t / q) alone overflows or loses x mod 1
    here."""
    for big in (10**20, 10**400):
        for t, q in ((1, 2), (1, 4), (2, 3), (7, 5)):
            for parity in (0, 1):
                small = unit_average(t, q, parity)
                assert abs(unit_average(big * q + t, q, parity) - small) < 1e-9
                assert abs(unit_average(-big * q - t, q, parity)
                           - small.conjugate() * (-1) ** parity) < 1e-9


def test_unit_average_sign_zero_convention():
    # sign(0) := +1, so t = 0 gives 1 for any parity at q <= 2
    for q in (1, 2):
        assert unit_average(0, q, 0) == 1
        assert unit_average(0, q, 1) == 1


def _unit_average_by_fractions(t, q, parity):
    """unit_average with x = t/q shifted by 2^20 round(x / 2^20) as
    Fractions: the reference for its int shift."""
    x = Fraction(t, q)
    xf = float(x - 2**20 * round(x / 2**20))
    sign = 1.0 if x >= 0 else -1.0

    def one_term(y, s):
        return cmath.exp(2j * pi * y) * s**parity

    if q <= 2:
        return one_term(xf, sign)
    return (one_term(xf, sign) + one_term(-xf, -sign if x else 1.0)) / 2


def _shift_cases():
    """(t, q): n beta past 2^19, where the shift k is 1 or more (twist --beta
    3/4 from n = 699,051 on), exact ties x / 2^20 = j + 1/2, large x, and t =
    n r over q = 12 with n sharing 2, 3, 4 or 6 with q, so x is not in lowest
    terms, small and past 2^19, ties among them.  Each comes also times 2 and
    6 over 2q and 6q, where q <= 2 becomes q > 2."""
    base = [(3 * n, 4) for n in range(699_000, 699_100)]
    base += [(n, 4) for n in (*range(2**21 - 40, 2**21 + 40), *range(3 * 2**21 - 40, 3 * 2**21 + 40))]
    for t, q in ((2**19, 1), (3 * 2**18, 1), (-(2**19), 1), (2**19, 3)):
        base += [(n * t, q) for n in range(-13, 14)]
    rng = random.Random(20)
    base += [(rng.randint(-10**30, 10**30), rng.randint(1, 10**6)) for _ in range(300)]
    for r in (1, 5, 7, 11):
        past = 12 * 2**19 // r
        for n in (*range(1, 40), *range(past - 40, past + 40), *range(3 * past - 40, 3 * past + 40)):
            if gcd(n, 12) > 1:
                base.append((n * r, 12))
    base += [(6 * 2**20 * j, 12) for j in range(-7, 8, 2)]  # x = 2^19 j
    for t, q in base:
        for m in (1, 2, 6):
            yield m * t, m * q


def test_unit_average_int_shift_is_the_fraction_shift_bit_for_bit():
    cases = list(_shift_cases())
    xs = [Fraction(t, q) for t, q in cases]
    # both sides of k = 0, and ties to an even and to an odd j
    assert {round(x / 2**20) for x in xs} >= {-2, -1, 0, 1, 2}
    halves = [x / 2**20 - Fraction(1, 2) for x in xs]
    ties = {j for j in halves if j.denominator == 1}
    assert {j % 2 for j in ties} == {0, 1}
    # t/q past 2^19 and not in lowest terms over q = 12, ties among them
    shared = [(t, x) for (t, q), x in zip(cases, xs) if q == 12 and gcd(t, q) > 1]
    assert {gcd(t, 12) for t, _ in shared} == {2, 3, 4, 6, 12}
    assert max(abs(x) for _, x in shared) > 2**19
    assert any((x / 2**20 - Fraction(1, 2)).denominator == 1 for _, x in shared)
    for t, q in cases:
        for parity in (0, 1):
            got = unit_average(t, q, parity)
            want = _unit_average_by_fractions(t, q, parity)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (
                t, q, parity)


def test_unit_average_refuses_a_float():
    """t must be an int: a float, a complex or a Fraction, whole or not, is
    refused."""
    for t in (0.25, 0.25j, 2.0, Fraction(1, 4), Fraction(2)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            unit_average(t, 5, 0)


_SIGNED_ZERO_SCALARS = ["-2,-0.0", "0.5,-0.0", "-0.0,-0.75", "1", "-1.5,0.25", "2e-3,-7"]


def _packed(stream) -> bytes:
    """A complex stream as (re, im) pairs in an array("d"), as bytes."""
    return array("d", [x for c in stream for x in (c.real, c.imag)]).tobytes()


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6, 7, 900])
def test_additive_twist_is_the_multiplicative_product_bit_for_bit(n_max):
    """Each twisted coefficient is multiplicative(n) * unit_average(n num
    beta, den beta) to the bit, signed zeros included (`tobytes` tells -0.0
    from 0.0)."""
    rng = random.Random(n_max)
    params = {p: tuple(parse_scalar(rng.choice(_SIGNED_ZERO_SCALARS)) for _ in range(3))
              for p in primes_up_to(n_max)}
    tables = {p: inverse_series(params[p], 10, FLOAT) for p in params}
    for beta, parity in ((Fraction(2, 7), 1), (Fraction(-1, 3), 0), (Fraction(0), 0)):
        want = [multiplicative(n, lambda p, k: tables[p][k], FLOAT)
                * unit_average(n * beta.numerator, beta.denominator, parity)
                for n in range(1, n_max + 1)]
        got = additive_twist(float_stream(params, n_max), beta, parity)
        assert got.tobytes() == _packed(want)


def test_float_stream_shares_a_parameter_object_in_any_order():
    """Primes that list one parameter object share one table, built at the
    smallest of them (built at the first one listed, a descending order
    would cut it at the cap of the largest): in ascending, descending or
    shuffled order the stream is the one of distinct per-prime copies, to
    the byte, signed zeros included.  So is a mix of two objects that are
    equal under == but for the signs of their zeros."""
    rng = random.Random(28)
    n_max = 300
    triple = tuple(parse_scalar(s) for s in _SIGNED_ZERO_SCALARS[:3])
    flipped = tuple(parse_scalar(s.replace("-0.0", "0.0")) for s in _SIGNED_ZERO_SCALARS[:3])
    assert flipped == triple
    primes = primes_up_to(n_max)
    shuffled = primes[:]
    rng.shuffle(shuffled)
    mixed = {p: (triple, flipped)[i % 2] for i, p in enumerate(shuffled)}
    copies = {p: tuple(complex(z.real, z.imag) for z in triple) for p in primes}
    assert len({id(v) for v in copies.values()}) == len(primes)
    want = _packed(float_stream(copies, n_max))
    for order in (primes, primes[::-1], shuffled):
        assert _packed(float_stream(dict.fromkeys(order, triple), n_max)) == want
    alone = {p: tuple(complex(z.real, z.imag) for z in mixed[p]) for p in primes}
    assert _packed(float_stream(mixed, n_max)) == _packed(float_stream(alone, n_max))


def test_additive_twist_reads_any_iterable_of_the_stream():
    """The twist of the lazy stream and of its list are the same bytes."""
    params = _unitary_params(random.Random(29), 200)
    stream = list(float_stream(params, 200))
    for beta, parity in ((Fraction(3, 7), 1), (Fraction(-5, 4), 0), (Fraction(0), 0)):
        assert (additive_twist(float_stream(params, 200), beta, parity).tobytes()
                == additive_twist(stream, beta, parity).tobytes())


def test_gl31_twist_residuals_builds_one_stream(monkeypatch):
    """One call builds the sieve table and the local tables once, however
    many (r, parity) columns it twists: mod 8, 1 + 4 * 2 of them."""
    calls = {"largest_prime_powers": 0, "prime_power_tables": 0}

    def counted(name):
        kernel = getattr(twists, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(twists, name, counted(name))
    residuals = gl31_twist_residuals(8, _unitary_params(random.Random(8), 12), 12)
    assert {chi.parity for chi, _ in residuals} == {0, 1}
    assert calls == {"largest_prime_powers": 1, "prime_power_tables": 1}


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
    # the prefactor is exact only: data with a float or complex parameter
    # at 3, which mu(9) reads, are refused when they are made
    for bad in (0.5, 0.5j):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            CoeffData({3: ((1, 2, 3), (1, bad), 2)})


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


def test_fe_root_number_refuses_a_float_twist_point():
    chi = char_group(5).primitive_characters()[0]
    for b2, b2p in ((0.2, Fraction(1, 5)), (Fraction(1, 5), 0.4)):
        with pytest.raises(TypeError, match="expected an int or a Fraction, got float"):
            fe_root_number(1, 1, 1, 1, 1, chi, b2, b2p)


def test_conductor_exponent_check():
    """Composed conductor is n^2 q^3, prime by prime."""
    ok, mismatches = conductor_exponent_check(6, 3, 6**2 * 3**3)
    assert ok, mismatches
    ok, mismatches = conductor_exponent_check(6, 3, 6**2 * 3**2)
    assert not ok
    assert mismatches and mismatches[0][0] == 3
    ok, _ = conductor_exponent_check(1, 1, 1)
    assert ok
