"""Local Euler factor polynomials and the series they assemble into."""

import random
from fractions import Fraction

import pytest

from rslab.arith import primes_up_to
from rslab.euler import (
    DirichletSeries,
    EulerFactorPoly,
    NotDivisibleError,
    assemble_global,
    expand_inverse,
    multiplicative,
    poly_divide_exact,
    poly_mul,
)
from rslab.scalars import EXACT, FLOAT


def test_from_roots_inverse():
    # (1 - 2X)(1 - 3X) = 1 - 5X + 6X^2
    f = EulerFactorPoly.from_roots_inverse([Fraction(2), Fraction(3)], EXACT)
    assert f.coeffs == (Fraction(1), Fraction(-5), Fraction(6))
    assert f.degree == 2


def test_poly_mul_matches_direct_expansion():
    rng = random.Random(23)
    for _ in range(50):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        f = EulerFactorPoly((Fraction(1), *a), EXACT)
        g = EulerFactorPoly((Fraction(1), *b), EXACT)
        h = poly_mul(f, g)
        # direct convolution oracle
        fa, gb = f.coeffs, g.coeffs
        for k in range(len(fa) + len(gb) - 1):
            conv = sum(
                fa[i] * gb[k - i]
                for i in range(len(fa))
                if 0 <= k - i < len(gb)
            )
            assert h.coeffs[k] == conv


def test_expand_inverse_is_geometric_for_linear_factor():
    f = EulerFactorPoly((Fraction(1), Fraction(-1, 2)), EXACT)
    coeffs = expand_inverse(f, 6)
    assert coeffs == [Fraction(1, 2) ** k for k in range(7)]


def test_expand_inverse_times_poly_is_one():
    rng = random.Random(41)
    for _ in range(20):
        c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        f = EulerFactorPoly((Fraction(1), *c), EXACT)
        inv = expand_inverse(f, 8)
        # convolve back and check we get 1, 0, 0, ...
        for k in range(9):
            total = sum(
                f.coeffs[i] * inv[k - i]
                for i in range(len(f.coeffs))
                if 0 <= k - i <= 8
            )
            assert total == (Fraction(1) if k == 0 else Fraction(0))


def test_poly_divide_exact_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        a = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        g = EulerFactorPoly((Fraction(1), *a), EXACT)
        q = EulerFactorPoly((Fraction(1), *b), EXACT)
        f = poly_mul(g, q)
        assert poly_divide_exact(f, g) == q


def test_poly_divide_exact_raises_with_remainder():
    f = EulerFactorPoly((Fraction(1), Fraction(1)), EXACT)
    g = EulerFactorPoly((Fraction(1), Fraction(0), Fraction(1)), EXACT)
    with pytest.raises(NotDivisibleError) as exc:
        poly_divide_exact(f, g)
    assert exc.value.remainder is not None


def test_geometric_factor():
    f = EulerFactorPoly.from_roots_inverse([Fraction(5, 7)], EXACT)
    assert f.coeffs == (Fraction(1), Fraction(-5, 7))


def test_multiplicative_reads_each_prime_power_once():
    seen = []

    def local(p, k):
        seen.append((p, k))
        return Fraction(-1) ** k * p  # so that a(n) = lambda(n) * rad(n)

    assert multiplicative(1, local, EXACT) == 1 and seen == []
    assert multiplicative(360, local, EXACT) == 30  # 2^3 3^2 5: six prime factors
    assert seen == [(2, 3), (3, 2), (5, 1)]


def test_dirichlet_series_multiplicativity():
    """a(mn) = a(m) a(n) for coprime m, n when all local data is present."""
    locals_ = {p: EulerFactorPoly.one(EXACT) for p in primes_up_to(200)}
    locals_[2] = EulerFactorPoly((Fraction(1), Fraction(-1, 2)), EXACT)
    locals_[3] = EulerFactorPoly((Fraction(1), Fraction(1, 3), Fraction(-1, 9)), EXACT)
    locals_[5] = EulerFactorPoly((Fraction(1), Fraction(2)), EXACT)
    series = assemble_global(locals_, trunc=200, mode=EXACT)
    assert series.a(1) == Fraction(1)
    for m, n in [(2, 3), (4, 15), (8, 25), (9, 10)]:
        assert series.a(m * n) == series.a(m) * series.a(n)
    # prime powers follow the local expansion
    inv3 = expand_inverse(locals_[3], 4)
    for k in range(5):
        assert series.a(3**k) == inv3[k]


def test_assemble_global_float_mode():
    locals_ = {p: EulerFactorPoly.one(FLOAT) for p in primes_up_to(50)}
    locals_[2] = EulerFactorPoly((1 + 0j, -0.5 + 0j), FLOAT)
    locals_[3] = EulerFactorPoly((1 + 0j, (1 / 3) + 0j), FLOAT)
    series = assemble_global(locals_, trunc=50, mode=FLOAT)
    assert abs(series.a(6) - (0.5 * (-1 / 3))) < 1e-12


def test_is_one():
    assert EulerFactorPoly.one(EXACT).is_one()
    assert not EulerFactorPoly((Fraction(1), Fraction(1)), EXACT).is_one()
