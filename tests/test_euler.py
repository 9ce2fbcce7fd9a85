"""Local Euler factor polynomials and the series they assemble into."""

import random
from fractions import Fraction

import pytest

from rslab.arith import primes_up_to
from rslab.euler import (
    EulerFactorPoly,
    NotDivisibleError,
    inverse_series,
    multiplicative,
    poly_divide_exact,
    poly_mul,
)
from rslab.langlands import GlobalRep, LocalData
from rslab.scalars import EXACT, FLOAT


def test_from_roots_inverse():
    # (1 - 2X)(1 - 3X) = 1 - 5X + 6X^2
    f = EulerFactorPoly.from_roots_inverse([Fraction(2), Fraction(3)])
    assert f.coeffs == (Fraction(1), Fraction(-5), Fraction(6))
    assert f.degree == 2


def test_poly_mul_matches_direct_expansion():
    rng = random.Random(23)
    for _ in range(50):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        f = EulerFactorPoly((Fraction(1), *a))
        g = EulerFactorPoly((Fraction(1), *b))
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
    coeffs = inverse_series([Fraction(1, 2)], 6, EXACT)
    assert coeffs == [Fraction(1, 2) ** k for k in range(7)]


def test_expand_inverse_times_poly_is_one():
    rng = random.Random(41)
    for _ in range(20):
        roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        f = EulerFactorPoly.from_roots_inverse(roots)
        inv = inverse_series(roots, 8, EXACT)
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
        g = EulerFactorPoly((Fraction(1), *a))
        q = EulerFactorPoly((Fraction(1), *b))
        f = poly_mul(g, q)
        assert poly_divide_exact(f, g) == q


def test_poly_divide_exact_raises_with_remainder():
    f = EulerFactorPoly((Fraction(1), Fraction(1)))
    g = EulerFactorPoly((Fraction(1), Fraction(0), Fraction(1)))
    with pytest.raises(NotDivisibleError) as exc:
        poly_divide_exact(f, g)
    assert exc.value.remainder is not None


def test_exact_factor_beyond_float_range():
    """Exact mode never converts a coefficient to complex, so a coefficient
    too large for a float builds and divides like any other."""
    big = 10**400
    f = EulerFactorPoly([1, big])
    assert f.coeffs == (1, big)
    g = EulerFactorPoly([1, -1])
    fg = poly_mul(f, g)
    assert poly_divide_exact(fg, g) == f
    assert poly_divide_exact(fg, f) == g
    with pytest.raises(NotDivisibleError):
        poly_divide_exact(EulerFactorPoly([1, big, 1]), EulerFactorPoly([1, 1]))


def test_geometric_factor():
    f = EulerFactorPoly.from_roots_inverse([Fraction(5, 7)])
    assert f.coeffs == (Fraction(1), Fraction(-5, 7))


def test_multiplicative_reads_each_prime_power_once():
    seen = []

    def local(p, k):
        seen.append((p, k))
        return Fraction(-1) ** k * p  # so that a(n) = lambda(n) * rad(n)

    assert multiplicative(1, local, EXACT) == 1 and seen == []
    assert multiplicative(360, local, EXACT) == 30  # 2^3 3^2 5: six prime factors
    assert seen == [(2, 3), (3, 2), (5, 1)]


def _rep(params: dict, mode: str, p_max: int) -> GlobalRep:
    """Degree-2 data: the given parameters at their primes, factor 1 elsewhere."""
    locals_ = {p: LocalData(p, params.get(p, (0, 0)), m=0 if p in params else 1)
               for p in primes_up_to(p_max)}
    return GlobalRep(2, mode, p_max, locals_)


def test_dirichlet_series_multiplicativity():
    """a(mn) = a(m) a(n) for coprime m, n when all local data is present."""
    params = {2: (Fraction(1, 2), Fraction(-1)), 3: (Fraction(-1, 3), Fraction(2, 3)),
              5: (Fraction(-2), Fraction(7))}
    rep = _rep(params, EXACT, 200)
    series = rep.series(200)
    assert len(series) == 200
    assert series[0] == Fraction(1)
    a = lambda n: series[n - 1]
    for m, n in [(2, 3), (4, 15), (8, 25), (9, 10)]:
        assert a(m * n) == a(m) * a(n)
    # a(3^k) is h_k of the two parameters at 3; a factor 1 kills every multiple of p
    x, y = params[3]
    for k in range(5):
        assert a(3**k) == sum(x**i * y ** (k - i) for i in range(k + 1))
    assert a(7) == a(49) == a(8 * 11) == 0


def test_series_float_mode():
    rep = _rep({2: (0.5, 1), 3: (-1 / 3, 1)}, FLOAT, 50)
    series = rep.series(50)
    assert abs(series[6 - 1] - (1.5 * (2 / 3))) < 1e-12
    with pytest.raises(ValueError, match="p_max"):
        rep.series(51)


def test_float_factor_rejects_non_finite_coefficients():
    for bad in (float("inf"), float("nan"), complex(1, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            inverse_series([bad], 2, FLOAT)
    # three parameters of 1e308 overflow their elementary symmetric sums
    with pytest.raises(ValueError, match="finite"):
        inverse_series([1e308] * 3, 2, FLOAT)


def test_float_series_keeps_tiny_roots():
    """No tolerance trims a float factor: h_3(1e-4, 1e-4, 1e-4) = 10 * 1e-12,
    and a single root 1e-12 gives a(p) = 1e-12 rather than dropping out."""
    assert abs(inverse_series([1e-4] * 3, 3, FLOAT)[3] - 1e-11) <= 1e-24
    locals_ = {p: LocalData(p, (1e-12,)) for p in primes_up_to(5)}
    series = GlobalRep(1, FLOAT, 5, locals_).series(5)
    assert series[2 - 1] == 1e-12 and abs(series[4 - 1] - 1e-24) <= 1e-36


def test_factor_is_exact():
    """EulerFactorPoly holds exact coefficients: floats are refused, trailing
    zeros are trimmed, and the constant term must be exactly 1."""
    for bad in (0.5, 0.5 + 0j):
        with pytest.raises(TypeError):
            EulerFactorPoly((1, bad))
        with pytest.raises(TypeError):
            EulerFactorPoly.from_roots_inverse([bad])
    assert EulerFactorPoly((1, Fraction(-1, 3), 0, 0)).coeffs == (1, Fraction(-1, 3))
    with pytest.raises(ValueError, match="constant term"):
        EulerFactorPoly((1 + Fraction(1, 10**30), 1))
    assert EulerFactorPoly.from_roots_inverse([0, 2, 0]) == EulerFactorPoly((1, -2))


def test_is_one():
    assert EulerFactorPoly.one().is_one()
    assert not EulerFactorPoly((Fraction(1), Fraction(1))).is_one()
