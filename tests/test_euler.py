"""Local Euler factor polynomials and the series they assemble into."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslab.arith import largest_prime_powers, primes_up_to
from rslab.euler import (
    EulerFactorPoly,
    NotDivisibleError,
    _from_roots,
    inverse_series,
    multiplicative,
    poly_divide_exact,
    poly_mul,
    prime_power_tables,
    sieve_stream,
)
from rslab.cli import main
from rslab.scalars import EXACT, FLOAT


def test_from_roots_inverse():
    # (1 - 2X)(1 - 3X) = 1 - 5X + 6X^2
    f = EulerFactorPoly.from_roots_inverse([Fraction(2), Fraction(3)])
    assert f.coeffs == (Fraction(1), Fraction(-5), Fraction(6))
    assert f.degree == 2


def _product_oracle(roots) -> list:
    """prod_i (1 - r_i X) on Fractions, skipping the roots that are 0."""
    coeffs = [Fraction(1)]
    for r in map(Fraction, roots):
        if r:
            coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _series_oracle(roots, kmax: int) -> list:
    """1 / prod_i (1 - r_i X) to X^kmax as the product of the geometric
    series sum_k r_i^k X^k, on Fractions."""
    out = [Fraction(1)] + [Fraction(0)] * kmax
    for r in map(Fraction, roots):
        geo = [r**k for k in range(kmax + 1)]
        out = [sum(out[i] * geo[k - i] for i in range(k + 1)) for k in range(kmax + 1)]
    return out


_root = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36)),
    st.just(Fraction(0)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(roots=st.lists(_root, max_size=6), kmax=st.integers(0, 9))
def test_integer_kernel_matches_a_fraction_oracle(roots, kmax):
    """The exact product and series run on integer numerators over one
    denominator D; each coefficient must come back as the Fraction over the
    right power of D, with no slot for a root that is 0."""
    want = _product_oracle(roots)
    got = _from_roots(roots, EXACT)
    assert got == want and all(type(c) is Fraction for c in got)
    assert EulerFactorPoly.from_roots_inverse(roots).coeffs == tuple(want)
    series = inverse_series(roots, kmax, EXACT)
    assert series == _series_oracle(roots, kmax)
    assert all(type(c) is Fraction for c in series)


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


@pytest.mark.parametrize("n_max", range(1, 41))
def test_sieve_stream_equals_multiplicative(n_max):
    """The sieve gives every a(n), n <= n_max, exactly as `multiplicative`
    does, also at the n <= 5 where it keeps no a(m) beyond a(1)."""
    rng = random.Random(n_max)
    local = {p: [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
             for p in primes_up_to(n_max)}
    got = list(sieve_stream(local, largest_prime_powers(n_max), 1))
    assert got == [multiplicative(n, lambda p, k: local[p][k], EXACT) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("n_max", [1, 2, 7, 8, 9, 26, 27, 28, 1000, 1024])
def test_prime_power_tables_cap_each_prime_at_its_largest_power(n_max):
    """With one object per prime, the table at p runs to the largest k with
    p^k <= n_max, p^k = n_max included."""
    entries = {p: [p] for p in (*primes_up_to(n_max), 1009)}
    got = prime_power_tables(entries, n_max, lambda entry, k: [entry[0] ** j for j in range(k + 1)])
    for p, table in got.items():
        assert table[-1] <= n_max < table[-1] * p


def test_prime_power_tables_share_one_object_at_its_smallest_prime():
    """Primes listing one object share one table, built once at the smallest
    of them, in any order; an equal but distinct object gets its own."""
    one, same, other = [0.0], [0.0], [-0.0]
    assert one == same == other
    for order in ((7, 3, 2, 5, 11), (2, 3, 5, 7, 11), (11, 7, 5, 3, 2)):
        entries = {p: {2: one, 3: same, 5: one, 7: same, 11: other}[p] for p in order}
        calls = []
        got = prime_power_tables(entries, 27, lambda entry, k: calls.append((entry, k)) or [k])
        assert [(e is one, e is same, k) for e, k in calls] == [(True, False, 4), (False, True, 3),
                                                                (False, False, 1)]
        assert got[5] is got[2] and got[7] is got[3] and got[2] is not got[3]


def _series(tmp_path, params: dict, n_max: int) -> list:
    """a(1..n_max) as `rslab twist --beta 0` prints them (e(0) = 1), from a rep
    file with the given three parameters at their primes (m = 1 where one is
    zero) and the factor 1 of a ramified prime (m = 1, zero parameters) at
    every other prime up to n_max; a(n) is at index n - 1."""
    rep = tmp_path / "pi.rep"
    lines = []
    for p in primes_up_to(n_max):
        local = params.get(p, (0, 0, 0))
        lines.append(f"{p} {0 if all(local) else 1} 1 {' '.join(map(repr, local))}\n")
    rep.write_text("".join(lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["twist", "--pi-file", str(rep), "--beta", "0", "--N", str(n_max)]) == 0
    return [complex(*json.loads(line)["coeff"]) for line in out.getvalue().splitlines()]


def test_dirichlet_series_multiplicativity(tmp_path):
    """a(mn) = a(m) a(n) for coprime m, n when all local data is present."""
    params = {2: (0.5, -1.0, 0.25), 3: (-0.25, 0.75, 1.5), 5: (-2.0, 7.0, 0.5),
              7: (1.25, -0.5, 2.0)}
    series = _series(tmp_path, params, 200)
    assert len(series) == 200
    assert series[0] == 1
    a = lambda n: series[n - 1]
    for m, n in [(2, 3), (4, 15), (8, 25), (9, 10), (4, 7), (5, 6), (8, 21)]:
        assert a(m * n) == pytest.approx(a(m) * a(n), rel=1e-12)
    # a(3^k) is h_k of the three parameters at 3; a factor 1 kills every multiple of p
    x, y, z = params[3]
    for k in range(5):
        h_k = sum(x**i * y**j * z ** (k - i - j) for i in range(k + 1) for j in range(k + 1 - i))
        assert a(3**k) == pytest.approx(h_k, rel=1e-12)
    assert a(11) == a(121) == a(8 * 13) == 0


def test_series_float_mode(tmp_path):
    series = _series(tmp_path, {2: (0.5, 1.0, 0.0), 3: (-0.25, 1.0, 0.0)}, 50)
    assert series[6 - 1] == 1.5 * 0.75 == series[2 - 1] * series[3 - 1]


def test_float_factor_rejects_non_finite_coefficients():
    for bad in (float("inf"), float("nan"), complex(1, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            inverse_series([bad], 2, FLOAT)
    # three parameters of 1e308 overflow their elementary symmetric sums
    with pytest.raises(ValueError, match="finite"):
        inverse_series([1e308] * 3, 2, FLOAT)


def test_float_series_keeps_tiny_roots(tmp_path):
    """No tolerance trims a float factor: h_3(1e-4, 1e-4, 1e-4) = 10 * 1e-12,
    and a single root 1e-12 gives a(p) = 1e-12 rather than dropping out."""
    assert abs(inverse_series([1e-4] * 3, 3, FLOAT)[3] - 1e-11) <= 1e-24
    series = _series(tmp_path, {p: (1e-12, 0.0, 0.0) for p in primes_up_to(5)}, 5)
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
