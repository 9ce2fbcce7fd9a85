"""Schur polynomials in three variables, two-row specializations, and the
Cauchy-type expansion they satisfy.

`schur3` takes the bialternant route at pairwise distinct points and the
Jacobi-Trudi route at repeated ones; a zero third variable gives the
two-variable values, s_lam(x, y, 0) = s_lam(x, y).  `cauchy_check` alone
reaches the two-variable kernels that the expansion's right side uses."""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslab.scalars import EXACT, FLOAT
from rslab.symfunc import (
    Partition3,
    cauchy_check,
    elementary_symmetric,
    partitions3_of,
    schur3,
    schur3_tableau,
)


def _rand_fracs(rng, k, lo=-9, hi=9, den=5):
    out = []
    while len(out) < k:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if f != 0:
            out.append(f)
    return out


def test_elementary_symmetric_anchor():
    xs = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(0, xs, EXACT) == 1
    assert elementary_symmetric(1, xs, EXACT) == 6
    assert elementary_symmetric(2, xs, EXACT) == 11
    assert elementary_symmetric(3, xs, EXACT) == 6
    assert elementary_symmetric(4, xs, EXACT) == 0


def test_complete_homogeneous_anchor():
    """h_k = s_(k); at (1, 2, 0) the bialternant route gives h_k(1, 2)."""
    xs = [Fraction(1), Fraction(2), Fraction(0)]
    # h_2(x, y) = x^2 + xy + y^2
    assert schur3(Partition3(2), xs, EXACT) == 7
    assert schur3(Partition3(0), xs, EXACT) == 1
    # and the Jacobi-Trudi route at a repeated point: h_2(1, 1, 2) = 1 + 1 + 4 + 1 + 2 + 2
    assert schur3(Partition3(2), (1, 1, 2), EXACT) == 11


def test_schur_hook_anchor():
    """s_{2,1,0} at (1,1,1) counts standard-ish tableaux: dimension 8."""
    lam = Partition3(2, 1, 0)
    ones = [Fraction(1)] * 3
    assert schur3(lam, ones, EXACT) == 8
    assert schur3_tableau(lam, ones, EXACT) == 8


def test_partitions3_of():
    parts = list(partitions3_of(4))
    assert Partition3(4, 0, 0) in parts
    assert Partition3(2, 1, 1) in parts
    assert all(sum(p.parts) == 4 for p in parts)
    assert len(parts) == len(set(parts))
    # count of partitions of 4 into at most 3 parts is 4
    assert len(parts) == 4


def test_schur_routes_agree_random():
    rng = random.Random(310)
    for _ in range(40):
        lam = Partition3(rng.randint(2, 5), rng.randint(1, 2), rng.randint(0, 1))
        xs = _rand_fracs(rng, 3)
        a = schur3(lam, xs, EXACT)
        b = schur3_tableau(lam, xs, EXACT)
        assert a == b


def test_bialternant_agrees_at_distinct_points():
    """At pairwise distinct points `schur3` is the bialternant ratio."""
    rng = random.Random(77)
    for _ in range(40):
        xs = _rand_fracs(rng, 3)
        if len({*xs}) < 3:
            continue
        a, b = sorted((rng.randint(1, 6), rng.randint(0, 3)), reverse=True)
        lam = Partition3(a, b, 0)
        assert schur3(lam, xs, EXACT) == _schur_oracle(lam.parts, xs)


def test_schur3_dispatch_handles_coincident_points():
    """The bialternant ratio degenerates at repeated coordinates; the
    dispatcher must still return the right value there."""
    xs = [Fraction(2), Fraction(2), Fraction(3)]
    lam = Partition3(3, 1, 0)
    assert schur3(lam, xs, EXACT) == _schur_oracle(lam.parts, xs)
    xs = [Fraction(1, 2)] * 3
    assert schur3(lam, xs, EXACT) == _schur_oracle(lam.parts, xs)


def test_schur_gl2_two_row():
    """s_(f)(g1, g2) = h_f(g1, g2), at distinct and at equal g."""
    for g in ([Fraction(1), Fraction(2)], [Fraction(3, 2)] * 2):
        for f in range(5):
            assert schur3(Partition3(f), (*g, 0), EXACT) == _h_oracle(f, g)
    assert schur3(Partition3(2), (1, 2, 0), EXACT) == 7


def test_schur_two_row_factorization():
    """s_{(r+s, s)}(x, y) = (xy)^s h_r(x, y)."""
    rng = random.Random(19)
    for _ in range(30):
        x, y = _rand_fracs(rng, 2)
        r, s = rng.randint(0, 4), rng.randint(0, 3)
        got = schur3(Partition3(r + s, s), (x, y, 0), EXACT)
        want = (x * y) ** s * _h_oracle(r, [x, y])
        assert got == want


def test_cauchy_check_exact_zero():
    rng = random.Random(4)
    for _ in range(5):
        alphas = _rand_fracs(rng, 3)
        gammas = _rand_fracs(rng, 2)
        residuals = cauchy_check(alphas, gammas, kmax=8, mode=EXACT)
        assert all(r == 0 for r in residuals)


def test_cauchy_check_float():
    rng = random.Random(8)
    alphas = [complex(rng.uniform(-0.5, 0.5)) for _ in range(3)]
    gammas = [complex(rng.uniform(-0.5, 0.5)) for _ in range(2)]
    residuals = cauchy_check(alphas, gammas, kmax=8, mode=FLOAT)
    assert max(abs(r) for r in residuals) < 1e-12


@pytest.mark.parametrize("ratio", [1, 1 + 1e-9], ids=["equal", "near"])
def test_cauchy_check_float_near_the_gamma_diagonal(ratio):
    """At g1 = g2, and within 1e-6 of it, the two-row Schur values take h_f
    in place of the ratio (g1^(f+1) - g2^(f+1)) / (g1 - g2), which would
    divide by zero or cancel to noise."""
    alphas = [complex(0.3), complex(-0.2, 0.1), complex(0.45)]
    g2 = complex(0.4, -0.1)
    residuals = cauchy_check(alphas, [g2 * ratio, g2], kmax=10, mode=FLOAT)
    assert max(abs(r) for r in residuals) < 1e-12


def test_partition3_validation():
    with pytest.raises(ValueError):
        Partition3(1, 2, 0)
    with pytest.raises(ValueError):
        Partition3(2, 1, -1)


# -- the integer kernels against a Fraction oracle ----------------------------


def _h_oracle(k, xs):
    """h_k as the sum of its monomials."""
    if k < 0:
        return Fraction(0)
    return sum((prod((xs[i] for i in c), start=Fraction(1))
                for c in itertools.combinations_with_replacement(range(len(xs)), k)), Fraction(0))


def _e_oracle(k, xs):
    if k < 0:
        return Fraction(0)
    return sum((prod((xs[i] for i in c), start=Fraction(1))
                for c in itertools.combinations(range(len(xs)), k)), Fraction(0))


def _det_oracle(m):
    """Leibniz expansion, so it shares no code with symfunc's determinant."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * prod((m[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


def _schur_oracle(parts, xs):
    """s_lam(xs) as the Fraction Jacobi-Trudi determinant det h_(l_i - i + j)."""
    return _det_oracle([[_h_oracle(li - i + j, xs) for j in range(len(parts))]
                        for i, li in enumerate(parts)])


_scalar = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.sampled_from([0, Fraction(0), -1, Fraction(-7, 6)]),
)
_triple = st.tuples(_scalar, _scalar, _scalar)
# repeated entries take the determinant route, and the two-variable diagonal case
_alphas = st.one_of(_triple, _triple.map(lambda t: (t[0], t[0], t[2])), _scalar.map(lambda x: (x,) * 3))
_pair = st.tuples(_scalar, _scalar)
_gammas = st.one_of(_pair, _scalar.map(lambda x: (x, x)))
_partition = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).map(
    lambda t: Partition3(*sorted(t, reverse=True)))


def _exact(got, want):
    # coeffs tables and the coeff-exact residuals need Fractions, not ints
    assert isinstance(got, Fraction), type(got)
    assert got == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alphas=_alphas, gammas=_gammas, lam=_partition, k=st.integers(-1, 7))
def test_exact_values_match_a_fraction_oracle(alphas, gammas, lam, k):
    xs = [Fraction(x) for x in alphas]
    gs = [Fraction(g) for g in gammas]
    _exact(elementary_symmetric(k, alphas, EXACT), _e_oracle(k, xs))
    # the bialternant route where xs are pairwise distinct, else Jacobi-Trudi
    want = _schur_oracle(lam.parts, xs)
    _exact(schur3(lam, alphas, EXACT), want)
    _exact(schur3_tableau(lam, alphas, EXACT), want)
    if k >= 0:
        _exact(schur3(Partition3(k), alphas, EXACT), _h_oracle(k, xs))
        _exact(schur3(Partition3(k), (*gammas, 0), EXACT), _h_oracle(k, gs))
    a, b = lam.l1, lam.l2
    _exact(schur3(Partition3(a, b), (*gammas, 0), EXACT), _schur_oracle((a, b), gs))
    residuals = cauchy_check(alphas, gammas, 4, EXACT)
    assert len(residuals) == 5
    for r in residuals:
        _exact(r, 0)


@pytest.mark.parametrize("call", [
    lambda: elementary_symmetric(2, [1, 0.5], EXACT),
    lambda: elementary_symmetric(1, [Fraction(1, 2), 2.0], EXACT),
    lambda: schur3(Partition3(2, 1), (1, 2, 3.0), EXACT),
    lambda: schur3_tableau(Partition3(2, 1), (1.0, 2, 3), EXACT),
    lambda: schur3(Partition3(2, 1), (1, 2.5, 2.5), EXACT),
    lambda: schur3(Partition3(2, 1), (1, 2, 0.5), EXACT),
    lambda: schur3_tableau(Partition3(2), (1, 0.5, 0), EXACT),
    lambda: cauchy_check((1, 2, 3), (0.5, 0.5), 3, EXACT),
    lambda: cauchy_check((1, 2, 3), (1, 0.5), 3, EXACT),
    lambda: cauchy_check((1, 2, 0.5), (1, 2), 3, EXACT),
])
def test_float_in_exact_mode_raises(call):
    with pytest.raises(TypeError):
        call()
