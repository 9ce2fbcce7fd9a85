"""The degree-(3,2) coefficient double sum against the genuine product
coefficients, plus the standard-coefficient collapse and twist plumbing."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

from rslab import coeffs
from rslab.arith import factorize, primes_up_to
from rslab.coeffs import (
    CoeffData,
    CoeffStreams,
    c_pi_tau,
    central_char,
    coefficient_rows,
    double_sum_check,
    lambda_double,
    lambda_rs,
    lambda_std,
    lambda_tau,
    modulus_convention_central,
    standardcoeff_check,
    twist_compatibility_check,
    twist_tau,
)


def _anchor_data(p_max=120):
    """alpha = (1, 2, 3), gamma = (1, 2) at every prime: not unitary, but
    perfect for exact bookkeeping."""
    alphas = (Fraction(1), Fraction(2), Fraction(3))
    gammas = (Fraction(1), Fraction(2))
    return CoeffData.constant(alphas, gammas, p_max)


def test_lambda_double_anchors():
    data = _anchor_data()
    # lambda_pi(p, 1) = s_{(1,1,0)}(alpha) = e_2(1,2,3) = 11
    assert lambda_double(2, 1, data) == 11
    # lambda_pi(1, p^2) = s_{(2,0,0)}(alpha) = h_2(1,2,3) = 25
    assert lambda_double(1, 4, data) == 25


def test_lambda_tau_anchor():
    data = _anchor_data()
    # lambda_tau(p^2) = h_2(1, 2) = 7
    assert lambda_tau(4, data) == 7


def test_c_pi_tau_anchors():
    data = _anchor_data()
    assert c_pi_tau(2, data) == 18
    assert c_pi_tau(4, data) == 197
    assert c_pi_tau(8, data) == 1710


def test_lambda_rs_anchor():
    data = _anchor_data()
    assert lambda_rs(8, data) == 1710
    # at squarefree n the pairing coefficient is the plain product
    assert lambda_rs(2, data) == lambda_std(2, data) * lambda_tau(2, data)
    assert lambda_rs(6, data) == lambda_std(6, data) * lambda_tau(6, data)
    # lambda_std(8) = h_3(1,2,3)
    assert lambda_std(8, data) == 90


def test_double_sum_identity_anchor_params():
    data = _anchor_data()
    for n in range(1, 101):
        assert c_pi_tau(n, data) == lambda_rs(n, data), n


def test_double_sum_identity_random_params():
    rng = random.Random(92)
    for _ in range(5):
        alphas = tuple(
            Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3)
        )
        gammas = tuple(
            Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(2)
        )
        data = CoeffData.constant(alphas, gammas, 60)
        for n in range(1, 61):
            assert double_sum_check(n, data) == 0, n


def test_central_char_is_gamma_product():
    data = _anchor_data()
    assert central_char(2, data) == Fraction(2)  # gamma_1 * gamma_2
    assert central_char(1, data) == Fraction(1)
    assert central_char(4, data) == Fraction(4)


def test_standardcoeff_collapse():
    """lambda_pi(1, n) is the standard coefficient lambda_pi(n)."""
    data = _anchor_data()
    for n in range(1, 121):
        assert standardcoeff_check(n, data) == 0, n
    for n in (1, 2, 4, 8, 3, 9, 6, 36):
        assert lambda_double(1, n, data) == lambda_std(n, data)


def test_lambda_double_multiplicative_in_coprime_pairs():
    data = _anchor_data()
    # joint multiplicativity across coprime supports
    assert lambda_double(2, 3, data) == lambda_double(2, 1, data) * lambda_double(1, 3, data)
    assert lambda_double(6, 1, data) == lambda_double(2, 1, data) * lambda_double(3, 1, data)


def test_lambda_double_requires_positive_indices():
    data = _anchor_data()
    with pytest.raises(ValueError):
        lambda_double(0, 1, data)


def test_coefficient_rows_shape():
    data = _anchor_data()
    rows = list(coefficient_rows(10, data))
    assert len(rows) == 10
    n, lam, c, pair, residual = rows[1]
    assert n == 2
    assert c == 18
    assert residual == 0
    assert all(r[4] == 0 for r in rows)


def test_twist_compatibility():
    """Twisting tau by units u_p multiplies c(n) and lambda(n) alike by u(n)."""
    data = _anchor_data(30)
    units = {p: Fraction(-1) for p in primes_up_to(30)}
    residuals = twist_compatibility_check(30, data, units)
    assert len(residuals) == 30
    assert all(r == 0 for r in residuals), residuals


def test_twist_compatibility_with_units_off_the_integers():
    """Units with denominators give the twisted data other denominators than
    the plain data; both sides are still scaled alike, and the identity holds."""
    _, data = _varying_data(60)
    units = {p: Fraction(3, 2) if p % 3 == 1 else Fraction(-2, 5) for p in data.local}
    residuals = twist_compatibility_check(60, data, units)
    assert len(residuals) == 60
    assert all(r == 0 for r in residuals), residuals


def test_twist_compatibility_residuals_are_the_per_n_ones(monkeypatch):
    """A twist that disagrees with the units leaves residuals, and they are
    c_twisted(n) - u(n) c(n) of the per-n functions, with no scale factor."""
    _, data = _varying_data(40)
    wrong = twist_tau(data, Fraction(3, 2))
    monkeypatch.setattr(coeffs, "twist_tau", lambda d, units: wrong)
    residuals = twist_compatibility_check(40, data, Fraction(-1))
    omega = [sum(e for _, e in factorize(n)) for n in range(1, 41)]
    want = [c_pi_tau(n, wrong) - (-1) ** omega[n - 1] * c_pi_tau(n, data) for n in range(1, 41)]
    assert residuals == want
    assert any(r != 0 for r in residuals)


def _h(k, xs):
    """h_k(xs) summed monomial by monomial."""
    return sum((prod(m, start=Fraction(1)) for m in combinations_with_replacement(xs, k)),
               Fraction(0))


def _varying_data(p_max=200):
    """Parameters that change with p: 2 and 3 differ in both alphas and gammas,
    5 and 7 repeat 2, 11 takes the alphas of 2 with the gammas of 3 and 13 the
    reverse, and every other prime gets a third set."""
    a2, g2 = (Fraction(1), Fraction(2), Fraction(3)), (Fraction(1), Fraction(2))
    a3, g3 = (Fraction(-1, 2), Fraction(1, 3), Fraction(2)), (Fraction(3), Fraction(-1, 5))
    rest = ((Fraction(2), Fraction(-1), Fraction(1, 4)), (Fraction(1, 2), Fraction(-2)))
    special = {2: (a2, g2), 3: (a3, g3), 5: (a2, g2), 7: (a2, g2), 11: (a2, g3), 13: (a3, g2)}
    params = {p: special.get(p, rest) for p in primes_up_to(p_max)}
    local = {p: (a, g, modulus_convention_central(g)) for p, (a, g) in params.items()}
    return params, CoeffData(local)


def test_prime_missing_from_local_raises():
    """A coefficient that reads a prime the local map lacks is refused, and
    so is a map entry without 3 + 2 parameters."""
    data = CoeffData.constant((1, 2, 3), (1, 2), 10)
    with pytest.raises(ValueError, match="no local data at p=11"):
        lambda_rs(11, data)
    with pytest.raises(ValueError, match="no local data at p=11"):
        c_pi_tau(22, data)
    with pytest.raises(ValueError, match="no local data at p=11"):
        lambda_double(1, 11, data)
    with pytest.raises(ValueError, match="at p=2"):
        CoeffData({2: ((1, 2), (1, 2), 2)})


def test_parameters_varying_by_prime():
    """Each prime reads its own parameters, also where tables are shared."""
    params, data = _varying_data()
    for p, (alphas, gammas) in params.items():
        k, pk = 1, p
        while pk <= 200:
            pairs = [a * g for a in alphas for g in gammas]
            assert lambda_rs(pk, data) == c_pi_tau(pk, data) == _h(k, pairs), (p, k)
            assert lambda_std(pk, data) == _h(k, alphas), (p, k)
            assert lambda_tau(pk, data) == _h(k, gammas), (p, k)
            k, pk = k + 1, pk * p
    for n in range(1, 201):
        assert double_sum_check(n, data) == 0, n


def _zero_gamma_data():
    """_varying_data with gamma_1 = 0 at p = 7, so that its central value is 0."""
    _, data = _varying_data()
    local = dict(data.local)
    alphas, (_, g2), _ = local[7]
    local[7] = (alphas, (Fraction(0), g2), modulus_convention_central((0, g2)))
    return CoeffData(local)


def _twisted_data():
    """_varying_data with its gammas twisted by units with denominators."""
    _, data = _varying_data()
    return twist_tau(data, {p: Fraction(-1) if p % 4 == 1 else Fraction(3, 2) for p in data.local})


def _central_off_the_lattice():
    """A central value at p = 3 that no power of D_gamma makes whole: its
    scaled values stay Fractions."""
    local = dict(_anchor_data(200).local)
    alphas, gammas, _ = local[3]
    local[3] = (alphas, gammas, Fraction(1, 7))
    return CoeffData(local)


DATA = pytest.mark.parametrize(
    "make", [lambda: _varying_data()[1], _zero_gamma_data, _twisted_data, _central_off_the_lattice],
    ids=["varying", "zero-gamma", "twisted", "central-off-lattice"])


@DATA
def test_streams_equal_the_per_n_functions(make):
    """Every stream of the engine, over its scale, is the per-n value for
    n <= 200: lambda_std from the "pi" expansion, lambda(1, n) from the Schur
    tables, mu, lambda_pair and the double sum c."""
    data = make()
    streams = CoeffStreams(data, 200)
    da, dg = streams.d_alpha, streams.d_gamma
    routes = [
        (streams.expansion("pi"), da, lambda n: lambda_std(n, data)),
        (streams.schur(), da, lambda n: lambda_double(1, n, data)),
        (streams.expansion("tau"), dg, lambda n: lambda_tau(n, data)),
        (streams.expansion("pair"), da * dg, lambda n: lambda_rs(n, data)),
        (streams.c(), da * dg, lambda n: c_pi_tau(n, data)),
    ]
    for values, d, per_n in routes:
        scale = streams.scale(d)
        assert len(values) == 201
        for n in range(1, 201):
            assert Fraction(values[n], scale[n]) == per_n(n), (n, d)


@DATA
def test_streams_scale_the_parameters(make):
    """The engine on data with denominators gives the streams it gives on the
    same data scaled by hand, alphas by D_alpha, gammas by D_gamma and
    central values by D_gamma^2, whose own scale factors are 1."""
    data = make()
    streams = CoeffStreams(data, 200)
    da, dg = streams.d_alpha, streams.d_gamma
    scaled = {p: (tuple(a * da for a in alphas), tuple(g * dg for g in gammas), central * dg * dg)
              for p, (alphas, gammas, central) in data.local.items()}
    by_hand = CoeffStreams(CoeffData(scaled), 200)
    assert (by_hand.d_alpha, by_hand.d_gamma) == (1, 1)
    for factor in ("pi", "tau", "pair"):
        assert streams.expansion(factor) == by_hand.expansion(factor), factor
    assert streams.schur() == by_hand.schur()
    assert streams.c() == by_hand.c()


def test_equal_parameters_share_one_table(monkeypatch):
    """Primes whose parameters are equal share one table, also when the map
    holds distinct tuples for them; a parameter set that many primes hold
    as one object is coerced once."""
    data = CoeffData({2: ((1, 2, 3), (1, 2), 2), 3: ((1, 2, 3), (1, 2), 2),
                      5: ((Fraction(1), 2, 3), (1, Fraction(4, 2)), Fraction(2)),
                      7: ((1, 2, 3), (1, 3), 3)})
    assert data._local(2) is data._local(3) is data._local(5)
    assert data._local(7) is not data._local(2)
    calls = []
    real = coeffs.coerce
    monkeypatch.setattr(coeffs, "coerce", lambda x, mode: calls.append(x) or real(x, mode))
    data = CoeffData.constant((1, 2, 3), (1, 2), 10**5)
    assert len(calls) == 6  # three alphas, two gammas and the central value
    assert len({id(data._local(p)) for p in primes_up_to(10**5)}) == 1


def test_stream_denominators_span_every_prime():
    """D_alpha and D_gamma are the lcms over all primes <= n_max, so primes
    with their own denominators each count."""
    _, data = _varying_data()
    for n_max, want in ((2, (1, 1)), (3, (6, 5)), (200, (12, 10))):
        streams = CoeffStreams(data, n_max)
        assert (streams.d_alpha, streams.d_gamma) == want, n_max


@pytest.mark.parametrize("bad", [0.5, 0.5j])
def test_constant_refuses_float_or_complex_parameters(bad):
    """The data are exact: `CoeffData.constant` coerces every parameter at
    once, and a float or complex one raises TypeError."""
    for alphas, gammas in (((1, 2, bad), (1, 2)), ((1, 2, 3), (bad, 2))):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            CoeffData.constant(alphas, gammas, 10)


def test_streams_refuse_float_data_and_missing_primes():
    """A float or complex parameter, a central value included, raises
    TypeError when the data are made, also at a prime no stream reads; a
    prime missing from the local map raises ValueError at the streams."""
    for bad in (0.5, 0.5j):
        for entry in (((1, 2, bad), (1, 2), 2), ((1, 2, 3), (bad, 2), 2), ((1, 2, 3), (1, 2), bad)):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                CoeffData({2: ((1, 2, 3), (1, 2), 2), 101: entry})
    with pytest.raises(ValueError, match="no local data at p=11"):
        CoeffStreams(CoeffData.constant((1, 2, 3), (1, 2), 10), 11)
