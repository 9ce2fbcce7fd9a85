import random
from fractions import Fraction
from math import gcd

import pytest

from rslab.arith import (
    divisors,
    euler_phi,
    factorize,
    frac_gcd,
    is_prime,
    primes_up_to,
    primitive_root,
    radical,
    valuation,
    xgcd,
)


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_count_to_10000():
    assert len(primes_up_to(10000)) == 1229


def test_is_prime_matches_sieve():
    table = set(primes_up_to(500))
    for n in range(-3, 501):
        assert is_prime(n) == (n in table)


def test_factorize_against_trial_division():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 100000)
        fac = factorize(n)
        # independent reconstruction
        prod = 1
        for p, e in fac:
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_euler_phi_by_count():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(360) == 30


def test_xgcd_bezout():
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b) >= 0
        assert a * x + b * y == g


def test_valuation_int_and_fraction():
    assert valuation(40, 2) == 3
    assert valuation(40, 5) == 1
    assert valuation(40, 3) == 0
    assert valuation(Fraction(9, 50), 5) == -2
    assert valuation(Fraction(9, 50), 3) == 2
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_valuation_same_on_int_negative_int_and_fraction():
    for x in list(range(-60, 0)) + list(range(1, 61)):
        for p in (2, 3, 5):
            assert valuation(x, p) == valuation(Fraction(x), p), (x, p)
    assert valuation(-96, 2) == valuation(Fraction(-96, 7), 2) == 5
    assert valuation(Fraction(-9, 50), 5) == -2
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError):
            valuation(zero, 3)


def test_frac_gcd_generates_the_lattice():
    """frac_gcd(c, d) is the positive generator of cZ + dZ inside Q."""
    g = frac_gcd(Fraction(3, 4), Fraction(5, 6))
    assert g == Fraction(1, 12)
    assert (Fraction(3, 4) / g).denominator == 1
    assert (Fraction(5, 6) / g).denominator == 1
    rng = random.Random(7)
    for _ in range(100):
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        d = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if c == 0 and d == 0:
            continue
        g = frac_gcd(c, d)
        assert g > 0
        ci, di = c / g, d / g
        assert ci.denominator == 1 and di.denominator == 1
        assert gcd(int(ci), int(di)) == 1


def test_primitive_root_orders():
    for q in (3, 5, 7, 9, 11, 25, 27):
        g = primitive_root(q)
        seen = set()
        x = 1
        for _ in range(euler_phi(q)):
            x = x * g % q
            seen.add(x)
        assert len(seen) == euler_phi(q)
