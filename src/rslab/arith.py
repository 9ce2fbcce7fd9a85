"""Small number-theory toolkit: sieves, factorization, valuations, gcd helpers.

Everything here is exact integer/Fraction arithmetic; no floats.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def prime_sieve(n: int) -> bytearray:
    """The byte sieve to n >= 1: sieve[k] is 1 if k is prime, else 0."""
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return sieve


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, listed from `prime_sieve`."""
    if n < 2:
        return []
    return [i for i, v in enumerate(prime_sieve(n)) if v]


def largest_prime_powers(n: int) -> tuple[array, array, array]:
    """(top, rest, exp) with k = rest[k] * top[k]**exp[k] for 2 <= k <= n and
    top[k] the largest prime factor of k (top 0, rest 1, exp 0 below 2)."""
    top = array("i", [0]) * (n + 1)
    for p in range(2, n + 1):
        if not top[p]:  # each prime, ascending, marks its multiples
            top[p::p] = array("i", [p]) * (n // p)
    rest, exp = array("i", [1]) * (n + 1), array("i", [0]) * (n + 1)
    for k in range(2, n + 1):
        m = k // top[k]
        rest[k], exp[k] = (rest[m], exp[m] + 1) if top[m] == top[k] else (m, 1)
    return top, rest, exp


#: Miller-Rabin to these bases (the first 12 primes) is exact below
#: _MR_BOUND = psi_12 (Sorenson and Webster, 2015), about 3.18e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Whether n is prime: a deterministic Miller-Rabin test below
    `_MR_BOUND`, trial division at and above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        return all(n % f for f in range(_MR_BASES[-1] + 2, isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


# the streams sieve and factorize no index: a default `verify --suite all`
# leaves 51 entries, `verify --suite doublesum --n-max 100000` 316
@lru_cache(maxsize=2**17)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (p, e) pairs."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def valuation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or Fraction."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_gcd(*xs: Fraction | int) -> Fraction:
    """Positive generator of the fractional Z-ideal sum(x*Z); 0 if all are 0.

    For integers this is the usual gcd; in general
    gcd(a/b, c/d) = gcd(a*d, c*b) / (b*d).
    """
    g = Fraction(0)
    for x in xs:
        x = abs(Fraction(x))
        if x == 0:
            continue
        if g == 0:
            g = x
            continue
        g = Fraction(
            gcd(g.numerator * x.denominator, x.numerator * g.denominator),
            g.denominator * x.denominator,
        )
    return g


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q, for q in {2, 4, p^e, 2p^e} (odd p)."""
    if q in (1, 2):
        return 1
    if q == 4:
        return 3
    phi = euler_phi(q)
    prime_divs = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_divs):
            return g
    raise ValueError(f"no primitive root modulo {q}")
