"""The dense reference for exact cyclotomic zero tests.

Writes sum_k w_k x^k into a list of length n, clears denominators and
divides by the n-th cyclotomic polynomial Phi_n: the sum at x = e(1/n) is
zero iff the remainder is, and rational iff the remainder is a constant.
It shares no code with `rslab.cyclotomic`, whose sparse descent over the
primes of n the tests compare against it.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from rslab.arith import divisors


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of Phi_n, by dividing x^n - 1 by Phi_d for
    every proper divisor d of n; exact integer arithmetic throughout."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d < n:
            num, rem = divmod_int(num, cyclotomic_poly(d))
            assert not any(rem), f"x^{n}-1 not divisible by cyclotomic_poly({d})"
    return tuple(num)


def divmod_int(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials by a monic divisor."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    qlen = len(rem) - dd
    quot = [0] * max(qlen, 0)
    support = [(j, b) for j, b in enumerate(den) if b]
    for i in range(qlen - 1, -1, -1):
        c = rem[i + dd]
        if c:
            quot[i] = c
            for j, b in support:
                rem[i + j] -= c * b
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def dense_reduce(n: int, weights) -> tuple[list[int], int]:
    """(rem, den): den is the lcm of the weights' denominators and rem the
    integer polynomial den * sum_k w_k x^k (keys taken mod n) reduced
    modulo Phi_n."""
    den = 1
    for c in weights.values():
        den = den * c.denominator // gcd(den, c.denominator)
    poly = [0] * n
    for k, c in weights.items():
        poly[k % n] += int(c * den)
    return divmod_int(poly, cyclotomic_poly(n))[1], den


def dense_is_zero(n: int, weights) -> bool:
    return not dense_reduce(n, weights)[0]


def dense_as_rational(z) -> Fraction | None:
    """The CycloElement z as a Fraction if it is rational, else None."""
    rem, den = dense_reduce(z.n, z.coeffs)
    if len(rem) <= 1:
        return Fraction(rem[0] if rem else 0, den)
    return None
