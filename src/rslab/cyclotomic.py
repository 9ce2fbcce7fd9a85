"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are finite sums  sum_k c_k * zeta_N^k  stored as a sparse map
exponent -> int or Fraction, kept as given.  Different ambient orders
combine by embedding into the lcm.  Zero testing is rigorous: a cheap numeric
bound certifies most elements nonzero, and the remaining candidates are
reduced exactly modulo the N-th cyclotomic polynomial.  The test runs on a
bare exponent map as well (`sum_is_zero`), so a caller that forms many sums
need not build a CycloElement for each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, pi
import cmath

from .arith import divisors

#: |value| above this multiple of the coefficient mass certifies nonzero
_PREFILTER_REL = 1e-9


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n; all arithmetic is exact integer arithmetic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d < n:
            num, rem = _divmod_int(num, cyclotomic_poly(d))
            assert not any(rem), f"x^{n}-1 not divisible by cyclotomic_poly({d})"
    return tuple(num)


@lru_cache(maxsize=32)
def _roots(n: int) -> tuple[int, list[complex], list[complex]]:
    """(s, high, low) with e(k/n) = high[k // s] * low[k % s] for 0 <= k < n:
    two tables of about sqrt(n) roots each, so memory stays small at any n."""
    s = isqrt(n - 1) + 1
    low = [cmath.exp(2j * pi * (j / n)) for j in range(s)]
    high = [cmath.exp(2j * pi * (i * s / n)) for i in range((n - 1) // s + 1)]
    return s, high, low


def _approx(n: int, weights) -> complex:
    """sum_k w_k e(k/n) in floating point; every key is a residue 0 <= k < n."""
    s, high, low = _roots(n)
    return sum([w * high[k // s] * low[k % s] for k, w in weights.items()], 0j)


def _reduce(n: int, weights) -> tuple[list[int], int]:
    """(rem, den): den is the lcm of the weights' denominators and rem the
    integer polynomial den * sum_k w_k x^k reduced modulo the n-th cyclotomic
    polynomial; the sum at x = e(1/n) is zero iff rem is empty."""
    den = 1
    for c in weights.values():
        den = den * c.denominator // gcd(den, c.denominator)
    poly = [0] * n
    for k, c in weights.items():
        poly[k] += int(c * den)
    return _divmod_int(poly, cyclotomic_poly(n))[1], den


def sum_is_zero(n: int, weights) -> bool:
    """Whether sum_k w_k e(k/n) = 0, for a map {k: w_k} with keys 0 <= k < n
    and int or Fraction weights.  Decided exactly.

    Fast path: if the value read from a table of roots is larger than
    roundoff could ever make a true zero, the sum is certainly nonzero.
    Otherwise clear denominators and reduce the integer polynomial modulo the
    n-th cyclotomic polynomial; the sum is zero iff the remainder is.
    """
    if not weights:
        return True
    mass = float(sum(map(abs, weights.values())))
    if abs(_approx(n, weights)) > _PREFILTER_REL * max(1.0, mass):
        return False
    return not _reduce(n, weights)[0]


def _divmod_int(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials; the divisor must be monic."""
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


class CycloElement:
    """An exact element of Q(zeta_n), n >= 1."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, int | Fraction] | None = None):
        if n < 1:
            raise ValueError("ambient order must be positive")
        self.n = n
        clean: dict[int, int | Fraction] = {}
        for k, c in (coeffs or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or Fraction")
            if c:
                k %= n
                clean[k] = clean.get(k, 0) + c
        self.coeffs = {k: c for k, c in clean.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "CycloElement":
        return cls(1, {})

    @classmethod
    def from_rational(cls, x) -> "CycloElement":
        return cls(1, {0: x})

    @classmethod
    def root(cls, k: int, n: int) -> "CycloElement":
        """e(k/n) = exp(2 pi i k/n), at the order of k/n in lowest terms."""
        g = gcd(k, n)
        return cls(n // g, {k // g: 1})

    @classmethod
    def from_exponents(cls, n: int, weights: dict[int, int | Fraction]) -> "CycloElement":
        """sum_k w_k zeta_n^k from a map {k mod n: w_k}, at the order
        n / gcd(n, every key) that adding the terms one by one reaches
        (zero-weight keys count), so both give the same n and coeffs."""
        g = n
        for k in weights:
            g = gcd(g, k)
        return cls(n // g, {k // g: w for k, w in weights.items()})

    # -- ring structure -----------------------------------------------

    def _unified(self, other: "CycloElement") -> tuple[int, dict, dict]:
        m = lcm(self.n, other.n)
        a = {k * (m // self.n): c for k, c in self.coeffs.items()}
        b = {k * (m // other.n): c for k, c in other.coeffs.items()}
        return m, a, b

    @staticmethod
    def _lift(x) -> "CycloElement":
        return x if isinstance(x, CycloElement) else CycloElement.from_rational(x)

    def __add__(self, other):
        other = self._lift(other)
        m, a, b = self._unified(other)
        for k, c in b.items():
            a[k] = a.get(k, 0) + c
        return CycloElement(m, a)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.n, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.n, {k: c * other for k, c in self.coeffs.items()})
        other = self._lift(other)
        m, a, b = self._unified(other)
        out: dict[int, int | Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = (k1 + k2) % m
                out[k] = out.get(k, 0) + c1 * c2
        return CycloElement(m, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloElement":
        return CycloElement(self.n, {(-k) % self.n: c for k, c in self.coeffs.items()})

    # -- predicates and conversions -------------------------------------

    def to_complex(self) -> complex:
        return _approx(self.n, self.coeffs)

    def is_zero(self) -> bool:
        """Exact zero test (`sum_is_zero` on the coefficient map)."""
        return sum_is_zero(self.n, self.coeffs)

    def as_rational(self) -> Fraction | None:
        """The element as a Fraction if it is rational, else None.

        Reduces modulo the ambient cyclotomic polynomial, so hidden rational
        values such as zeta_3 + zeta_3^2 = -1 are recognized.
        """
        if not self.coeffs:
            return Fraction(0)
        rem, den = self._reduced()
        if len(rem) <= 1:
            return Fraction(rem[0] if rem else 0, den)
        return None

    def _reduced(self) -> tuple[list[int], int]:
        """(rem, den) of `_reduce` at the ambient order; self is zero iff rem
        is empty."""
        return _reduce(self.n, self.coeffs)

    def __eq__(self, other) -> bool:
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CycloElement is unhashable (equality is up to reduction)")

    def __repr__(self):
        if not self.coeffs:
            return "CycloElement(0)"
        terms = " + ".join(f"{c}*e({k}/{self.n})" for k, c in sorted(self.coeffs.items()))
        return f"CycloElement({terms})"
