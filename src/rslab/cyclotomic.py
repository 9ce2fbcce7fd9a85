"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are finite sums  sum_k c_k * zeta_N^k  stored as a sparse map
exponent -> int or Fraction, kept as given.  Different ambient orders
combine by embedding into the lcm.  Zero testing is rigorous: a cheap numeric
bound certifies most elements nonzero, and the remaining candidates are
reduced exactly modulo the N-th cyclotomic polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, pi
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


def _divmod_int(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials; the divisor must be monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    qlen = len(rem) - dd
    if qlen <= 0:
        return [], rem
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + dd]
        if c:
            quot[i] = c
            for j, b in enumerate(den):
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
        w = 2 * pi / self.n
        return sum((complex(c) * cmath.exp(1j * w * k) for k, c in self.coeffs.items()), 0j)

    def coeff_mass(self) -> int | Fraction:
        return sum(abs(c) for c in self.coeffs.values())

    def is_zero(self) -> bool:
        """Exact zero test.

        Fast path: if the numeric value is larger than roundoff could ever
        make a true zero, the element is certainly nonzero.  Otherwise clear
        denominators and reduce the integer polynomial modulo the ambient
        cyclotomic polynomial; the element is zero iff the remainder is.
        """
        if not self.coeffs:
            return True
        mass = float(self.coeff_mass())
        if abs(self.to_complex()) > _PREFILTER_REL * max(1.0, mass):
            return False
        return not self._reduced()[0]

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
        """(rem, den): den is the lcm of the coefficient denominators and rem
        the integer polynomial den * self reduced modulo the ambient
        cyclotomic polynomial; self is zero iff rem is empty."""
        den = 1
        for c in self.coeffs.values():
            den = den * c.denominator // gcd(den, c.denominator)
        poly = [0] * self.n
        for k, c in self.coeffs.items():
            poly[k] = int(c * den)
        _, rem = _divmod_int(poly, cyclotomic_poly(self.n))
        return rem, den

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
