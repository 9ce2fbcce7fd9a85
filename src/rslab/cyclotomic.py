"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are finite sums  sum_k c_k * zeta_N^k  stored as a sparse map
exponent -> int or Fraction, kept as given.  Different ambient orders
combine by embedding into the lcm.  Zero testing is exact and reads no
float: the ring map Z[zeta_N] -> F_l, zeta_N -> g (l = 1 mod N a prime, g of
order N) certifies most elements nonzero, and the remaining candidates are
decided by a descent over the primes of N on the sparse map, one prime at a
time down to a rational sum.  The test runs on a bare exponent map as well
(`sum_is_zero`), so a caller that forms many sums need not build a
CycloElement for each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, pi, prod
import cmath

from .arith import factorize, is_prime
from .scalars import rational


@lru_cache(maxsize=32)
def _roots(n: int) -> tuple[int, list[complex], list[complex]]:
    """(s, high, low) with e(k/n) = high[k // s] * low[k % s] for 0 <= k < n:
    two tables of about sqrt(n) roots each, so memory stays small at any n."""
    s = isqrt(n - 1) + 1
    low = [cmath.exp(2j * pi * (j / n)) for j in range(s)]
    high = [cmath.exp(2j * pi * (i * s / n)) for i in range((n - 1) // s + 1)]
    return s, high, low


#: the largest order with an image: a row holds n ints, and the cache up to
#: 32 rows, where the descent never needs a dense list of length n
_IMAGE_N_MAX = 2**16


@lru_cache(maxsize=32)
def _image(n: int) -> tuple[int, list[int]] | None:
    """(l, row): l the largest prime = 1 (mod n) below 2^30, and row[k] = g^k
    mod l for 0 <= k < n, g the first h^((l - 1)/n), h = 2, 3, ..., of order
    exactly n.  zeta_n -> g is a ring map Z[zeta_n] -> F_l, so a sum whose
    image is nonzero mod l is nonzero; a nonzero sum maps to 0 with a chance
    of about 1/l.  None above `_IMAGE_N_MAX`, where the descent decides alone."""
    if n > _IMAGE_N_MAX:
        return None
    ell = (2**30 - 2) // n * n + 1
    while not is_prime(ell):
        ell -= n
    primes = [p for p, _ in factorize(n)]
    h = 2
    while True:
        g = pow(h, (ell - 1) // n, ell)
        if all(pow(g, n // p, ell) != 1 for p in primes):
            break
        h += 1
    row = [1] * n
    for k in range(1, n):
        row[k] = row[k - 1] * g % ell
    return ell, row


def _residue(weights, image) -> int:
    """sum_k w_k g^k mod l for image = (l, row), a Fraction weight taken as
    its numerator times its denominator's inverse mod l; 0, which certifies
    nothing, when l divides a denominator."""
    ell, row = image
    acc = 0
    for k, w in weights.items():
        if isinstance(w, int):
            acc += w * row[k]
        elif w.denominator % ell:
            acc += w.numerator * pow(w.denominator, -1, ell) * row[k]
        else:
            return 0
    return acc % ell


def _approx(n: int, weights) -> complex:
    """sum_k w_k e(k/n) in floating point; every key is a residue 0 <= k < n."""
    s, high, low = _roots(n)
    return sum([w * high[k // s] * low[k % s] for k, w in weights.items()], 0j)


def _vanishes(n: int, weights, primes: list[int]) -> bool:
    """Whether sum_k w_k e(k/n) = 0, exactly; keys are residues 0 <= k < n
    and primes lists n's prime factors with multiplicity.

    Descends over n's primes, never through a dense list of length n.  Take
    a prime p of n and m = n / p.  If p divides m, then 1, e(1/n), ...,
    e((p-1)/n) is a basis of Q(zeta_n) over Q(zeta_m): splitting k = p j + a,
    the sum vanishes iff each group over a does at order m.  Otherwise
    e(k/n) = e(kx/p) e(ky/m) with x = 1/m mod p and y = 1/p mod m, and the
    only relation among the p-th roots over Q(zeta_m) is that they sum to 0:
    the sum vanishes iff the groups over kx mod p are all equal in Q(zeta_m),
    so each must vanish if some group is empty, and otherwise each must
    equal the smallest.
    """
    if n == 1:
        return sum(weights.values()) == 0
    # smallest first: a step at p makes up to p - 1 subproblems, and the
    # widest step costs the fewest calls when it is taken last
    p, primes = primes[0], primes[1:]
    m = n // p
    groups: dict[int, dict] = {}
    if m % p == 0:
        for k, w in weights.items():
            groups.setdefault(k % p, {})[k // p] = w
        return all(_vanishes(m, g, primes) for g in groups.values())
    x, y = pow(m, -1, p), pow(p, -1, m)
    for k, w in weights.items():
        groups.setdefault(k * x % p, {})[k * y % m] = w
    if len(groups) < p:
        return all(_vanishes(m, g, primes) for g in groups.values())
    base = min(groups.values(), key=len)
    for g in groups.values():
        if g is not base:
            diff = dict(g)
            for k, w in base.items():
                diff[k] = diff.get(k, 0) - w
            if not _vanishes(m, diff, primes):
                return False
    return True


def sum_is_zero(n: int, weights) -> bool:
    """Whether sum_k w_k e(k/n) = 0, for a map {k: w_k} with keys 0 <= k < n
    and int or Fraction weights.  Decided exactly; no float takes part.

    Certificate: if the sum's image under zeta_n -> g in F_l (`_image`) is
    nonzero, so is the sum.  Every other sum, each true zero among them, is
    decided by the exact descent over n's primes (`_vanishes`).
    """
    if not weights:
        return True
    image = _image(n)
    if image is not None and _residue(weights, image):
        return False
    return _vanishes(n, weights, [p for p, e in factorize(n) for _ in range(e)])


class CycloElement:
    """An exact element of Q(zeta_n), n >= 1."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, int | Fraction] | None = None):
        if n < 1:
            raise ValueError("ambient order must be positive")
        self.n = n
        clean: dict[int, int | Fraction] = {}
        for k, c in (coeffs or {}).items():
            if rational(c):  # c itself, or TypeError if not an int or a Fraction
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

        A rational element equals its trace over phi(n), the sum of
        c_k mu(d)/phi(d) with d = n / gcd(k, n) the order of zeta_n^k; so the
        element is rational iff it minus that sum is zero, and hidden values
        such as zeta_3 + zeta_3^2 = -1 are recognized.
        """
        by_order: dict[int, int | Fraction] = {}
        for k, c in self.coeffs.items():
            d = self.n // gcd(k, self.n)
            by_order[d] = by_order.get(d, 0) + c
        trace = Fraction(0)
        for d, c in by_order.items():
            f = factorize(d)
            if all(e == 1 for _, e in f):  # else mu(d) = 0
                trace += Fraction(c * (-1) ** len(f), prod(p - 1 for p, _ in f))
        # den * (self - trace), which keeps integer coefficients integers
        rest = {k: c * trace.denominator for k, c in self.coeffs.items()}
        rest[0] = rest.get(0, 0) - trace.numerator
        return trace if sum_is_zero(self.n, rest) else None

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
