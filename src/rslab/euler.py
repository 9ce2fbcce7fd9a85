"""Euler-factor polynomials and multiplicative coefficient streams.

An inverse local factor L_p(s)^{-1} is a polynomial in X = p^{-s} with
constant term 1; expanding 1/poly gives the local coefficient stream
a_p(0)=1, a_p(1), ...  Global series are assembled multiplicatively.

The factor algebra (products, exact division) is exact: `EulerFactorPoly`
holds `Fraction`s.  A float factor is only ever expanded, so it is never
built as a polynomial: `inverse_series` takes its roots in either mode.
Exact roots are split once into integers n_i over one denominator D
(`scalars.split`); the product and the series then run on ints, and the
X^k coefficient is the int one over D**k.
"""

from __future__ import annotations

import cmath
from itertools import islice

from .arith import factorize
from .scalars import EXACT, coerce, join, one, split, zero


class NotDivisibleError(ArithmeticError):
    """Raised by poly_divide_exact; carries the offending remainder."""

    def __init__(self, remainder):
        super().__init__(f"polynomial division left a nonzero remainder {remainder}")
        self.remainder = remainder


def _product(roots, mode: str):
    """prod_i (1 - n_i Y) over the split roots n_i = D r_i, and D: its Y^k
    coefficient over D**k is the X^k one of prod_i (1 - r_i X).  Roots
    exactly 0 contribute nothing.  In float mode the roots are complex and
    D is None."""
    rs, d = split(roots, mode)
    nil = zero(mode) if d is None else 0
    coeffs = [one(mode) if d is None else 1]
    for r in rs:
        if r == 0:
            continue
        nxt = [nil] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * r
        coeffs = nxt
    return coeffs, d


def _joined(coeffs: list, d) -> list:
    """c_k / D**k for each k, as Fractions; float coefficients as they are."""
    return coeffs if d is None else [join(c, d, k) for k, c in enumerate(coeffs)]


def _from_roots(roots, mode: str) -> list:
    """The coefficients of prod_i (1 - r_i X); roots exactly 0 contribute nothing."""
    return _joined(*_product(roots, mode))


class EulerFactorPoly:
    """A polynomial in X = p^{-s} with exact coefficients and constant term 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [coerce(c, EXACT) for c in coeffs] or [one(EXACT)]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if cs[0] != 1:
            raise ValueError(f"constant term must be 1, got {cs[0]!r}")
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "EulerFactorPoly":
        return cls([1])

    @classmethod
    def from_roots_inverse(cls, roots) -> "EulerFactorPoly":
        """prod_i (1 - r_i X); zero roots contribute nothing."""
        return cls(_from_roots(roots, EXACT))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, EulerFactorPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"EulerFactorPoly({list(self.coeffs)!r})"

    def is_one(self) -> bool:
        return self.degree == 0


def poly_mul(f: EulerFactorPoly, g: EulerFactorPoly) -> EulerFactorPoly:
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return EulerFactorPoly(out)


def inverse_series(roots, kmax: int, mode: str) -> list:
    """Power-series coefficients of 1 / prod_i (1 - r_i X) up to X^kmax (a
    list of kmax+1 scalars); roots exactly 0 contribute nothing.

    Multiplies the product out, then runs the convolution recurrence
    c_0 = 1, c_k = -sum_{j>=1} f_j c_{k-j}.  A float product must have
    finite coefficients.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    f, d = _product(roots, mode)
    if d is None and not all(cmath.isfinite(c) for c in f):
        raise ValueError(f"coefficients must be finite, got {f!r}")
    nil = zero(mode) if d is None else 0
    out = [one(mode) if d is None else 1]
    for k in range(1, kmax + 1):
        acc = nil
        for j in range(1, min(k, len(f) - 1) + 1):
            acc += f[j] * out[k - j]
        out.append(-acc)
    return _joined(out, d)


def poly_divide_exact(f: EulerFactorPoly, g: EulerFactorPoly) -> EulerFactorPoly:
    """The quotient f/g when g divides f; raises NotDivisibleError otherwise."""
    rem = list(f.coeffs)
    dg = g.degree
    qdeg = len(rem) - 1 - dg
    if qdeg < 0:
        raise NotDivisibleError(list(f.coeffs))
    quot = [0] * (qdeg + 1)
    lead = g.coeffs[-1]
    for i in range(qdeg, -1, -1):
        c = rem[i + dg] / lead
        quot[i] = c
        for j, b in enumerate(g.coeffs):
            rem[i + j] -= c * b
    if any(rem[:dg]):
        raise NotDivisibleError(rem[:dg])
    return EulerFactorPoly(quot)


def multiplicative(n: int, local, mode: str):
    """a(n) = prod_{p^k || n} local(p, k): the n-th term of a multiplicative stream."""
    acc = one(mode)
    for p, k in factorize(n):
        acc *= local(p, k)
    return acc


def prime_power_tables(entries, n_max: int, table) -> dict:
    """{p: table(entries[p], k)}, k the largest exponent with p^k <= n_max.
    Primes whose entry is one object (identity, not equality: -0.0 == 0.0)
    share one table, built at the smallest of them, which has the most powers."""
    tables, shared = {}, {}
    for p in sorted(entries):
        local = shared.get(id(entries[p]))
        if local is None:
            k, pk = 0, p
            while pk <= n_max:
                k, pk = k + 1, pk * p
            local = shared[id(entries[p])] = table(entries[p], k)
        tables[p] = local
    return tables


def sieve_stream(local, powers, a1):
    """a(1), ..., a(n) of the multiplicative a with a(p^k) = local[p][k], from
    powers = `arith.largest_prime_powers(n)`, n >= 1, and a(1) = a1 (1 for
    ints, one(FLOAT) for floats): a(m) = a(m / p^k) a(p^k) for the largest
    prime p of m, k = ord_p(m), the products `multiplicative` takes, in its
    order.  Only a(m) for m <= n / 3 is kept: for m / p^k > 1, p >= 3 exceeds
    every prime of m / p^k, so m / p^k <= m / 3."""
    top, rest, exp = powers
    keep = (len(top) - 1) // 3
    kept = [None, a1]
    yield a1
    cols = zip(islice(top, 2, None), islice(rest, 2, None), islice(exp, 2, None))
    for p, m, k in islice(cols, max(keep - 1, 0)):
        a = kept[m] * local[p][k]
        kept.append(a)
        yield a
    for p, m, k in cols:
        yield kept[m] * local[p][k]
