"""Coefficient streams for a 3 x 2 pairing of Euler products.

Two routes everywhere: double-indexed coefficients come from Schur
determinants, single-indexed streams from power-series expansion of the
inverse local factors.  The headline check is the convolution identity

    sum over m1^2 m2 = n of  lam(m1, m2) * mu(m2) * omega(m1)  =  lam_pair(n)

with lam_pair the coefficient of the expanded 6-factor product.  Every
value is exact: a parameter is an int or a Fraction, and anything else
raises TypeError when the `CoeffData` is made.  An index below 1 raises
ValueError, in `arith.factorize`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, Mapping

from .arith import factorize, largest_prime_powers, primes_up_to
from .euler import inverse_series, multiplicative, prime_power_tables, sieve_stream
from .scalars import EXACT, coerce
from .symfunc import Partition3, schur3


class _LocalTables:
    """The tables of one parameter set (alphas, gammas, central value), grown
    on demand: the power series of the inverse pi, tau and pair factors,
    expanded from their roots (inverse_series), and the Schur values
    s_(k1+k2, k1, 0)(alphas) (schur3).  A whole value is stored as an int.
    Neither table is filled from the other."""

    __slots__ = ("alphas", "gammas", "central", "series", "schur")

    def __init__(self, alphas: tuple, gammas: tuple, central):
        self.alphas, self.gammas, self.central = alphas, gammas, central
        self.series: dict[str, list] = {}
        self.schur: dict[tuple[int, int], object] = {}

    def expansion(self, factor: str, k: int):
        """Coefficient of X^k in 1 / prod(1 - r X) over the roots of the
        "pi", "tau" or "pair" factor."""
        table = self.series.get(factor)
        if table is None or len(table) <= k:
            roots = {"pi": self.alphas, "tau": self.gammas,
                     "pair": [a * g for a in self.alphas for g in self.gammas]}[factor]
            table = self.series[factor] = [_whole(x) for x in
                                           inverse_series(roots, max(k, 16), EXACT)]
        return table[k]

    def schur_value(self, k1: int, k2: int):
        value = self.schur.get((k1, k2))
        if value is None:
            value = self.schur[k1, k2] = _whole(schur3(Partition3(k1 + k2, k1, 0), self.alphas))
        return value


def _whole(x):
    return x.numerator if x.denominator == 1 else x  # never rounded


def modulus_convention_central(gammas):
    """Central value at p: g1 * g2, so 0 at a ramified p, a convention callers
    may override by supplying their own central value in a CoeffData's local map."""
    return gammas[0] * gammas[1]


class CoeffData:
    """Per-prime data for the pairing: local maps p to (alphas, gammas,
    central), the three degree-3 parameters, the two degree-2 parameters and
    the value of the central character at p (callers must supply it at
    ramified p -- modulus_convention_central gives the conventional choice).
    Each entry is checked and coerced once, when the data are made, and
    primes with equal parameters share one table.
    """

    __slots__ = ("local", "_tables")

    def __init__(self, local: Mapping[int, tuple]):
        self.local, self._tables = local, {}  # _tables: p -> the local tables at p
        made: dict = {}  # the id of an entry (held by `local`), or parameters -> tables
        for p, entry in local.items():
            tables = made.get(id(entry))
            if tables is None:
                alphas, gammas, central = entry
                if len(alphas) != 3 or len(gammas) != 2:
                    raise ValueError(f"need 3 degree-3 and 2 degree-2 parameters at p={p}")
                key = (tuple(coerce(a, EXACT) for a in alphas),
                       tuple(coerce(g, EXACT) for g in gammas), coerce(central, EXACT))
                tables = made[id(entry)] = made.setdefault(key, _LocalTables(*key))
            self._tables[p] = tables

    @classmethod
    def constant(cls, alphas, gammas, n_max: int) -> "CoeffData":
        """Same parameters at every prime up to n_max, central value g1*g2."""
        triple = (alphas, gammas, modulus_convention_central(gammas))
        return cls({p: triple for p in primes_up_to(n_max)})

    def _local(self, p: int) -> _LocalTables:
        try:
            return self._tables[p]
        except KeyError:
            raise ValueError(f"no local data at p={p}") from None


def lambda_double(m1: int, m2: int, data: CoeffData):
    """Double-indexed coefficient lam(m1, m2) = prod_p s_(k1+k2, k1, 0)(alpha_p)
    with k1 = v_p(m1), k2 = v_p(m2)."""
    k1 = dict(factorize(m1))
    return multiplicative(m1 * m2, lambda p, k: data._local(p).schur_value(
        k1.get(p, 0), k - k1.get(p, 0)), EXACT)


def _expansion_stream(n: int, data: CoeffData, factor: str):
    """n-th coefficient of the product over p of 1 / (the inverse `factor` at p)."""
    return multiplicative(n, lambda p, k: data._local(p).expansion(factor, k), EXACT)


def lambda_std(n: int, data: CoeffData):
    """Single-indexed degree-3 coefficient via power-series expansion."""
    return _expansion_stream(n, data, "pi")


def lambda_tau(n: int, data: CoeffData):
    """Single-indexed degree-2 coefficient via power-series expansion."""
    return _expansion_stream(n, data, "tau")


def lambda_rs(n: int, data: CoeffData):
    """Pairing coefficient from the expanded 6-factor local products."""
    return _expansion_stream(n, data, "pair")


def central_char(n: int, data: CoeffData):
    """omega(n) = prod_p central(p)^{v_p(n)} (0^k = 0 for k >= 1)."""
    return multiplicative(n, lambda p, k: data._local(p).central ** k, EXACT)


def standardcoeff_check(n: int, data: CoeffData):
    """Residual of lam(1, n) (Schur route) against the expansion route."""
    return lambda_double(1, n, data) - lambda_std(n, data)


def c_pi_tau(n: int, data: CoeffData):
    """The convolved coefficient sum_{m1^2 m2 = n} lam(m1, m2) mu(m2) omega(m1)."""
    if n < 1:
        raise ValueError("index must be positive")
    acc = Fraction(0)
    m1 = 1
    while m1 * m1 <= n:
        if n % (m1 * m1) == 0:
            m2 = n // (m1 * m1)
            acc += lambda_double(m1, m2, data) * lambda_tau(m2, data) * central_char(m1, data)
        m1 += 1
    return acc


def double_sum_check(n: int, data: CoeffData):
    """Residual of the convolution identity at n (0 when it holds)."""
    return c_pi_tau(n, data) - lambda_rs(n, data)


def _unit_map(data: CoeffData, units) -> dict:
    """{p: u_p} over the primes of data, from a map or one value for all."""
    if isinstance(units, Mapping):
        return {p: coerce(units[p], EXACT) for p in data.local}
    return dict.fromkeys(data.local, coerce(units, EXACT))


def twist_tau(data: CoeffData, units: Mapping[int, object] | int | Fraction) -> CoeffData:
    """Twist the degree-2 side by unit values u_p: parameters scale by u_p,
    central values by u_p^2."""
    local = {}
    for p, u in _unit_map(data, units).items():
        if u == 0:
            raise ValueError(f"twist value at p={p} must be a unit")
        t = data._local(p)
        local[p] = (t.alphas, tuple(g * u for g in t.gammas), t.central * u * u)
    return CoeffData(local)


class CoeffStreams:
    """Every n <= n_max at once, beside the single-index functions: each
    multiplicative stream by `euler.sieve_stream`, and c by the global
    double sum.  Its tables, one per table of the data, are those of alphas
    times D_alpha, gammas times D_gamma and central values times D_gamma^2
    (lcms over the primes <= n_max), so a value of degree i, j in alphas,
    gammas carries (D_alpha^i D_gamma^j)^Omega(n) (see scale) and is an int
    if whole."""

    def __init__(self, data: CoeffData, n_max: int):
        local = {p: data._local(p) for p in primes_up_to(n_max)}
        unique = {id(t): t for t in local.values()}
        da = self.d_alpha = lcm(*(a.denominator for t in unique.values() for a in t.alphas))
        dg = self.d_gamma = lcm(*(g.denominator for t in unique.values() for g in t.gammas))
        scaled = {key: _LocalTables(tuple(_whole(a * da) for a in t.alphas),
                                    tuple(_whole(g * dg) for g in t.gammas),
                                    _whole(t.central * dg * dg)) for key, t in unique.items()}
        self.n_max, self.tables = n_max, {p: scaled[id(t)] for p, t in local.items()}
        self.powers = largest_prime_powers(n_max)

    def stream(self, value, keys: Mapping | None = None) -> list:
        """a(0) = 0, a(1), ..., a(n_max) of the multiplicative a with a(p^k) =
        value(keys[p], k), keys the scaled tables by default."""
        local = prime_power_tables(keys or self.tables, self.n_max,
                                   lambda key, k: [value(key, j) for j in range(k + 1)])
        return [0, *sieve_stream(local, self.powers, 1)]

    def expansion(self, factor: str) -> list:
        """The scaled coefficients of the "pi", "tau" or "pair" expansion."""
        return self.stream(lambda t, k: t.expansion(factor, k))

    def schur(self) -> list:
        """The scaled lambda(1, n), from the Schur tables."""
        return self.stream(lambda t, k: t.schur_value(0, k))

    def scale(self, d: int) -> list:
        return self.stream(lambda d, k: d**k, dict.fromkeys(self.tables, d))

    def c(self) -> list:
        """The scaled sum over m1^2 m2 = n of lambda(m1, m2) mu(m2) omega(m1),
        m2 = u w with u on the primes of m1 and w prime to m1."""
        mu = self.expansion("tau")
        paired = [s * t for s, t in zip(self.schur(), mu)]  # lambda(1, w) mu(w)
        c = paired[:]  # m1 = 1
        for m1 in range(2, isqrt(self.n_max) + 1):
            bound, terms = self.n_max // (m1 * m1), [(1, 1)]  # (u, omega(m1) lambda(m1, u))
            for p, j in factorize(m1):
                t = self.tables[p]
                terms = [(u * p**k, v * t.central**j * t.schur_value(j, k))
                         for u, v in terms for k in range(bound.bit_length()) if u * p**k <= bound]
            for u, v in terms:
                v, step = v * mu[u], m1 * m1 * u
                for w in range(1, bound // u + 1):
                    if gcd(w, m1) == 1:
                        c[step * w] += v * paired[w]
        return c


def twist_compatibility_check(n_max: int, data: CoeffData, units) -> list:
    """Residuals of c_twisted(n) = u(n) * c(n) under an unramified unit twist,
    for n = 1..n_max; each side is unscaled by its own denominators."""
    plain, twisted = CoeffStreams(data, n_max), CoeffStreams(twist_tau(data, units), n_max)
    u = plain.stream(lambda x, k: x**k, _unit_map(data, units))
    cols = zip(twisted.c(), twisted.scale(twisted.d_alpha * twisted.d_gamma), u, plain.c(),
               plain.scale(plain.d_alpha * plain.d_gamma))
    return [Fraction(t, dt) - v * Fraction(c, dp) for n, (t, dt, v, c, dp) in enumerate(cols) if n]


def coefficient_rows(n_max: int, data: CoeffData) -> Iterator[tuple]:
    """Rows (n, lam_std, c, lam_pair, residual) for n = 1..n_max, lazily,
    from CoeffStreams; here, to be printed, the values become Fractions, one
    row at a time.  A value with more digits than Python prints an int with
    raises ValueError here, before any row is taken."""
    s = CoeffStreams(data, n_max)
    cols = (s.expansion("pi"), s.scale(s.d_alpha), s.c(), s.expansion("pair"),
            s.scale(s.d_alpha * s.d_gamma))
    rows = ((n, Fraction(ls, sa), Fraction(c, sd), Fraction(lp, sd), Fraction(c - lp, sd))
            for n, (ls, sa, c, lp, sd) in enumerate(zip(*cols)) if n)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # every printed int divides a stream value or c - lp, so each prints when
    # the streams stay below 10**limit / 2; else every row is formed and its
    # ints turned to text here, so one too long raises before a row is written
    if limit and 2 * max(max(max(col), -min(col)) for col in cols) >= 10**limit:
        rows = list(rows)
        for row in rows:
            str(row)
        return iter(rows)
    return rows
