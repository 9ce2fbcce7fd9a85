"""Coefficient streams for a 3 x 2 pairing of Euler products.

Two routes everywhere: double-indexed coefficients come from Schur
determinants, single-indexed streams from power-series expansion of the
inverse local factors.  The headline check is the convolution identity

    sum over m1^2 m2 = n of  lam(m1, m2) * mu(m2) * omega(m1)  =  lam_pair(n)

with lam_pair the coefficient of the expanded 6-factor product.  Every
value is exact: a parameter is an int or a Fraction, and anything else
raises TypeError where it is coerced.  An index below 1 raises ValueError,
in `arith.factorize`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Mapping

from .arith import factorize, largest_prime_powers, primes_up_to
from .euler import inverse_series, multiplicative, prime_power_tables, sieve_stream
from .scalars import EXACT, coerce
from .symfunc import Partition3, schur3


class _LocalTables:
    """The tables of one parameter set (alphas, gammas, central value), grown
    on demand: the power series of the inverse pi, tau and pair factors,
    expanded from their roots (inverse_series), and the Schur values
    s_(k1+k2, k1, 0)(alphas) (schur3).
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
            table = self.series[factor] = inverse_series(roots, max(k, 16), EXACT)
        return table[k]

    def schur_value(self, k1: int, k2: int):
        value = self.schur.get((k1, k2))
        if value is None:
            value = self.schur[k1, k2] = schur3(Partition3(k1 + k2, k1, 0), self.alphas)
        return value


def modulus_convention_central(gammas):
    """Central value at p: g1 * g2 when both parameters are nonzero, else 0.

    The zero at ramified primes is a convention callers may override by
    supplying their own central value in a CoeffData's local map.
    """
    g1 = coerce(gammas[0], EXACT)
    g2 = coerce(gammas[1], EXACT)
    if g1 == 0 or g2 == 0:
        return Fraction(0)
    return g1 * g2


class CoeffData:
    """Per-prime data for the pairing: local maps p to (alphas, gammas,
    central), the three degree-3 parameters, the two degree-2 parameters and
    the value of the central character at p (callers must supply it at
    ramified p -- modulus_convention_central gives the conventional choice).
    """

    __slots__ = ("local", "_tables")

    def __init__(self, local: Mapping[int, tuple]):
        for p, (alphas, gammas, _) in local.items():
            if len(alphas) != 3 or len(gammas) != 2:
                raise ValueError(f"need 3 degree-3 and 2 degree-2 parameters at p={p}")
        self.local = local
        #: p -> the local tables at p, and the coerced parameter set -> the same
        #: tables, so that primes with equal parameters share one
        self._tables: dict = {}

    @classmethod
    def constant(cls, alphas, gammas, n_max: int) -> "CoeffData":
        """Same parameters at every prime up to n_max, central value g1*g2."""
        alphas = tuple(coerce(a, EXACT) for a in alphas)
        gammas = tuple(coerce(g, EXACT) for g in gammas)
        triple = (alphas, gammas, modulus_convention_central(gammas))
        return cls({p: triple for p in primes_up_to(n_max)})

    def _local(self, p: int) -> _LocalTables:
        """The tables at p; the parameters are coerced once, on first use."""
        local = self._tables.get(p)
        if local is None:
            try:
                alphas, gammas, central = self.local[p]
            except KeyError:
                raise ValueError(f"no local data at p={p}") from None
            key = (tuple(coerce(a, EXACT) for a in alphas),
                   tuple(coerce(g, EXACT) for g in gammas),
                   coerce(central, EXACT))
            local = self._tables[p] = self._tables.setdefault(key, _LocalTables(*key))
        return local


def lambda_double(m1: int, m2: int, data: CoeffData):
    """Double-indexed coefficient lam(m1, m2) = prod_p s_(k1+k2, k1, 0)(alpha_p)
    with k1 = v_p(m1), k2 = v_p(m2)."""
    acc = Fraction(1)
    exps: dict[int, list[int]] = {}
    for p, e in factorize(m1):
        exps[p] = [e, 0]
    for p, e in factorize(m2):
        exps.setdefault(p, [0, 0])[1] = e
    for p, (k1, k2) in exps.items():
        acc *= data._local(p).schur_value(k1, k2)
    return acc


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


def twist_tau(data: CoeffData, units: Mapping[int, object] | int | Fraction) -> CoeffData:
    """Twist the degree-2 side by unit values u_p: parameters scale by u_p,
    central values by u_p^2."""
    if not isinstance(units, Mapping):
        units = {p: units for p in data.local}
    local = {}
    for p, (alphas, gammas, central) in data.local.items():
        u = coerce(units[p], EXACT)
        if u == 0:
            raise ValueError(f"twist value at p={p} must be a unit")
        local[p] = (alphas, tuple(coerce(g, EXACT) * u for g in gammas),
                    coerce(central, EXACT) * u * u)
    return CoeffData(local)


def _whole(x):
    return x.numerator if x.denominator == 1 else x  # never rounded


class CoeffStreams:
    """Every n <= n_max at once, beside the single-index functions: each
    multiplicative stream by `euler.sieve_stream`, and c by the global
    double sum.  Alphas are scaled by D_alpha, gammas by
    D_gamma (lcms over the primes <= n_max), so a value of degree i, j in them
    carries (D_alpha^i D_gamma^j)^Omega(n) (see scale) and is an int if whole."""

    def __init__(self, data: CoeffData, n_max: int):
        self.n_max, self.tables = n_max, {p: data._local(p) for p in primes_up_to(n_max)}
        self.d_alpha = lcm(*(a.denominator for t in self.tables.values() for a in t.alphas))
        self.d_gamma = lcm(*(g.denominator for t in self.tables.values() for g in t.gammas))
        self.powers = largest_prime_powers(n_max)

    def stream(self, value, keys: Mapping | None = None) -> list:
        """a(0) = 0, a(1), ..., a(n_max) of the multiplicative a with a(p^k) =
        value(keys[p], k), keys the local tables by default."""
        local = prime_power_tables(keys or self.tables, self.n_max,
                                   lambda key, k: [_whole(value(key, j)) for j in range(k + 1)])
        return [0, *sieve_stream(local, self.powers, 1)]

    def expansion(self, factor: str) -> list:
        """The scaled coefficients of the "pi", "tau" or "pair" expansion."""
        d = {"pi": self.d_alpha, "tau": self.d_gamma, "pair": self.d_alpha * self.d_gamma}[factor]
        return self.stream(lambda t, k: t.expansion(factor, k) * d**k)

    def schur(self) -> list:
        """The scaled lambda(1, n), from the Schur tables."""
        return self.stream(lambda t, k: t.schur_value(0, k) * self.d_alpha**k)

    def scale(self, d: int) -> list:
        return self.stream(lambda d, k: d**k, dict.fromkeys(self.tables, d))

    def c(self) -> list:
        """The scaled sum over m1^2 m2 = n of lambda(m1, m2) mu(m2) omega(m1),
        m2 = u w with u on the primes of m1 and w prime to m1."""
        mu, da, dg = self.expansion("tau"), self.d_alpha, self.d_gamma
        paired = [s * t for s, t in zip(self.schur(), mu)]  # lambda(1, w) mu(w)
        c = paired[:]  # m1 = 1
        for m1 in range(2, isqrt(self.n_max) + 1):
            bound, terms = self.n_max // (m1 * m1), [(1, 1)]  # (u, omega(m1) lambda(m1, u))
            for p, j in factorize(m1):
                t = self.tables[p]
                terms = [(u * p**k, v * (t.central * dg * dg * da * da) ** j * t.schur_value(j, k)
                          * da**k) for u, v in terms for k in range(bound.bit_length())
                         if u * p**k <= bound]
            for u, v in terms:
                v, step = _whole(v) * mu[u], m1 * m1 * u
                for w in range(1, bound // u + 1):
                    if gcd(w, m1) == 1:
                        c[step * w] += v * paired[w]
        return c


def twist_compatibility_check(n_max: int, data: CoeffData, units) -> list:
    """Residuals of c_twisted(n) = u(n) * c(n) under an unramified unit twist,
    for n = 1..n_max; each side is unscaled by its own denominators."""
    plain, twisted = CoeffStreams(data, n_max), CoeffStreams(twist_tau(data, units), n_max)
    u = plain.stream(lambda x, k: x**k, {p: coerce(units[p] if isinstance(units, Mapping)
                                                   else units, EXACT) for p in plain.tables})
    cols = zip(twisted.c(), twisted.scale(twisted.d_alpha * twisted.d_gamma), u, plain.c(),
               plain.scale(plain.d_alpha * plain.d_gamma))
    return [Fraction(t, dt) - v * Fraction(c, dp) for n, (t, dt, v, c, dp) in enumerate(cols) if n]


def coefficient_rows(n_max: int, data: CoeffData) -> list[tuple]:
    """Rows (n, lam_std, c, lam_pair, residual) for n = 1..n_max, from
    CoeffStreams; here, to be printed, the values become Fractions."""
    s = CoeffStreams(data, n_max)
    cols = zip(s.expansion("pi"), s.scale(s.d_alpha), s.c(), s.expansion("pair"),
               s.scale(s.d_alpha * s.d_gamma))
    return [(n, Fraction(ls, sa), Fraction(c, sd), Fraction(lp, sd), Fraction(c - lp, sd))
            for n, (ls, sa, c, lp, sd) in enumerate(cols) if n]
