"""Dirichlet characters mod q with exact cyclotomic values.

The unit group mod q is split into prime-power components with explicit
generators, so a character is just a tuple of exponents (one per generator);
one table per modulus of the units' discrete logs makes each value a lookup.
Values come back as exact roots of unity (CycloElement), and Gauss sums
can be formed either as floats or as exact cyclotomic elements; every
float tau(chi) mod q sums against one row of phases e(d/q).  Exact
twisted sums tau_q(chi, r/m) come from one kernel (`exponent_maps`) that
computes chi's angles once per (chi, m) and yields an exponent map per r.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, pi
from operator import mul

from .arith import divisors, euler_phi, factorize, primitive_root, radical, valuation
from .cyclotomic import CycloElement, sum_is_zero
from .scalars import EXACT, FLOAT, check_mode

#: e(k/n) at the orders n = 1, 2, 4, where cmath.exp is only approximate
_EXACT_ROOTS = {(0, 1): complex(1), (1, 2): complex(-1), (1, 4): 1j, (3, 4): -1j}


class _Component:
    """One prime-power block p^e of (Z/q)^*, with its generators and their orders."""

    __slots__ = ("pe", "p", "e", "gens", "orders")

    def __init__(self, p: int, e: int):
        self.p, self.e, self.pe = p, e, p**e
        if p == 2:
            if e == 1:
                self.gens, self.orders = (), ()
            elif e == 2:
                self.gens, self.orders = (3,), (2,)
            else:
                self.gens, self.orders = (self.pe - 1, 5), (2, 2 ** (e - 2))
        else:
            self.gens, self.orders = (primitive_root(self.pe),), (euler_phi(self.pe),)


class CharGroup:
    """The character group of (Z/q)^*; characters are exponent tuples."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("modulus must be positive")
        self.q = q
        self.components = [_Component(p, e) for p, e in factorize(q)]
        self.orders: tuple[int, ...] = tuple(
            n for comp in self.components for n in comp.orders
        )
        #: the group exponent L = lcm(orders): every value is e(k/L)
        self.exponent = lcm(*self.orders)
        self._table = None
        self._phases = None
        #: float tau(chi) by exponent tuple, filled by gauss_classical
        self._tau: dict[tuple[int, ...], complex] = {}

    def __len__(self) -> int:
        return euler_phi(self.q)

    def character(self, exps) -> "DirichletCharacter":
        return DirichletCharacter(self, tuple(exps))

    def trivial(self) -> "DirichletCharacter":
        return self.character((0,) * len(self.orders))

    def characters(self):
        """All characters mod q (phi(q) of them)."""
        for exps in itertools.product(*(range(n) for n in self.orders)):
            yield self.character(exps)

    def character_at(self, index: int) -> "DirichletCharacter":
        """list(self.characters())[index], without listing them: the
        exponents are the mixed-radix digits of index, the last the fastest."""
        if not 0 <= index < len(self):
            raise ValueError(f"character index {index} must be in [0, {len(self) - 1}] for q={self.q}")
        exps = []
        for n in reversed(self.orders):
            index, e = divmod(index, n)
            exps.append(e)
        return self.character(reversed(exps))

    def generator_residues(self) -> list[int]:
        """CRT lifts of the component generators: g_i mod q, congruent to 1
        in every other component."""
        out = []
        for comp in self.components:
            rest = self.q // comp.pe
            for g in comp.gens:
                # x = g mod pe, x = 1 mod rest (rest = 1 too: pe^-1 mod 1 is 0)
                out.append((g + comp.pe * ((1 - g) * pow(comp.pe, -1, rest) % rest)) % self.q)
        return out

    def value_table(self) -> tuple[list, list]:
        """(logs, complexes), built on first use.

        logs[a] for 0 <= a < q is the tuple of discrete logs of a to the
        generators, each scaled by L / order to the exponent L, or None when
        gcd(a, q) > 1; a character with exponents e_i then has
        chi(a) = e(k/L) with k = sum e_i logs[a][i] mod L.  complexes[k] is
        e(k/L) as a complex, computed from k/L in lowest terms.
        """
        if self._table is None:
            q, big = self.q, self.exponent
            units = [(1 % q, ())]
            for g, n in zip(self.generator_residues(), self.orders):
                step, grown = big // n, []
                for r, ls in units:
                    for j in range(n):
                        grown.append((r, ls + (j * step,)))
                        r = r * g % q
                units = grown
            logs = [None] * q
            for r, ls in units:
                logs[r] = ls
            complexes = []
            for k in range(big):
                g = gcd(k, big)
                z = _EXACT_ROOTS.get((k // g, big // g))
                complexes.append(cmath.exp(2j * pi * (k // g) / (big // g)) if z is None else z)
            self._table = (logs, complexes)
        return self._table

    def phase_row(self) -> tuple[list[tuple[int, ...]], list[complex]]:
        """(columns, phases) over the units d = 1..q ascending, built on
        first use: columns[i] holds their scaled logs to generator i, so a
        character's angles at them are sum_i e_i columns[i], and phases
        holds e(d/q), each written as `gauss_beta` writes e(d * beta) at
        beta = 1/q.  Every float tau(chi) sums against this one row."""
        if self._phases is None:
            q, logs = self.q, self.value_table()[0]
            units = [d for d in range(1, q + 1) if logs[d % q] is not None]
            self._phases = (list(zip(*(logs[d % q] for d in units))),
                            [cmath.exp(2j * pi * (d / q)) for d in units])
        return self._phases


# a default `verify --suite all` leaves 40 groups (0.1 MB), `verify --suite
# gauss --p-max 350` 349 (7.3 MB): RunConfig's p_max <= 350 bounds the cache
@lru_cache(maxsize=None)
def char_group(q: int) -> CharGroup:
    return CharGroup(q)


class DirichletCharacter:
    """A character of `group`, by its exponents (one per generator)."""

    __slots__ = ("group", "exps")

    def __init__(self, group: CharGroup, exps: tuple[int, ...]):
        if len(exps) != len(group.orders):
            raise ValueError("wrong number of exponents for this modulus")
        self.group = group
        self.exps = tuple(e % n for e, n in zip(exps, group.orders))

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return (self.group, self.exps) == (other.group, other.exps)

    def __hash__(self):
        return hash((self.group, self.exps))

    def angle(self, a: int) -> int | None:
        """The k with chi(a) = e(k/L), L the group exponent; None when gcd(a, q) > 1."""
        row = self.group.value_table()[0][a % self.group.q]
        if row is None:
            return None
        return sum(map(mul, self.exps, row)) % self.group.exponent

    def value(self, a: int) -> CycloElement | None:
        """chi(a) as an exact root of unity; None when gcd(a, q) > 1."""
        k = self.angle(a)
        return None if k is None else CycloElement.root(k, self.group.exponent)

    def value_complex(self, a: int) -> complex:
        k = self.angle(a)
        return 0j if k is None else self.group.value_table()[1][k]

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps)

    @property
    def order(self) -> int:
        o = 1
        for e, n in zip(self.exps, self.group.orders):
            o = lcm(o, n // gcd(e, n))
        return o

    @property
    def parity(self) -> int:
        """0 for even (chi(-1) = 1), 1 for odd."""
        return 0 if self.angle(-1) == 0 else 1

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.group, tuple(-e for e in self.exps))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.group.q != other.group.q:
            raise ValueError("characters live on different moduli")
        return DirichletCharacter(
            self.group, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def conductor(self) -> int:
        """Smallest modulus the character factors through (computed from the
        component orders, no search)."""
        f = 1
        slot = 0
        for comp in self.group.components:
            if comp.p != 2:
                e, n = self.exps[slot], comp.orders[0]
                slot += 1
                if e == 0:
                    continue
                ordp = n // gcd(e, n)
                f *= comp.p ** (valuation(ordp, comp.p) + 1)
            elif comp.e == 1:
                continue
            elif comp.e == 2:
                (j,) = self.exps[slot : slot + 1]
                slot += 1
                if j:
                    f *= 4
            else:
                jm, j5 = self.exps[slot : slot + 2]
                slot += 2
                if j5 == 0:
                    if jm:
                        f *= 4
                else:
                    half = comp.orders[1]
                    w = valuation(half // gcd(j5, half), 2)
                    f *= 2 ** (w + 2)
        return f

    def is_primitive(self) -> bool:
        return self.conductor() == self.group.q

    def decompose(self) -> list["DirichletCharacter"]:
        """The prime-power component characters chi_p with prod chi_p = chi."""
        out = []
        slot = 0
        for comp in self.group.components:
            k = len(comp.orders)
            out.append(char_group(comp.pe).character(self.exps[slot : slot + k]))
            slot += k
        return out

    def __repr__(self):
        return f"chi(q={self.group.q}; {','.join(map(str, self.exps))})"


# -- Gauss sums ----------------------------------------------------------


def gauss_classical(chi: DirichletCharacter, mode: str = EXACT):
    """tau(chi) = sum_{a mod q} chi(a) e(a/q), exact or float.

    The float value is computed once per character and kept on its group:
    chi's values dotted with the group's `phase_row`, in gauss_beta's order,
    so it is bit for bit gauss_beta(chi, 1/q, FLOAT)."""
    group = chi.group
    if mode != FLOAT:
        return gauss_beta(chi, Fraction(1, group.q), mode)
    tau = group._tau.get(chi.exps)
    if tau is None:
        columns, phases = group.phase_row()
        big, complexes = group.exponent, group.value_table()[1]
        angles = [0] * len(phases)
        for e, column in zip(chi.exps, columns):
            angles = [k + e * l for k, l in zip(angles, column)]
        acc = 0j
        for k, w in zip(angles, phases):
            acc += complexes[k % big] * w
        tau = group._tau[chi.exps] = acc
    return tau


def gauss_beta(chi: DirichletCharacter, beta: Fraction, mode: str = EXACT):
    """tau_q(chi, beta) = sum over d in (Z/q)^* of chi(d) e(d * beta)."""
    check_mode(mode)
    q = chi.group.q
    beta = Fraction(beta)
    if mode == EXACT:
        big, weights = next(exponent_maps(chi, beta.denominator, [beta.numerator]))
        return CycloElement.from_exponents(big, weights)
    acc = 0j
    for d in range(1, q + 1):
        z = chi.value_complex(d)
        if z:  # 0j off the units
            acc += z * cmath.exp(2j * pi * float(d * beta))
    return acc


def exponent_maps(chi: DirichletCharacter, m: int, rs):
    """For each r in rs, lazily, (big, weights): big = lcm(m, L), L the group
    exponent, and the map {k mod big: count} with
    tau_q(chi, r/m) = sum_k count_k e(k/big).

    chi's angles at the units d = 1..q, scaled to big, are computed once;
    each r then costs one pass over them and no CycloElement."""
    group = chi.group
    q, big = group.q, lcm(m, group.exponent)
    scale, step = big // group.exponent, big // m
    logs = group.value_table()[0]
    terms = [(sum(map(mul, chi.exps, row)) * scale, d * step)
             for d in range(1, q + 1) if (row := logs[d % q]) is not None]
    for r in rs:
        weights: dict[int, int] = {}
        for k, ds in terms:
            k = (k + ds * r) % big
            weights[k] = weights.get(k, 0) + 1
        yield big, weights


def vanishing_sums(chi: DirichletCharacter, m: int, rs) -> list[int]:
    """The r in rs (a list) with tau_q(chi, r/m) = 0, decided exactly: one
    exponent map per r, each through `sum_is_zero`."""
    return [r for r, (big, weights) in zip(rs, exponent_maps(chi, m, rs))
            if sum_is_zero(big, weights)]


def require_primitive(chi: DirichletCharacter) -> None:
    """Raise ValueError unless chi is primitive, that is, its conductor is q."""
    c = chi.conductor()
    if c != chi.group.q:
        raise ValueError(f"chi mod {chi.group.q} is not primitive: its conductor is {c}")


def window_moduli(chi: DirichletCharacter) -> list[int]:
    """The window of chi, ascending: every q2 with
    cond(chi) | q2 | lcm(cond(chi), rad(q))."""
    c = chi.conductor()
    return [d for d in divisors(lcm(c, radical(chi.group.q))) if d % c == 0]


def check_window(chi: DirichletCharacter, q2: int) -> None:
    """Raise ValueError unless q2 is in the window of chi, by the two
    divisibilities (so 1 <= q2 <= q, as lcm(cond(chi), rad(q)) divides q)."""
    c = chi.conductor()
    top = lcm(c, radical(chi.group.q))
    if not (q2 >= 1 and q2 % c == 0 and top % q2 == 0):
        raise ValueError(f"q2={q2} outside the window: need {c} | q2 and q2 | {top}")


def nonvanishing_window_check(chi: DirichletCharacter, q2: int):
    """Exact nonvanishing of tau_q(chi, r/q2) over all r coprime to q2.

    q2 must sit in the window of chi (see window_moduli).
    Returns (ok, failures) where failures lists the r with a vanishing sum.
    """
    check_window(chi, q2)
    failures = vanishing_sums(chi, q2, [r for r in range(1, q2 + 1) if gcd(r, q2) == 1])
    return (not failures, failures)


def addtomult_residuals(chi: DirichletCharacter, ns, mode: str = FLOAT) -> list[float]:
    """Residuals of the additive-to-multiplicative identity, one per n in ns.

    For primitive chi:  (tau(chi)/q) * sum_a conj(chi)(-a) e(a n / q) = chi(n),
    including chi(n) = 0 when gcd(n, q) > 1.  Each residual is |LHS - RHS|
    (0.0 when the exact route proves equality); tau(chi) and the values of
    conj(chi) are computed once for all n.
    """
    check_mode(mode)
    require_primitive(chi)
    q = chi.group.q
    chibar = chi.conjugate()
    out = []
    if mode == EXACT:
        # sum_a conj(chi)(-a) e(a n / q) = tau_q(conj(chi), -n / q), one map per
        # n; tau(chi) * sum = q * chi(n) (0 off the units) on int coefficients
        ns = list(ns)
        tau = gauss_classical(chi, EXACT)
        for n, (big, weights) in zip(ns, exponent_maps(chibar, q, [-n for n in ns])):
            diff = tau * CycloElement.from_exponents(big, weights) - (chi.value(n) or 0) * q
            out.append(0.0 if diff.is_zero() else abs(diff.to_complex()) / q)
        return out
    terms = [(a, chibar.value_complex(-a)) for a in range(1, q + 1) if gcd(a, q) == 1]
    tau_over_q = gauss_classical(chi, FLOAT) / q
    for n in ns:
        acc = 0j
        for a, z in terms:
            acc += z * cmath.exp(2j * pi * a * n / q)
        out.append(abs(tau_over_q * acc - chi.value_complex(n)))
    return out


def addtomult_check(chi: DirichletCharacter, n: int, mode: str = FLOAT) -> float:
    """The residual of addtomult_residuals at one n."""
    return addtomult_residuals(chi, [n], mode)[0]


def dirichlet_root_number(chi: DirichletCharacter) -> complex:
    """epsilon(chi) = tau(chi) / (i^a sqrt(q)) for primitive chi; |eps| = 1."""
    require_primitive(chi)
    return gauss_classical(chi, FLOAT) / (1j**chi.parity * chi.group.q**0.5)


def gauss_factorization_residual(chi: DirichletCharacter) -> float:
    """|tau(chi) - prod over components| for chi of composite modulus.

    With q = q1 * q2 (coprime) and chi = chi1 * chi2 the classical Gauss sum
    factors as chi1(q2) chi2(q1) tau(chi1) tau(chi2); this applies the rule
    pairwise across all prime-power components.
    """
    comps = chi.decompose()
    q = chi.group.q
    prod = complex(1)
    for part in comps:
        pe = part.group.q
        prod *= gauss_classical(part, FLOAT) * part.value_complex(q // pe)
    return abs(gauss_classical(chi, FLOAT) - prod)
