"""Local parameter bookkeeping for automorphic-style Euler products.

A representation is modeled prime by prime: a tuple of inverse-root
parameters (zeros padding the ramified directions), a conductor exponent,
and a root number.  Twisted-Steinberg blocks sigma_b(eta) supply the
essentially-square-integrable test cases; the interesting identity is the
divisibility of their full pairing factor by the naive parameter-pair
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import factorize, is_prime, primes_up_to, valuation
from .characters import DirichletCharacter, gauss_classical
from .euler import EulerFactorPoly, inverse_series, multiplicative, poly_divide_exact
from .scalars import EXACT, FLOAT, check_mode, coerce, one, parse_scalar


@dataclass(frozen=True)
class LocalData:
    """Parameters of one local component.

    params has one entry per dimension (zeros where the local rep has no
    unramified direction); m is the conductor exponent; root_number defaults
    to 1 and is only meaningful where callers seed it.
    """

    p: int
    params: tuple
    m: int = 0
    root_number: object = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 0:
            raise ValueError("conductor exponent must be >= 0")
        if self.m == 0:
            if any(x == 0 for x in self.params):
                raise ValueError("an unramified component needs all parameters nonzero")
            if self.root_number != 1:
                raise ValueError("an unramified component has root number 1")

    @property
    def degree(self) -> int:
        return len(self.params)


@dataclass
class GlobalRep:
    """A degree-d Euler product known at all primes up to p_max."""

    degree: int
    mode: str
    p_max: int
    locals: dict[int, LocalData] = field(default_factory=dict)

    def __post_init__(self):
        check_mode(self.mode)
        for p, d in self.locals.items():
            if d.p != p:
                raise ValueError(f"local data at key {p} carries prime {d.p}")
            if d.degree != self.degree:
                raise ValueError(f"local degree {d.degree} != {self.degree} at p={p}")
        missing = [p for p in primes_up_to(self.p_max) if p not in self.locals]
        if missing:
            raise ValueError(f"missing local data at primes {missing[:10]}")

    def series(self, trunc: int) -> list:
        """The coefficients a(1..trunc) of the Euler product; a(n) is at index n - 1."""
        if trunc > self.p_max:
            raise ValueError(f"series up to {trunc} needs local data up to p_max >= {trunc}")
        tables = {}
        for p in primes_up_to(trunc):
            kmax, pk = 0, p
            while pk <= trunc:
                kmax, pk = kmax + 1, pk * p
            tables[p] = inverse_series(self.locals[p].params, kmax, self.mode)
        return [multiplicative(n, lambda p, k: tables[p][k], self.mode)
                for n in range(1, trunc + 1)]

    def conductor(self) -> int:
        n = 1
        for p, d in sorted(self.locals.items()):
            n *= p**d.m
        return n

    def epsilon(self):
        eps = one(self.mode)
        for _, d in sorted(self.locals.items()):
            eps = eps * coerce(d.root_number, self.mode)
        return eps


# -- twisted-Steinberg blocks ---------------------------------------------


@dataclass(frozen=True)
class SteinbergBlock:
    """sigma_b(eta): a b-dimensional block twisted by a character eta.

    eta is recorded by its value at p when unramified, or as None when
    ramified (the ramified data model fixes conductor exponent 1 for eta,
    hence b for the block).
    """

    b: int
    eta: object = 1

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("block size must be >= 1")
        if self.eta == 0:
            raise ValueError("eta must be a unit or None (ramified)")

    @property
    def ramified(self) -> bool:
        return self.eta is None


def block_params(blk: SteinbergBlock, p: int) -> tuple:
    """Inverse-root parameters of sigma_b(eta) at p, zero-padded to length b."""
    lead = Fraction(0) if blk.ramified else coerce(blk.eta, EXACT) / p ** (blk.b - 1)
    return (lead,) + (Fraction(0),) * (blk.b - 1)


def rs_naive_local(params_a, params_b) -> EulerFactorPoly:
    """prod over parameter pairs of (1 - alpha*beta*X); zero pairs drop out."""
    return EulerFactorPoly.from_roots_inverse([a * b for a in params_a for b in params_b])


def rs_full_local(blk1: SteinbergBlock, blk2: SteinbergBlock, p: int) -> EulerFactorPoly:
    """The complete pairing factor of sigma_b(eta1) x sigma_m(eta2) at p.

    For unramified twists it is
        prod_{i=0}^{min(b,m)-1} (1 - u1 u2 p^{-(max(b,m)-1+i)} X),
    and it degenerates to 1 as soon as either twist is ramified.
    """
    if blk1.ramified or blk2.ramified:
        return EulerFactorPoly.one()
    u = coerce(blk1.eta, EXACT) * coerce(blk2.eta, EXACT)
    lo, hi = sorted((blk1.b, blk2.b))
    return EulerFactorPoly.from_roots_inverse([u / p ** (hi - 1 + i) for i in range(lo)])


def rs_quotient_poly(blk1: SteinbergBlock, blk2: SteinbergBlock, p: int) -> EulerFactorPoly:
    """Full factor divided by the naive factor; raises if not divisible."""
    full = rs_full_local(blk1, blk2, p)
    naive = rs_naive_local(block_params(blk1, p), block_params(blk2, p))
    return poly_divide_exact(full, naive)


def degenerate_factor_check(blk1: SteinbergBlock, blk2: SteinbergBlock, p: int) -> bool:
    """When either block is a single line (b = 1), full and naive coincide."""
    if min(blk1.b, blk2.b) != 1 and not (blk1.ramified or blk2.ramified):
        raise ValueError("degenerate case needs a 1-dimensional or ramified block")
    return rs_quotient_poly(blk1, blk2, p).is_one()


def isobaric_local(d1: LocalData, d2: LocalData) -> LocalData:
    """Local data of an isobaric sum: parameters concatenate, conductor
    exponents add, root numbers multiply."""
    if d1.p != d2.p:
        raise ValueError("isobaric sum needs matching primes")
    m = d1.m + d2.m
    root = 1 if m == 0 else d1.root_number * d2.root_number
    return LocalData(d1.p, d1.params + d2.params, m, root)


# -- rep files --------------------------------------------------------------


def parse_rep_file(text: str, degree: int, mode: str, p_max: int) -> GlobalRep:
    """Parse 'p m root a_1 ... a_degree' lines into a GlobalRep.

    '#' starts a comment; scalars use the usual mode syntax ('a/b' exact,
    're,im' or a plain real in float mode).
    """
    check_mode(mode)
    locals_: dict[int, LocalData] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 3 + degree:
            raise ValueError(
                f"line {lineno}: expected 'p m root' plus {degree} parameters, got {len(toks)} fields"
            )
        p, m = int(toks[0]), int(toks[1])
        root = parse_scalar(toks[2], mode)
        params = tuple(parse_scalar(t, mode) for t in toks[3:])
        if p in locals_:
            raise ValueError(f"line {lineno}: duplicate prime {p}")
        locals_[p] = LocalData(p, params, m, root)
    return GlobalRep(degree, mode, p_max, locals_)


# -- degree-1 seeding from a character --------------------------------------


def gl1_rep_from_character(chi: DirichletCharacter, p_max: int) -> GlobalRep:
    """The degree-1 Euler product of a primitive character, root numbers seeded
    so that the product of local root numbers is the classical normalized
    Gauss sum tau(chi) / (i^a sqrt(q)).

    Local pieces at ramified p are tau(chi_p) chi_p(q / p^e) / (i^{a_p} sqrt(p^e));
    the leftover archimedean phase i^{a - sum a_p} is folded into the smallest
    ramified prime so the global product comes out on the nose.
    """
    if not chi.is_primitive():
        raise ValueError("seeding expects a primitive character")
    q = chi.group.q
    locals_: dict[int, LocalData] = {}
    comps = {part.group.q: part for part in chi.decompose()}
    phase_all = sum(part.parity for part in comps.values())
    correction_at = min((p for p, _ in factorize(q)), default=None)
    for p in primes_up_to(p_max):
        if q % p != 0:
            locals_[p] = LocalData(p, (chi.value_complex(p),), 0, 1)
            continue
        e = valuation(q, p)
        part = comps[p**e]
        eps_p = (
            gauss_classical(part, FLOAT)
            * part.value_complex(q // p**e)
            / (1j**part.parity * (p**e) ** 0.5)
        )
        if p == correction_at:
            eps_p *= 1j ** ((chi.parity - phase_all) % 4)
        locals_[p] = LocalData(p, (0j,), e, eps_p)
    return GlobalRep(1, FLOAT, p_max, locals_)
