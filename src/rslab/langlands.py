"""Local parameters: twisted-Steinberg blocks and rep files.

Twisted-Steinberg blocks sigma_b(eta) supply the essentially-square-integrable
test cases; the interesting identity is the divisibility of their full
pairing factor by the naive parameter-pair product, computed exactly on
`EulerFactorPoly`.  A rep file gives a degree-3 Euler product prime by
prime; `parse_rep_file` reads it into each prime's three float parameters
(zeros padding the ramified directions), the input of `rslab twist`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .arith import prime_sieve
from .euler import EulerFactorPoly, poly_divide_exact
from .scalars import EXACT, coerce, parse_scalar

#: the largest prime a rep file may list: `twist --N` is at most this, so no
#: line above it can enter a series, and the primality sieve stays small
REP_P_MAX = 10**6


# -- twisted-Steinberg blocks ---------------------------------------------


class SteinbergBlock:
    """sigma_b(eta): a b-dimensional block twisted by a character eta.

    eta is recorded by its value at p when unramified, or as None when
    ramified (the ramified data model fixes conductor exponent 1 for eta,
    hence b for the block).
    """

    __slots__ = ("b", "eta")

    def __init__(self, b: int, eta: object = 1):
        if b < 1:
            raise ValueError("block size must be >= 1")
        if eta == 0:
            raise ValueError("eta must be a unit or None (ramified)")
        self.b, self.eta = b, eta

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
    and it degenerates to 1 when one twist is ramified.  Two ramified twists
    raise ValueError: the factor is 1 only while eta1 eta2 stays ramified.
    """
    if blk1.ramified and blk2.ramified:
        raise ValueError("both twists are ramified, and eta1*eta2 is not recorded")
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


# -- rep files --------------------------------------------------------------


def parse_rep_file(text: str, n_max: int) -> dict:
    """Parse 'p m root a_1 a_2 a_3' lines into {p: (a_1, a_2, a_3)} for the
    p <= n_max, the only ones a series to n_max reads.

    '#' starts a comment; each scalar is a finite float, written 're,im' or
    as a plain real.  The conductor exponent m and the root number are
    checked for consistency (m >= 0; m = 0 needs nonzero parameters and
    root 1) but not returned.  Every line is checked, also one above n_max.
    Every prime up to n_max must be listed, and no p above REP_P_MAX may be.
    A p that is not prime is refused at its line, by one sieve to
    max(n_max, REP_P_MAX) that also finds the primes left unlisted.
    """
    # 1 at each prime not listed yet, 2 at each listed one, 0 off the primes
    sieve = prime_sieve(max(n_max, REP_P_MAX))
    params: dict[int, tuple] = {}
    # line by line, so that no list of every line is held: each physical
    # line's splitlines() gives what text.splitlines() would
    lines = (line for physical in re.finditer(r"[^\n]*\n?", text)
             for line in physical[0].splitlines())
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        try:
            if len(toks) != 6:
                raise ValueError(f"expected 'p m root' plus 3 parameters, got {len(toks)} fields")
            p, m = int(toks[0]), int(toks[1])
            root = parse_scalar(toks[2])
            local = tuple(parse_scalar(t) for t in toks[3:])
            if p > REP_P_MAX:
                raise ValueError(f"p = {p} is above {REP_P_MAX}, the largest a rep file may list")
            if p < 2 or not sieve[p]:
                raise ValueError(f"{p} is not prime")
            if sieve[p] == 2:
                raise ValueError(f"duplicate prime {p}")
            if m < 0:
                raise ValueError("conductor exponent must be >= 0")
            if m == 0 and any(x == 0 for x in local):
                raise ValueError("an unramified component needs all parameters nonzero")
            if m == 0 and root != 1:
                raise ValueError("an unramified component has root number 1")
        except ValueError as exc:  # the one place a refusal gets its line
            raise ValueError(f"line {lineno}: {exc}") from None
        sieve[p] = 2
        if p <= n_max:
            params[p] = local
    missing = [q for q in range(2, n_max + 1) if sieve[q] == 1]
    if missing:
        raise ValueError(f"missing local data at primes {missing[:10]}")
    return params
