"""Euler-factor polynomials and multiplicative coefficient streams.

An inverse local factor L_p(s)^{-1} is a polynomial in X = p^{-s} with
constant term 1; expanding 1/poly gives the local coefficient stream
a_p(0)=1, a_p(1), ...  Global series are assembled multiplicatively.
"""

from __future__ import annotations

import cmath

from .arith import factorize
from .scalars import EXACT, check_mode, coerce, is_zero, one, zero


class NotDivisibleError(ArithmeticError):
    """Raised by poly_divide_exact; carries the offending remainder."""

    def __init__(self, remainder):
        super().__init__(f"polynomial division left a nonzero remainder {remainder}")
        self.remainder = remainder


class EulerFactorPoly:
    """A polynomial in X = p^{-s} with constant term 1, in a fixed scalar mode."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs, mode: str):
        check_mode(mode)
        cs = [coerce(c, mode) for c in coeffs]
        if mode != EXACT and not all(cmath.isfinite(c) for c in cs):
            # an overflowed coefficient would make the tolerance trim below
            # (at scale inf) cut the factor down to 1
            raise ValueError(f"coefficients must be finite, got {cs!r}")
        if not cs:
            cs = [one(mode)]
        # the tolerance scale is read in float mode only; an exact coefficient
        # may be too large for complex()
        scale = 1.0 if mode == EXACT else max(abs(c) for c in cs)
        while len(cs) > 1 and is_zero(cs[-1], mode, scale=scale):
            cs.pop()
        if mode == EXACT:
            if cs[0] != 1:
                raise ValueError(f"constant term must be 1, got {cs[0]!r}")
            cs[0] = one(mode)
        else:
            c0 = cs[0]
            if abs(c0 - 1) > 1e-9 * max(1.0, scale):
                raise ValueError(f"constant term must be 1, got {c0!r}")
            # normalize away the roundoff so the invariant holds exactly
            cs = [c / c0 for c in cs]
            cs[0] = one(mode)
        self.coeffs = tuple(cs)
        self.mode = mode

    @classmethod
    def one(cls, mode: str) -> "EulerFactorPoly":
        return cls([one(mode)], mode)

    @classmethod
    def from_roots_inverse(cls, alphas, mode: str) -> "EulerFactorPoly":
        """prod_i (1 - alpha_i X); zero alphas contribute nothing."""
        coeffs = [one(mode)]
        for a in alphas:
            a = coerce(a, mode)
            if is_zero(a, mode):
                continue
            nxt = [zero(mode)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * a
            coeffs = nxt
        return cls(coeffs, mode)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EulerFactorPoly)
            and self.mode == other.mode
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.mode, self.coeffs))

    def __repr__(self):
        return f"EulerFactorPoly({list(self.coeffs)!r}, mode={self.mode!r})"

    def is_one(self) -> bool:
        return self.degree == 0


def _require_same_mode(f: EulerFactorPoly, g: EulerFactorPoly) -> str:
    if f.mode != g.mode:
        raise TypeError(f"mode mismatch: {f.mode} vs {g.mode}")
    return f.mode


def poly_mul(f: EulerFactorPoly, g: EulerFactorPoly) -> EulerFactorPoly:
    mode = _require_same_mode(f, g)
    out = [zero(mode)] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return EulerFactorPoly(out, mode)


def expand_inverse(f: EulerFactorPoly, kmax: int) -> list:
    """Power-series coefficients of 1/f up to X^kmax (a list of kmax+1 scalars).

    Uses the convolution recurrence c_0 = 1, c_k = -sum_{j>=1} f_j c_{k-j}.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    mode = f.mode
    out = [one(mode)]
    for k in range(1, kmax + 1):
        acc = zero(mode)
        for j in range(1, min(k, f.degree) + 1):
            acc += f.coeffs[j] * out[k - j]
        out.append(-acc)
    return out


def poly_divide_exact(f: EulerFactorPoly, g: EulerFactorPoly) -> EulerFactorPoly:
    """The quotient f/g when g divides f; raises NotDivisibleError otherwise.

    In float mode the remainder only has to vanish to relative tolerance
    FLOAT_TOL (relative to the largest coefficient of f).
    """
    mode = _require_same_mode(f, g)
    rem = list(f.coeffs)
    dg = g.degree
    qdeg = len(rem) - 1 - dg
    if qdeg < 0:
        raise NotDivisibleError(list(f.coeffs))
    quot = [zero(mode)] * (qdeg + 1)
    lead = g.coeffs[-1]
    for i in range(qdeg, -1, -1):
        c = rem[i + dg] / lead
        quot[i] = c
        for j, b in enumerate(g.coeffs):
            rem[i + j] -= c * b
    scale = 1.0 if mode == EXACT else max(abs(c) for c in f.coeffs)
    if any(not is_zero(r, mode, scale=scale) for r in rem[:dg]):
        raise NotDivisibleError(rem[:dg])
    return EulerFactorPoly(quot, mode)


def multiplicative(n: int, local, mode: str):
    """a(n) = prod_{p^k || n} local(p, k): the n-th term of a multiplicative stream."""
    acc = one(mode)
    for p, k in factorize(n):
        acc *= local(p, k)
    return acc
