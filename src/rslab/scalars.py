"""Scalar modes shared by the whole package.

Two modes, never mixed silently inside one computation:

* ``"exact"``  -- arbitrary-precision rationals (fractions.Fraction),
* ``"float"``  -- complex binary64.

``coerce`` is the one sanctioned boundary where values enter a mode.
Exact roots of unity are carried symbolically as exponent pairs
e(k/n) = exp(2*pi*i*k/n) by :class:`RootOfUnity`; float mode materializes
them as complex numbers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

#: relative tolerance used by float-mode zero/divisibility tests
FLOAT_TOL = 1e-10


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def coerce(x, mode: str):
    """Bring x into the given mode, rejecting cross-mode values.

    Exact mode accepts int/Fraction (and RootOfUnity values +-1);
    float mode accepts int/float/complex and converts Fraction/RootOfUnity
    explicitly.  Floats never sneak into exact mode.
    """
    check_mode(mode)
    if isinstance(x, RootOfUnity):
        if mode == FLOAT:
            return x.to_complex()
        r = x.as_rational()
        if r is None:
            raise TypeError(f"{x} is not a rational number; cannot coerce to exact mode")
        return r
    if mode == EXACT:
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} {x!r} into exact mode")
    if isinstance(x, (int, float, complex, Fraction)):
        return complex(x)
    raise TypeError(f"cannot coerce {type(x).__name__} {x!r} into float mode")


def zero(mode: str):
    return Fraction(0) if mode == EXACT else complex(0)


def one(mode: str):
    return Fraction(1) if mode == EXACT else complex(1)


def is_zero(x, mode: str, scale: float = 1.0) -> bool:
    """Zero test: exact equality in exact mode, relative tolerance in float mode."""
    if mode == EXACT:
        return x == 0
    return abs(x) <= FLOAT_TOL * max(1.0, scale)


def parse_scalar(text: str, mode: str):
    """Parse "a/b" (exact) or "re,im" / plain real (float)."""
    text = text.strip()
    if mode == EXACT:
        return Fraction(text)
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


@dataclass(frozen=True)
class RootOfUnity:
    """The exact root of unity e(k/n) = exp(2*pi*i*k/n), stored in lowest terms."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be positive")
        k = self.k % self.n
        g = gcd(k, self.n)
        object.__setattr__(self, "k", k // g)
        object.__setattr__(self, "n", self.n // g)

    @classmethod
    def from_fraction(cls, t: Fraction | int) -> "RootOfUnity":
        t = Fraction(t)
        return cls(t.numerator % t.denominator, t.denominator)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0, 1)

    @property
    def exponent(self) -> Fraction:
        """k/n as a fraction in [0, 1)."""
        return Fraction(self.k, self.n)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return RootOfUnity.from_fraction(self.exponent + other.exponent)

    def __pow__(self, m: int) -> "RootOfUnity":
        return RootOfUnity.from_fraction(self.exponent * m)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(-self.k, self.n)

    def inverse(self) -> "RootOfUnity":
        return self.conjugate()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is one (+-1), else None."""
        if self.n == 1:
            return Fraction(1)
        if self.n == 2:
            return Fraction(-1)
        return None

    def to_complex(self) -> complex:
        if self.n == 1:
            return complex(1)
        if self.n == 2:
            return complex(-1)
        if self.n == 4:
            return 1j if self.k == 1 else -1j
        return cmath.exp(2j * cmath.pi * self.k / self.n)

    def __repr__(self):
        return f"e({self.k}/{self.n})"
