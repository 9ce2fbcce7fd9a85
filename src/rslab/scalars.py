"""Scalar modes shared by the whole package.

Two modes, never mixed silently inside one computation:

* ``"exact"``  -- arbitrary-precision rationals (fractions.Fraction),
* ``"float"``  -- complex binary64.

``coerce`` is the one sanctioned boundary where values enter a mode.
Exact kernels that are polynomial in their inputs run on integers: ``split``
puts the inputs over one common denominator D, and ``join`` turns the
integer result of degree k back into a Fraction over D**k.
Exact roots of unity and their sums live in :mod:`rslab.cyclotomic`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def rational(x):
    """x itself if it is an int or a Fraction; anything else, a float
    included, raises TypeError rather than being converted.  The one test of
    what an exact value may be."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")


def coerce(x, mode: str):
    """Bring x into the given mode, rejecting cross-mode values.

    Exact mode accepts int/Fraction (a Fraction is returned as is); float
    mode accepts int/float/complex and converts Fraction explicitly.  Floats
    never sneak into exact mode.
    """
    check_mode(mode)
    if mode == EXACT:
        return x if isinstance(x, Fraction) else Fraction(rational(x))
    if isinstance(x, (int, float, complex, Fraction)):
        return complex(x)
    raise TypeError(f"cannot coerce {type(x).__name__} {x!r} into float mode")


def split(xs, mode: str):
    """The values a kernel computes on, and their common denominator D.

    Exact mode: integer numerators over D, the lcm of the denominators, so
    x_i = n_i / D (a float raises TypeError, as in `rational`).  Float mode:
    complex values, and D is None.
    """
    check_mode(mode)
    if mode != EXACT:
        return [coerce(x, mode) for x in xs], None
    xs = [rational(x) for x in xs]
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def join(value, d, degree: int):
    """A homogeneous polynomial of this degree in split inputs, from its
    kernel value: over d**degree in exact mode (a negative degree only comes
    with the value 0), complex when d is None."""
    return complex(value) if d is None else Fraction(value, d ** max(degree, 0))


def zero(mode: str):
    return Fraction(0) if mode == EXACT else complex(0)


def one(mode: str):
    return Fraction(1) if mode == EXACT else complex(1)


def parse_scalar(text: str) -> complex:
    """Parse a finite float scalar, written "re,im" or as a plain real."""
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        val = complex(float(re_part), float(im_part))
    else:
        val = complex(float(text), 0.0)
    if not cmath.isfinite(val):
        raise ValueError(f"{text!r} is not a finite number")
    return val
