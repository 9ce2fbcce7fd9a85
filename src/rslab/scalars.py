"""Scalar modes shared by the whole package.

Two modes, never mixed silently inside one computation:

* ``"exact"``  -- arbitrary-precision rationals (fractions.Fraction),
* ``"float"``  -- complex binary64.

``coerce`` is the one sanctioned boundary where values enter a mode.
Exact roots of unity and their sums live in :mod:`rslab.cyclotomic`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def coerce(x, mode: str):
    """Bring x into the given mode, rejecting cross-mode values.

    Exact mode accepts int/Fraction; float mode accepts int/float/complex
    and converts Fraction explicitly.  Floats never sneak into exact mode.
    """
    check_mode(mode)
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
