import cmath
from fractions import Fraction

import pytest

from rslab.scalars import (
    EXACT,
    FLOAT,
    FLOAT_TOL,
    RootOfUnity,
    check_mode,
    coerce,
    is_zero,
    one,
    parse_scalar,
    zero,
)


def test_check_mode():
    check_mode(EXACT)
    check_mode(FLOAT)
    with pytest.raises(ValueError):
        check_mode("symbolic")


def test_coerce_exact():
    assert coerce(3, EXACT) == Fraction(3)
    assert isinstance(coerce(3, EXACT), Fraction)
    assert coerce(Fraction(2, 7), EXACT) == Fraction(2, 7)
    with pytest.raises(TypeError):
        coerce(0.5, EXACT)


def test_coerce_float():
    assert coerce(Fraction(1, 4), FLOAT) == 0.25 + 0j
    assert coerce(2, FLOAT) == 2 + 0j
    assert coerce(1 + 2j, FLOAT) == 1 + 2j


def test_zero_one():
    assert zero(EXACT) == Fraction(0)
    assert one(EXACT) == Fraction(1)
    assert zero(FLOAT) == 0j
    assert one(FLOAT) == 1 + 0j


def test_is_zero_modes():
    assert is_zero(Fraction(0), EXACT)
    assert not is_zero(Fraction(1, 10**12), EXACT)
    assert is_zero(FLOAT_TOL / 2 + 0j, FLOAT)
    assert not is_zero(2 * FLOAT_TOL + 0j, FLOAT)
    # scale widens the tolerance proportionally
    assert is_zero(1e-7 + 0j, FLOAT, scale=1e4)


def test_parse_and_format_roundtrip():
    assert parse_scalar("3/4", EXACT) == Fraction(3, 4)
    assert parse_scalar("-2", EXACT) == Fraction(-2)
    assert parse_scalar("1.5,2", FLOAT) == 1.5 + 2j
    assert parse_scalar("0.25", FLOAT) == 0.25 + 0j


def test_root_of_unity_normalization():
    w = RootOfUnity(5, 4)
    assert (w.k, w.n) == (1, 4)
    assert RootOfUnity(2, 8) == RootOfUnity(1, 4)
    assert RootOfUnity.one() == RootOfUnity(0, 1)


def test_root_of_unity_group_law():
    a = RootOfUnity(1, 3)
    b = RootOfUnity(1, 4)
    ab = a * b
    assert ab == RootOfUnity(7, 12)
    assert a * a.inverse() == RootOfUnity.one()
    assert a.conjugate() == a.inverse()


def test_root_of_unity_from_fraction():
    assert RootOfUnity.from_fraction(Fraction(3, 6)) == RootOfUnity(1, 2)
    assert RootOfUnity.from_fraction(Fraction(-1, 4)) == RootOfUnity(3, 4)


def test_root_of_unity_to_complex():
    # n in {1, 2, 4} is exactly representable
    assert RootOfUnity(0, 1).to_complex() == 1
    assert RootOfUnity(1, 2).to_complex() == -1
    assert RootOfUnity(1, 4).to_complex() == 1j
    z = RootOfUnity(1, 3).to_complex()
    assert abs(z - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def test_root_of_unity_as_rational():
    assert RootOfUnity(1, 2).as_rational() == Fraction(-1)
    assert RootOfUnity(0, 7).as_rational() == Fraction(1)
    assert RootOfUnity(1, 3).as_rational() is None


def test_exponent_is_fraction():
    assert RootOfUnity(3, 8).exponent == Fraction(3, 8)
