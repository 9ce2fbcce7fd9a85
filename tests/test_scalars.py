from fractions import Fraction

import pytest

from rslab.scalars import (
    EXACT,
    FLOAT,
    check_mode,
    coerce,
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


def test_parse_and_format_roundtrip():
    assert parse_scalar("1.5,2") == 1.5 + 2j
    assert parse_scalar(" 0.25") == 0.25 + 0j
    for bad in ("3/4", "1,nan", "1e400"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
