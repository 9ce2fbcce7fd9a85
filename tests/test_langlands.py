"""Local parameter bookkeeping: Satake-style data, twisted Steinberg blocks,
pairing polynomials, and their exact quotients."""

import random
from fractions import Fraction

import pytest

from rslab.arith import primes_up_to
from rslab.euler import EulerFactorPoly, poly_divide_exact
from rslab.langlands import (
    GlobalRep,
    LocalData,
    SteinbergBlock,
    block_params,
    degenerate_factor_check,
    gl1_rep_from_character,
    isobaric_local,
    parse_rep_file,
    rs_full_local,
    rs_naive_local,
    rs_quotient_poly,
)
from rslab.scalars import EXACT


def _toy_rep(mode=EXACT, p_max=30):
    locals_ = {}
    rng = random.Random(2024)
    for p in primes_up_to(p_max):
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if a == 0:
            a = Fraction(1)
        if b == 0:
            b = Fraction(1, 2)
        c = Fraction(1) / (a * b)  # unitary-style determinant one
        locals_[p] = LocalData(p, (a, b, c))
    return GlobalRep(3, mode, p_max, locals_)


def test_global_rep_series_multiplicative():
    rep = _toy_rep()
    series = rep.series(30)
    for m, n in [(2, 3), (4, 7), (5, 6)]:
        assert series[m * n - 1] == series[m - 1] * series[n - 1]


def test_local_factor_degree():
    rep = _toy_rep()
    f = EulerFactorPoly.from_roots_inverse(rep.locals[2].params)
    assert f.degree == 3


def test_conductor_and_epsilon():
    locals_ = {p: LocalData(p, (Fraction(1), Fraction(1))) for p in primes_up_to(20)}
    locals_[3] = LocalData(3, (Fraction(1), Fraction(1)), m=2, root_number=-1)
    rep = GlobalRep(2, EXACT, 20, locals_)
    assert rep.conductor() == 9
    assert rep.epsilon() == -1


def test_steinberg_block_params():
    """A length-b twisted Steinberg block keeps one nonzero inverse root
    eta * p^{1-b}; the rest of the parameter slots are zero."""
    blk = SteinbergBlock(2, 1)
    ps = block_params(blk, 5)
    assert ps == (Fraction(1, 5), Fraction(0))
    blk3 = SteinbergBlock(3, 1)
    assert block_params(blk3, 2) == (Fraction(1, 4), Fraction(0), Fraction(0))
    # ramified twist: all-zero parameters
    assert block_params(SteinbergBlock(2, None), 5) == (Fraction(0),) * 2


def test_ramified_block():
    blk = SteinbergBlock(2, None)
    assert blk.ramified


def test_rs_naive_vs_full_unramified_rank_one():
    """For two unramified Steinberg blocks of length 1 (i.e. unramified
    principal parameters) the full pairing is the naive one."""
    b1 = SteinbergBlock(1, 1)
    b2 = SteinbergBlock(1, 1)
    full = rs_full_local(b1, b2, 5)
    naive = rs_naive_local(block_params(b1, 5), block_params(b2, 5))
    assert full == naive


def test_rs_quotient_steinberg_anchor():
    """Steinberg(3) x Steinberg(2), both unramified twists: the exact
    quotient full/naive is 1 - p^{-2} X."""
    b1 = SteinbergBlock(3, 1)
    b2 = SteinbergBlock(2, 1)
    for p in (2, 3, 5):
        q = rs_quotient_poly(b1, b2, p)
        want = EulerFactorPoly((Fraction(1), Fraction(-1, p**2)))
        assert q == want


def test_rs_full_equals_naive_times_quotient():
    for b in range(1, 5):
        for m in range(1, 5):
            for eta1 in (1, None):
                for eta2 in (1, None):
                    b1, b2 = SteinbergBlock(b, eta1), SteinbergBlock(m, eta2)
                    p = 3
                    full = rs_full_local(b1, b2, p)
                    quot = rs_quotient_poly(b1, b2, p)
                    naive = rs_naive_local(block_params(b1, p), block_params(b2, p))
                    assert poly_divide_exact(full, quot) == naive
                    if eta1 is None or eta2 is None:
                        assert full.is_one() and quot.is_one() and naive.is_one()


def test_degenerate_factor_check():
    """Full pairing collapses to naive when one block is a line or ramified."""
    for m in range(1, 5):
        assert degenerate_factor_check(SteinbergBlock(1, 1), SteinbergBlock(m, 1), 5)
        assert degenerate_factor_check(SteinbergBlock(m, 1), SteinbergBlock(1, 1), 5)
        assert degenerate_factor_check(SteinbergBlock(m, None), SteinbergBlock(2, 1), 5)
    with pytest.raises(ValueError):
        degenerate_factor_check(SteinbergBlock(3, 1), SteinbergBlock(2, 1), 5)


def test_isobaric_local_combines_data():
    d1 = LocalData(7, (Fraction(2), Fraction(1, 2)), m=1, root_number=-1)
    d2 = LocalData(7, (Fraction(3),), m=2, root_number=1j)
    s = isobaric_local(d1, d2)
    assert s.params == d1.params + d2.params
    assert s.m == 3
    assert s.root_number == -1j
    with pytest.raises(ValueError):
        isobaric_local(d1, LocalData(5, (Fraction(1),)))


def test_rep_file_roundtrip():
    text = "# p m root a1 a2 a3\n2 0 1 1/2 -3 -2/3\n3 1 -1 2 1/3 0  # ramified\n\n5 0 1 1 1 1\n"
    rep = parse_rep_file(text, 3, EXACT, 5)
    assert rep.locals[2].params == (Fraction(1, 2), Fraction(-3), Fraction(-2, 3))
    assert (rep.locals[3].m, rep.locals[3].root_number) == (1, Fraction(-1))
    assert rep.locals[3].params == (Fraction(2), Fraction(1, 3), Fraction(0))
    assert rep.locals[5].params == (Fraction(1),) * 3
    assert rep.epsilon() == -1 and rep.conductor() == 3


def test_parse_rep_file_rejects_bad_degree():
    text = "2 0 1 1/2 1/3\n"
    with pytest.raises(ValueError):
        parse_rep_file(text, 3, EXACT, 2)


def test_gl1_rep_from_character():
    from rslab.characters import char_group

    chi = next(c for c in char_group(5).characters() if not c.is_trivial())
    rep = gl1_rep_from_character(chi, 30)
    series = rep.series(30)
    for n in range(1, 31):
        v = chi.value(n)
        want = 0 if v is None else v.to_complex()
        assert abs(series[n - 1] - want) < 1e-12
