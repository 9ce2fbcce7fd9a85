"""Local parameters: rep files, twisted Steinberg blocks, pairing
polynomials, and their exact quotients."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from rslab.arith import primes_up_to
from rslab.cli import main
from rslab.euler import EulerFactorPoly, poly_divide_exact
from rslab.langlands import (
    SteinbergBlock,
    block_params,
    degenerate_factor_check,
    parse_rep_file,
    rs_full_local,
    rs_naive_local,
    rs_quotient_poly,
)


def _toy_rep_text(p_max=30) -> str:
    """A rep file with three nonzero parameters of determinant one at each
    prime up to p_max."""
    rng = random.Random(2024)
    lines = []
    for p in primes_up_to(p_max):
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) or Fraction(1)
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) or Fraction(1, 2)
        c = 1 / (a * b)
        lines.append(f"{p} 0 1 {float(a)!r} {float(b)!r} {float(c)!r}\n")
    return "".join(lines)


def test_global_rep_series_multiplicative(tmp_path):
    """The series a rep file assembles into (`twist --beta 0` prints a(n)
    untwisted) has a(mn) = a(m) a(n) for coprime m, n."""
    rep = tmp_path / "toy.rep"
    rep.write_text(_toy_rep_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["twist", "--pi-file", str(rep), "--beta", "0", "--N", "30"]) == 0
    series = [complex(*json.loads(line)["coeff"]) for line in out.getvalue().splitlines()]
    assert len(series) == 30
    for m, n in [(2, 3), (4, 7), (5, 6)]:
        assert series[m * n - 1] == series[m - 1] * series[n - 1]


def test_local_factor_degree():
    """Every prime gets three parameters, zeros padding a ramified one;
    only the primes up to n_max are returned, though every line is read."""
    text = "".join(f"{p} 0 1 0.5 -2 1\n" for p in primes_up_to(30)) + "31 2 -1 0.5 0 0\n"
    assert sorted(parse_rep_file(text, 30)) == primes_up_to(30)
    params = parse_rep_file(text, 31)
    assert sorted(params) == primes_up_to(31)
    assert all(len(local) == 3 for local in params.values())
    assert params[31] == (0.5, 0j, 0j)


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


def test_rep_file_roundtrip():
    text = ("# p m root a1 a2 a3\n2 0 1 0.5 -3 -0.25\n3 1 -1 2 0.5,-1 0  # ramified\n\n"
            "5 0 1 1 1 1\n")
    params = parse_rep_file(text, 5)
    assert params == {2: (0.5, -3, -0.25), 3: (2, 0.5 - 1j, 0), 5: (1, 1, 1)}
    assert all(type(x) is complex for local in params.values() for x in local)


def test_parse_rep_file_rejects_bad_degree():
    text = "2 0 1 0.5 0.25\n"
    with pytest.raises(ValueError, match="expected 'p m root' plus 3 parameters, got 5 fields"):
        parse_rep_file(text, 2)


@pytest.mark.parametrize("text, n_max, message", [
    ("2 0 1 1 1 1\n5 0 1 1 1 1\n", 5, r"missing local data at primes \[3\]"),
    ("2 0 1 1 1 1\n# again\n2 1 1 1 1 1\n", 2, "line 3: duplicate prime 2"),
    ("4 0 1 1 1 1\n", 1, "4 is not prime"),
    ("2 0 1 1 1 1\n-3 0 1 1 1 1\n", 2, "line 2: -3 is not prime"),
    # each p at its own line, in file order: 9 is refused before line 3 is read
    ("2 0 1 1 1 1\n9 0 1 1 1 1\n3 0 1 1 1 1\n", 3, "line 2: 9 is not prime"),
    ("2 -1 1 1 1 1\n", 2, "conductor exponent must be >= 0"),
    ("2 0 1 1 0 1\n", 2, "an unramified component needs all parameters nonzero"),
    ("2 0 -1 1 1 1\n", 2, "an unramified component has root number 1"),
    ("2 0 1 1/2 1 1\n", 2, "could not convert"),
    ("2 0 1 1,inf 1 1\n", 2, "not a finite number"),
    ("1000003 0 1 1 1 1\n", 1, "line 1: p = 1000003 is above 1000000"),
])
def test_parse_rep_file_rejects_inconsistent_data(text, n_max, message):
    with pytest.raises(ValueError, match=message):
        parse_rep_file(text, n_max)


@pytest.mark.parametrize("line, message", [
    ("2 -1 1 1 1 1", "conductor exponent must be >= 0"),
    ("2 0 1 1 0 1", "an unramified component needs all parameters nonzero"),
    ("2 0 -1 1 1 1", "an unramified component has root number 1"),
    # a token that does not parse: a p that is not an int, an unparsable
    # scalar and a non-finite one
    ("2.0 0 1 1 1 1", r"invalid literal for int\(\) with base 10: '2\.0'"),
    ("2 0 x 1 1 1", "could not convert string to float: 'x'"),
    ("2 0 1 1,2,3 1 1", "could not convert string to float: '2,3'"),
    ("2 0 1 inf 1 1", "'inf' is not a finite number"),
])
def test_parse_rep_file_names_the_line_of_each_refusal(line, message):
    """The m, root and token refusals name their line, as every other
    refusal does: the bad line first, and after a valid line 1."""
    for text, lineno in ((f"{line}\n", 1), (f"3 0 1 1 1 1\n{line}\n", 2)):
        with pytest.raises(ValueError, match=f"^line {lineno}: {message}$"):
            parse_rep_file(text, 3)
