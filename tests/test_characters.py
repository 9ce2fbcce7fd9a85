"""Dirichlet characters, Gauss sums, and the additive-twist windows."""

import cmath
import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd, lcm, sqrt

import pytest

from rslab import characters, funceq, twists
from rslab.arith import divisors, euler_phi, radical
from rslab.characters import (
    CharGroup,
    addtomult_check,
    addtomult_residuals,
    char_group,
    dirichlet_root_number,
    exponent_maps,
    gauss_beta,
    gauss_classical,
    gauss_factorization_residual,
    nonvanishing_window_check,
    vanishing_sums,
    window_moduli,
)
from rslab.cyclotomic import CycloElement
from rslab.scalars import EXACT, FLOAT

from cyclo_oracle import dense_is_zero


def test_group_sizes():
    for q in (1, 2, 3, 8, 12, 15, 16):
        assert len(list(char_group(q).characters())) == euler_phi(q)


def test_character_at_matches_enumeration():
    for q in range(1, 65):
        grp = char_group(q)
        assert [grp.character_at(i) for i in range(len(grp))] == list(grp.characters()), q
        for index in (-1, len(grp)):
            with pytest.raises(ValueError, match=rf"must be in \[0, {len(grp) - 1}\] for q={q}$"):
                grp.character_at(index)


def test_character_values_multiplicative():
    rng = random.Random(3)
    for q in (5, 8, 12, 21):
        for chi in char_group(q).characters():
            for _ in range(20):
                a, b = rng.randint(1, 4 * q), rng.randint(1, 4 * q)
                va, vb, vab = chi.value(a), chi.value(b), chi.value(a * b)
                if gcd(a, q) > 1 or gcd(b, q) > 1:
                    assert vab is None
                else:
                    assert vab == va * vb


def test_value_table_against_brute_force_logs():
    """Every value for q <= 64 and a in -q..2q against the definition: the
    logs d_i of a unit a are found by searching all products of powers of the
    generator residues, and chi(a) = e(sum e_i d_i / n_i); off the units the
    value is None.  angle(a) is t scaled to the group exponent, and the float
    value is e(t) with t in lowest terms: exactly +-1 and +-1j at orders 1, 2
    and 4, cmath.exp otherwise, bit for bit (repr tells -0.0 from 0.0)."""
    exact = {(0, 1): 1 + 0j, (1, 2): -1 + 0j, (1, 4): 1j, (3, 4): -1j}
    for q in range(1, 65):
        grp = char_group(q)
        gens = grp.generator_residues()
        logs = {}
        for ds in itertools.product(*(range(n) for n in grp.orders)):
            a = 1 % q
            for g, d in zip(gens, ds):
                a = a * pow(g, d, q) % q
            logs[a] = ds
        assert len(logs) == euler_phi(q), q
        for chi in grp.characters():
            for a in range(-q, 2 * q + 1):
                v = chi.value(a)
                if gcd(a, q) > 1:
                    assert v is None, (chi, a)
                    assert chi.value_complex(a) == 0j, (chi, a)
                    continue
                t = sum(Fraction(e * d, n) for e, d, n in zip(chi.exps, logs[a % q], grp.orders)) % 1
                k, n = t.numerator, t.denominator
                assert (v.n, v.coeffs) == (n, {k: 1}), (chi, a)
                assert Fraction(chi.angle(a), grp.exponent) == t, (chi, a)
                want = exact.get((k, n), cmath.exp(2j * cmath.pi * k / n))
                assert repr(chi.value_complex(a)) == repr(want), (chi, a)


def test_trivial_character():
    grp = char_group(12)
    chi0 = grp.trivial()
    assert chi0.is_trivial()
    for a in range(1, 13):
        v = chi0.value(a)
        if gcd(a, 12) == 1:
            assert v == 1
            assert chi0.angle(a) == 0
        else:
            assert v is None


def test_order_and_conjugate():
    for chi in char_group(7).characters():
        k = chi.order
        acc = chi
        for _ in range(k - 1):
            acc = acc * chi
        assert acc.is_trivial()
        prod = chi * chi.conjugate()
        assert prod.is_trivial()


def test_parity_definition():
    for q in (3, 4, 5, 8):
        for chi in char_group(q).characters():
            v = chi.value(q - 1)  # chi(-1)
            assert v == 1 or v == -1
            assert chi.parity == (0 if v == 1 else 1)


def test_conductor_and_primitivity():
    grp = char_group(12)
    for chi in grp.characters():
        c = chi.conductor()
        assert c in divisors(12)
        assert chi.is_primitive() == (c == 12)
    # the quadratic character mod 3 induced to 12 has conductor 3
    found = [chi for chi in grp.characters() if chi.conductor() == 3]
    assert found


def test_decompose_reassembles():
    for q in (12, 15, 45):
        for chi in char_group(q).characters():
            parts = chi.decompose()
            for a in range(1, q + 1):
                if gcd(a, q) > 1:
                    continue
                prod = CycloElement.from_rational(1)
                for comp in parts:
                    prod = prod * comp.value(a)
                assert prod == chi.value(a)
                t = sum(Fraction(comp.angle(a), comp.group.exponent) for comp in parts)
                assert t % 1 == Fraction(chi.angle(a), chi.group.exponent)


def test_gauss_classical_quadratic_anchors():
    """tau(chi_3) = i*sqrt(3) and tau(chi_4) = 2i for the odd quadratic
    characters mod 3 and mod 4."""
    chi3 = next(c for c in char_group(3).characters() if not c.is_trivial())
    z = gauss_classical(chi3, mode=FLOAT)
    assert abs(z - 1j * sqrt(3)) < 1e-12
    chi4 = next(c for c in char_group(4).characters() if not c.is_trivial())
    z = gauss_classical(chi4, mode=FLOAT)
    assert abs(z - 2j) < 1e-12


def test_gauss_modulus_primitive():
    for q in range(3, 40):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            z = gauss_classical(chi, mode=FLOAT)
            assert abs(abs(z) - sqrt(q)) < 1e-9


def test_gauss_classical_float_is_gauss_beta_bit_for_bit():
    """The float tau(chi) dots chi's values with its group's one phase row.
    Each phase is written as gauss_beta writes e(d/q), and the sum runs in
    gauss_beta's order, so for every chi mod q <= 60 (q = 1 included) the
    two routes agree to the last bit.  Phases written as
    cmath.exp(2j * pi * d / q) differ in 327 of the 1,102 units here."""
    for q in range(1, 61):
        group = CharGroup(q)  # uncached, so every tau comes from the row
        for chi in group.characters():
            tau = gauss_classical(chi, mode=FLOAT)
            assert repr(tau) == repr(gauss_beta(chi, Fraction(1, q), mode=FLOAT)), chi


def test_gauss_beta_exact_matches_float():
    rng = random.Random(17)
    for q in (5, 7, 12):
        for chi in char_group(q).characters():
            for _ in range(5):
                r = rng.randint(1, q - 1)
                if gcd(r, q) > 1:
                    continue
                beta = Fraction(r, q)
                exact = gauss_beta(chi, beta, mode=EXACT)
                approx = gauss_beta(chi, beta, mode=FLOAT)
                assert abs(exact.to_complex() - approx) < 1e-10


def test_gauss_beta_exact_matches_termwise_sum():
    """The exponent-map sum gives the same n and coeffs, in the same order,
    as adding one CycloElement per term; same order keeps to_complex()
    bit-identical too."""
    for q in range(1, 25):
        for chi in char_group(q).characters():
            angles = [(d, Fraction(chi.angle(d), chi.group.exponent))
                      for d in range(1, q + 1) if gcd(d, q) == 1]
            for m in sorted({1, q, 7, 12}):
                for r in range(m):
                    beta = Fraction(r, m)
                    ref = CycloElement.zero()
                    for d, t in angles:
                        t += d * beta
                        ref = ref + CycloElement.root(t.numerator, t.denominator)
                    got = gauss_beta(chi, beta, EXACT)
                    assert got.n == ref.n, (chi, beta)
                    assert list(got.coeffs.items()) == list(ref.coeffs.items()), (chi, beta)


def _same_element(got, want):
    return (got.n, list(got.coeffs.items())) == (want.n, list(want.coeffs.items()))


def test_exponent_maps_match_gauss_beta():
    """One pass over chi's angles per (chi, m) gives, for every r, the map of
    gauss_beta's element (same n, same coeffs in the same order), for every
    chi mod q <= 40 and every divisor m of q, the window's q2 among them.
    The vanishing r are those whose element the dense oracle reduces to zero
    (not `is_zero`, which vanishing_sums itself runs), and on the window
    they are nonvanishing_window_check's failures; off it some sums vanish
    (Ramanujan sums, for one), so the lists are not all empty."""
    found_zero = False
    for q in range(1, 41):
        for chi in char_group(q).characters():
            window = window_moduli(chi)
            for m in divisors(q):
                rs = list(range(1, m + 1))
                zeros = []
                for r, (big, weights) in zip(rs, exponent_maps(chi, m, rs)):
                    want = gauss_beta(chi, Fraction(r, m), EXACT)
                    assert _same_element(CycloElement.from_exponents(big, weights), want), (chi, r, m)
                    if gcd(r, m) == 1 and dense_is_zero(want.n, want.coeffs):
                        zeros.append(r)
                coprime = [r for r in rs if gcd(r, m) == 1]
                assert vanishing_sums(chi, m, coprime) == zeros, (chi, m)
                if m in window:
                    assert nonvanishing_window_check(chi, m) == (not zeros, zeros)
                found_zero = found_zero or bool(zeros)
    assert found_zero


def test_exponent_maps_q1_off_the_integers():
    """Mod 1 the sum is the single term e(r/m), for beta = r/m not in Z too."""
    chi = char_group(1).trivial()
    for m in (2, 3, 7, 12):
        rs = list(range(-m, 2 * m))
        for r, (big, weights) in zip(rs, exponent_maps(chi, m, rs)):
            got = CycloElement.from_exponents(big, weights)
            assert _same_element(got, gauss_beta(chi, Fraction(r, m), EXACT))
            assert _same_element(got, CycloElement.root(r % m, m))
        assert vanishing_sums(chi, m, rs) == []


def test_addtomult_exact_proves_the_identity():
    for q in range(3, 17):
        for chi in char_group(q).characters():
            if chi.is_primitive():
                for n in range(1, 2 * q + 1):
                    assert addtomult_check(chi, n, EXACT) == 0.0, (chi, n)


def test_addtomult_exact_mod_97_in_one_pass():
    """An odd primitive chi mod 97 of order 96 over n = 1..97: every residual
    is an exact 0.0, from one exponent-map pass.  The character is odd, so
    e(-an/q) taken for e(an/q) (which an even character cannot tell apart)
    fails."""
    chi = next(c for c in char_group(97).characters() if c.order == 96 and c.parity == 1)
    start = time.perf_counter()
    assert addtomult_residuals(chi, range(1, 98), EXACT) == [0.0] * 97
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("q, index", [(4, 0), (12, 1), (9, 3)])
def test_one_primitive_rule(q, index):
    """Each library function that needs a primitive character refuses an
    imprimitive one with `require_primitive`'s one message."""
    chi = char_group(q).character_at(index)
    message = f"^chi mod {q} is not primitive: its conductor is {chi.conductor()}$"
    assert chi.conductor() < q
    for call in (lambda: addtomult_residuals(chi, [1], FLOAT),
                 lambda: addtomult_residuals(chi, [1], EXACT),
                 lambda: dirichlet_root_number(chi),
                 lambda: funceq.fe_residual_dirichlet(chi, 0.5),
                 lambda: funceq.synthetic_fe_check(chi, (0.5, -0.3, 0.1), 0.2, [0.5])):
        with pytest.raises(ValueError, match=message):
            call()


def test_gauss_beta_substitution_symmetry():
    """gauss_beta(chi, d*beta) = conj(chi)(d) * gauss_beta(chi, beta) for
    d coprime to the modulus — an exact change-of-variables identity."""
    for q in (5, 8, 9):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            beta = Fraction(1, q)
            base = gauss_beta(chi, beta, mode=EXACT)
            for d in range(2, q):
                if gcd(d, q) > 1:
                    continue
                lhs = gauss_beta(chi, d * beta, mode=EXACT)
                rhs = base * chi.conjugate().value(d)
                assert (lhs - rhs).is_zero()


def test_gauss_beta_integer_shift():
    """Adding an integer to beta leaves the sum unchanged."""
    chi = next(c for c in char_group(7).characters() if not c.is_trivial())
    a = gauss_beta(chi, Fraction(2, 7), mode=EXACT)
    b = gauss_beta(chi, Fraction(2, 7) + 3, mode=EXACT)
    assert (a - b).is_zero()


def test_gauss_beta_q1():
    chi = char_group(1).trivial()
    val = gauss_beta(chi, Fraction(0), mode=EXACT)
    assert val.as_rational() == Fraction(1)


def test_nonvanishing_window():
    from math import lcm

    from rslab.arith import radical

    for q in (6, 12):
        for chi in char_group(q).characters():
            cond = chi.conductor()
            top = lcm(cond, radical(q))
            window = [q2 for q2 in divisors(q) if q2 % cond == 0 and top % q2 == 0]
            assert window_moduli(chi) == window
            for q2 in window:
                ok, failures = nonvanishing_window_check(chi, q2)
                assert ok, failures


def test_window_rejects_out_of_range():
    chi0 = char_group(12).trivial()
    # q2 = 4 is not a divisor of lcm(1, rad 12) = 6
    with pytest.raises(ValueError):
        nonvanishing_window_check(chi0, 4)


def test_window_membership_matches_window_moduli(monkeypatch):
    """nonvanishing_window_check and twisted_prefactor's validation
    accept exactly the q2 of window_moduli, for every chi mod q <= 40 and
    -1 <= q2 <= q + 1, and refuse every other q2 with the one window
    message, a non-positive q2 and one above q included."""
    monkeypatch.setattr(characters, "vanishing_sums", lambda chi, m, rs: [])
    for q in range(1, 41):
        for chi in char_group(q).characters():
            window = window_moduli(chi)
            c = chi.conductor()
            for q2 in range(-1, q + 2):
                if q2 in window:
                    assert nonvanishing_window_check(chi, q2) == (True, [])
                    twists._validate_window(chi, q, q2)  # q1 = q is always admissible
                    continue
                message = re.escape(f"q2={q2} outside the window: "
                                    f"need {c} | q2 and q2 | {lcm(c, radical(q))}")
                with pytest.raises(ValueError, match=message):
                    nonvanishing_window_check(chi, q2)
                with pytest.raises(ValueError, match=message):
                    twists._validate_window(chi, q, q2)


def test_addtomult_residuals():
    rng = random.Random(405)
    for q in (3, 4, 5, 7, 8, 9):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            for _ in range(10):
                n = rng.randint(1, 60)
                assert addtomult_check(chi, n) < 1e-10


def test_dirichlet_root_number_modulus_one():
    for q in (3, 4, 5, 7, 8, 11, 12):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            eps = dirichlet_root_number(chi)
            assert abs(abs(eps) - 1) < 1e-10


def test_quadratic_root_numbers():
    """Even primitive quadratic characters have eps = +1; odd ones
    (like mod 3 and mod 4) have tau = i*sqrt(q), so eps = +1 there too
    with the i absorbed by the parity factor."""
    chi5 = next(
        c for c in char_group(5).characters() if c.order == 2 and c.is_primitive()
    )
    assert abs(dirichlet_root_number(chi5) - 1) < 1e-10
    chi3 = next(c for c in char_group(3).characters() if not c.is_trivial())
    assert abs(dirichlet_root_number(chi3) - 1) < 1e-10


def test_gauss_factorization():
    for q in (12, 15, 20, 21):
        for chi in char_group(q).characters():
            if not chi.is_primitive():
                continue
            assert gauss_factorization_residual(chi) < 1e-9


def test_gauss_imprimitive_can_vanish():
    """For the trivial character mod 12 the classical sum is a Ramanujan
    sum at 1, which vanishes since 12 is not squarefree-compatible."""
    chi0 = char_group(12).trivial()
    z = gauss_classical(chi0, mode=FLOAT)
    assert abs(z) < 1e-12
