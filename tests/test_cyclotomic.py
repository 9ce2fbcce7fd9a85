import cmath
import random
from fractions import Fraction

import pytest

from rslab.arith import divisors
from rslab.characters import char_group, gauss_beta, gauss_classical
from rslab.cyclotomic import CycloElement
from rslab.scalars import EXACT

from cyclo_oracle import cyclotomic_poly, dense_as_rational, dense_is_zero


def test_cyclotomic_poly_small():
    assert tuple(cyclotomic_poly(1)) == (-1, 1)
    assert tuple(cyclotomic_poly(2)) == (1, 1)
    assert tuple(cyclotomic_poly(3)) == (1, 1, 1)
    assert tuple(cyclotomic_poly(4)) == (1, 0, 1)
    assert tuple(cyclotomic_poly(6)) == (1, -1, 1)
    # degree is phi(n)
    assert len(cyclotomic_poly(12)) - 1 == 4


def test_cyclotomic_poly_product_identity():
    """prod_{d | n} Phi_d(x) = x^n - 1, checked by polynomial multiplication."""
    for n in (6, 8, 12):
        prod = [Fraction(1)]
        for d in divisors(n):
            phi_d = [Fraction(c) for c in cyclotomic_poly(d)]
            new = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            prod = new
        want = [Fraction(0)] * (n + 1)
        want[0], want[n] = Fraction(-1), Fraction(1)
        assert prod == want


def test_cyclo_element_arithmetic_matches_complex():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.choice([3, 4, 5, 8, 12])
        a = CycloElement.root(rng.randrange(n), n)
        b = CycloElement.root(rng.randrange(n), n)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        expr = (a + b) * a - b * c
        za, zb = a.to_complex(), b.to_complex()
        want = (za + zb) * za - complex(c) * zb
        assert abs(expr.to_complex() - want) < 1e-12


def test_root_is_in_lowest_terms():
    for (k, n), want in {
        (2, 8): (4, {1: 1}), (-1, 4): (4, {3: 1}), (6, 4): (2, {1: 1}),
        (0, 7): (1, {0: 1}), (7, 7): (1, {0: 1}),
    }.items():
        z = CycloElement.root(k, n)
        assert (z.n, z.coeffs) == want, (k, n)


def test_cyclo_element_rmul_with_fraction():
    a = CycloElement.root(1, 3)
    left = Fraction(2, 3) * a
    right = a * Fraction(2, 3)
    assert (left - right).is_zero()


def test_cyclo_element_conjugate():
    a = CycloElement.root(2, 7)
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-14


def test_is_zero_catches_hidden_relations():
    """1 + w + w^2 = 0 for w a primitive cube root, even though the
    coefficient vector is nonzero before reduction."""
    w = CycloElement.root(1, 3)
    s = CycloElement.from_rational(Fraction(1)) + w + w * w
    assert s.is_zero()
    # sum over all 5th roots of unity is zero as well
    total = CycloElement.zero()
    for k in range(5):
        total = total + CycloElement.root(k, 5)
    assert total.is_zero()


def test_as_rational_reduction():
    # w^2 + w^4 + w + w^3 = -1 for w primitive 5th root
    total = CycloElement.zero()
    for k in range(1, 5):
        total = total + CycloElement.root(k, 5)
    assert total.as_rational() == Fraction(-1)


def test_as_rational_none_for_irrational():
    w = CycloElement.root(1, 5)
    assert w.as_rational() is None


def test_mixed_order_roots_embed_consistently():
    """Roots of different orders should combine in the compositum."""
    a = CycloElement.root(1, 3)
    b = CycloElement.root(1, 4)
    z = (a * b).to_complex()
    want = cmath.exp(2j * cmath.pi * (Fraction(1, 3) + Fraction(1, 4)))
    assert abs(z - want) < 1e-12


def test_from_exponents_lowers_the_order():
    z = CycloElement.from_exponents(12, {0: 1, 4: 2, 8: Fraction(-1, 3)})
    assert (z.n, z.coeffs) == (3, {0: 1, 1: 2, 2: Fraction(-1, 3)})
    # a key whose weight cancelled still counts towards the order
    z = CycloElement.from_exponents(12, {4: 1, 6: 0})
    assert (z.n, z.coeffs) == (6, {2: 1})
    z = CycloElement.from_exponents(5, {})
    assert (z.n, z.coeffs) == (1, {})
    assert CycloElement.from_exponents(8, {1: 1, 5: 1}).is_zero()


@pytest.mark.parametrize("bad", [0.1, 1j, None])
def test_coefficient_that_is_not_int_or_fraction_raises(bad):
    """A float would enter the exact route as its binary expansion."""
    with pytest.raises(TypeError):
        CycloElement(1, {0: bad})
    with pytest.raises(TypeError):
        CycloElement(3, {0: 1, 2: bad})


def test_adding_or_multiplying_by_a_float_raises():
    z = CycloElement.root(1, 3)
    for op in (lambda: z + 0.5, lambda: 0.5 + z, lambda: z - 0.5,
               lambda: z * 0.5, lambda: 0.5 * z):
        with pytest.raises(TypeError):
            op()
    assert z != 0.5  # __eq__ declines, so the float's own test says unequal


def test_int_weights_stay_int():
    z = CycloElement.from_exponents(12, {0: 2, 3: 1, 9: -1})
    assert {type(c) for c in z.coeffs.values()} == {int}
    assert {type(c) for c in (z * z + z - 1).coeffs.values()} == {int}
    # an exact Gauss sum is a count of exponents from end to end
    chi = next(c for c in char_group(20).characters() if c.is_primitive())
    tau = gauss_beta(chi, Fraction(1, 20), EXACT)
    assert tau.coeffs and {type(c) for c in tau.coeffs.values()} == {int}


def test_as_rational_returns_a_fraction():
    cases = [
        (CycloElement.zero(), 0),
        (CycloElement.from_rational(3), 3),
        (CycloElement.root(1, 3) + CycloElement.root(2, 3), -1),
        (CycloElement.from_rational(Fraction(-5, 2)), Fraction(-5, 2)),
    ]
    for z, want in cases:
        got = z.as_rational()
        assert type(got) is Fraction and got == want


def _random_element(rng, n):
    return CycloElement(n, {rng.randrange(n): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in range(rng.randint(0, 5))})


def _vanishing_element(rng, n):
    """c * e(s/n) * (sum of the d-th roots of unity), d > 1 dividing n: zero."""
    d = rng.choice([d for d in divisors(n) if d > 1])
    s, c = rng.randrange(n), rng.randint(1, 5)
    return CycloElement(n, {(s + j * (n // d)) % n: c for j in range(d)})


def test_as_rational_agrees_with_dense_reduction():
    """Seeded random elements of mixed orders, half of them a rational plus
    hidden zeros (so rational with a nonconstant coefficient map), half
    anything; as_rational must match the dense oracle on every one."""
    rng = random.Random(2024)
    rational = irrational = 0
    for _ in range(300):
        n1, n2 = rng.randint(2, 40), rng.randint(2, 40)
        if rng.random() < 0.5:
            z = (_vanishing_element(rng, n1) + _vanishing_element(rng, n2)
                 + Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        else:
            z = _random_element(rng, n1) + _random_element(rng, n2) + _vanishing_element(rng, n1)
        want = dense_as_rational(z)
        got = z.as_rational()
        assert got == want, (z, want, got)
        if want is None:
            irrational += 1
        else:
            rational += 1
            assert type(got) is Fraction
    assert rational > 100 and irrational > 100


@pytest.mark.parametrize("q", [61, 65, 68, 71, 75, 77])
def test_gauss_sum_norm_is_q_at_large_order(q):
    """tau * conj(tau) - q = 0 exactly, at ambient orders above the zero
    test's property-test range n <= 90, for a few primitive characters mod q."""
    chars = [chi for chi in char_group(q).characters() if chi.is_primitive()]
    for chi in chars[:: max(1, len(chars) // 3)]:
        tau = gauss_classical(chi, EXACT)
        norm = tau * tau.conjugate()
        assert norm.n > 90 and len(norm.coeffs) > 1
        assert (norm - q).is_zero()
        assert dense_is_zero(norm.n, (norm - q).coeffs)
        assert norm.as_rational() == q
        assert not (norm - (q + 1)).is_zero()
