"""Rational 2x2 matrix helpers, double-coset canonical forms, and the
block factorization identities used for the level computations."""

import random
from fractions import Fraction

import pytest

from rslab.arith import factorize, valuation
from rslab.matid import (
    CanonicalCoset,
    CosetContext,
    FactorizationInstance,
    Mat,
    coset_in_support,
    coset_reduce,
    lower_unipotent2,
    upper_unipotent2,
    verify_3x3_factorization,
    verify_lower_unipotent_split,
)


def _rand_context_unit(rng):
    """Random element of GL_2(Z) as a short word in elementary matrices."""
    m = Mat.identity(2)
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = m * upper_unipotent2(Fraction(k))
        else:
            m = m * lower_unipotent2(Fraction(k))
    if rng.random() < 0.5:
        m = m * Mat.diag(Fraction(1), Fraction(-1))
    return m


def _rand_invertible(rng):
    while True:
        m = Mat(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
                for _ in range(2)
            ]
        )
        if m.det() != 0:
            return m


def test_mat_basics():
    m = Mat([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert m.det() == -2
    inv = m.inverse()
    assert (m * inv).rows == Mat.identity(2).rows
    assert Mat.diag(Fraction(2), Fraction(3)).det() == 6
    assert not m.inverse().is_integral()
    assert Mat([[Fraction(1), Fraction(0)], [Fraction(5), Fraction(1)]]).is_integral()


def test_unipotent_constructors():
    u = upper_unipotent2(Fraction(3, 2))
    assert u[0, 1] == Fraction(3, 2) and u.det() == 1
    low = lower_unipotent2(Fraction(-5))
    assert low[1, 0] == Fraction(-5) and low.det() == 1


def test_coset_reduce_anchor():
    """The worked reduction: context (p, q', p') = (5, 3, 2)."""
    ctx = CosetContext(5, 3, 2)
    m = Mat([[Fraction(1, 5), Fraction(0)], [Fraction(3), Fraction(5)]])
    red = coset_reduce(m, ctx)
    assert red.gamma1 == Fraction(5)
    assert red.gamma2 == Fraction(1, 25)


def test_coset_reduce_reconstructs():
    """u * M * g = canonical, with u upper unipotent and g in the context
    group, for 100 random invertible rational matrices."""
    rng = random.Random(517)
    ctx = CosetContext(5, 3, 2)
    for _ in range(100):
        m = _rand_invertible(rng)
        red = coset_reduce(m, ctx)
        recon = red.u * (m * red.g)
        assert recon.rows == red.canonical_matrix().rows
        assert red.u[0, 0] == 1 and red.u[1, 1] == 1 and red.u[1, 0] == 0
        assert red.g.is_integral() and abs(red.g.det()) == 1


def test_gamma2_tracks_determinant():
    """gamma2 = det(M) / gamma1^2 up to the positive-unit normalization."""
    rng = random.Random(99)
    ctx = CosetContext(3, 7, 2)
    for _ in range(100):
        m = _rand_invertible(rng)
        red = coset_reduce(m, ctx)
        det_can = red.canonical_matrix().det()
        assert red.gamma1 * red.gamma1 * red.gamma2 == det_can
        # canonical determinant agrees with det(M) times det(g)
        assert det_can == m.det() * red.g.det()


def test_coset_invariance_under_perturbation():
    """Multiplying by an admissible (u, g) pair leaves the invariants fixed."""
    rng = random.Random(240)
    ctx = CosetContext(5, 3, 2)
    for _ in range(40):
        m = _rand_invertible(rng)
        red = coset_reduce(m, ctx)
        for _ in range(5):
            u = upper_unipotent2(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            g = _rand_context_unit(rng)
            m2 = u * (m * g)
            red2 = coset_reduce(m2, ctx)
            assert red2.gamma1 == red.gamma1
            assert red2.gamma2 == red.gamma2


def test_coset_in_support():
    ctx = CosetContext(5, 3, 2)
    red = coset_reduce(Mat([[Fraction(5), Fraction(0)], [Fraction(0), Fraction(1, 5)]]), ctx)
    assert isinstance(coset_in_support(red.gamma1, red.gamma2, ctx), bool)


def _support_by_valuations(g1, g2, p):
    """The support predicate from its definition, prime by prime: v_p(g1) >= 1,
    v_p(g2) >= -2, and no other prime in either denominator."""
    def ok(x, least):
        return valuation(x, p) >= least and all(pr == p for pr, _ in factorize(x.denominator))
    return ok(g1, 1) and ok(g2, -2)


def test_coset_in_support_matches_valuations():
    fracs = [Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3, 5, 7, 10, 49)
             for b in (1, 2, 3, 5, 7, 25, 49, 75, 125, 343)]
    for ctx in (CosetContext(5, 3, 7), CosetContext(7, 4, 3), CosetContext(2, 9, 5)):
        for g1 in fracs:
            for g2 in fracs:
                assert coset_in_support(g1, g2, ctx) == _support_by_valuations(g1, g2, ctx.p)


def test_lower_unipotent_split_anchor():
    ok, (left, mid, right) = verify_lower_unipotent_split(Fraction(3), Fraction(2))
    assert ok
    prod = left * (mid * right)
    want = lower_unipotent2(Fraction(3, 2))
    assert prod.rows == want.rows


def test_lower_unipotent_split_random():
    rng = random.Random(61)
    for _ in range(100):
        u = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        w = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        if u == 0 or w == 0:
            continue
        ok, _ = verify_lower_unipotent_split(u, w)
        assert ok


def test_lower_unipotent_split_rejects_zero():
    with pytest.raises(ValueError):
        verify_lower_unipotent_split(Fraction(0), Fraction(1))


def test_3x3_factorization_anchor():
    """q = 3, n = 1, r = 1, w = 1 forces v = 2, u = 6."""
    inst = FactorizationInstance.make_consistent(3, 1, 1)
    assert inst.v == 2
    assert inst.w == 1
    report = verify_3x3_factorization(inst)
    assert report.identity_ok
    assert report.det_gamma_ok
    assert report.beta2_prime is not None


def test_3x3_factorization_random():
    rng = random.Random(815)
    count = 0
    while count < 60:
        q = rng.choice([2, 3, 4, 5, 6, 9])
        n = rng.randint(1, 4)
        r = rng.randint(1, 3 * q)
        from math import gcd

        if gcd(r, q) != 1 or gcd(n, q) != 1:
            continue
        w = rng.randint(1, 3)
        a_j = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a_k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        inst = FactorizationInstance.make_consistent(q, n, r, w, a_j, a_k)
        report = verify_3x3_factorization(inst)
        assert report.identity_ok, inst
        assert report.det_gamma_ok, inst
        count += 1


def test_3x3_factorization_custom_kappa():
    """The identity must hold for any invertible kappa; the determinant
    bookkeeping absorbs det(kappa)."""
    rng = random.Random(5150)
    inst = FactorizationInstance.make_consistent(3, 2, 1)
    for _ in range(20):
        kappa = _rand_invertible(rng)
        report = verify_3x3_factorization(inst, kappa=kappa)
        assert report.identity_ok
        assert report.det_gamma_ok


def test_factorization_instance_validation():
    with pytest.raises(ValueError):
        FactorizationInstance(q=3, n=1, r=3, v=2, w=1, a_j=Fraction(1), a_k=Fraction(1))
