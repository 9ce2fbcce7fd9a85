"""Rational 2x2 matrix helpers, double-coset canonical forms, and the
block factorization identities used for the level computations."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from rslab.arith import factorize, valuation
from rslab.matid import (
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


# -- Mat against a plain-Fraction reference ---------------------------------


def _ref_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_det(a):
    """Laplace expansion along the first row: no elimination, no pivots."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _ref_det([r[:j] + r[j + 1:] for r in a[1:]])
               for j in range(len(a)))


def _ref_inverse(a):
    """Adjugate over determinant, from cofactors."""
    n, d = len(a), _ref_det(a)
    if n == 1:
        return [[1 / d]]

    def minor(i, j):
        return [r[:j] + r[j + 1:] for k, r in enumerate(a) if k != i]

    return [[(-1) ** (i + j) * _ref_det(minor(j, i)) / d for j in range(n)] for i in range(n)]


def _ref_block_diag(blocks):
    size = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, r in enumerate(b):
            out[off + i][off:off + len(r)] = r
        off += len(b)
    return out


def _rand_rows(rng, n, m):
    """Random rationals with zeros, whole zero rows and shared denominators."""
    den = rng.choice([1, 2, 6, 35])
    rows = [[Fraction(rng.randint(-12, 12), rng.choice([1, den, rng.randint(1, 9)]))
             if rng.random() < 0.8 else Fraction(0) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.2:
        rows[rng.randrange(n)] = [Fraction(0)] * m
    return rows


def _in_lowest_terms(m):
    entries = [x for r in m.rows for x in r]
    assert all(x.denominator > 0 and gcd(x.numerator, x.denominator) == 1 for x in entries)
    # the stored pair is canonical too, which is what makes == and hash exact
    assert m.den > 0 and gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert m.den == lcm(*(x.denominator for x in entries))


@pytest.mark.parametrize("seed", range(4))
def test_mat_matches_fraction_reference(seed):
    rng = random.Random(seed)
    shapes = [(2, 2), (3, 3), (2, 3), (3, 2), (1, 3), (1, 1)]
    for _ in range(60):
        n, k = rng.choice(shapes)
        m = rng.choice([1, 2, 3])
        a, b = _rand_rows(rng, n, k), _rand_rows(rng, k, m)
        A, B = Mat(a), Mat(b)
        assert A.rows == tuple(map(tuple, a)) and A.shape == (n, k)
        assert all(A[i, j] == a[i][j] for i in range(n) for j in range(k))
        assert A.row(n - 1) == tuple(a[n - 1])
        assert A.is_integral() == all(x.denominator == 1 for r in a for x in r)
        _in_lowest_terms(A)

        AB = A * B
        assert AB.rows == tuple(map(tuple, _ref_mul(a, b)))
        assert AB == Mat(_ref_mul(a, b)) and hash(AB) == hash(Mat(_ref_mul(a, b)))
        _in_lowest_terms(AB)
        for s in (Fraction(rng.randint(-9, -1), rng.randint(1, 7)), -3, 0, Fraction(5, 2)):
            want = tuple(tuple(s * x for x in r) for r in a)
            assert (s * A).rows == want and (A * s).rows == want
            assert s * A == A * s == Mat(want)
            _in_lowest_terms(s * A)

        # equal matrices reached by different routes compare and hash equal
        back = (Fraction(1, 7) * (A * 7))
        assert back == A and hash(back) == hash(A)
        if any(x for r in a for x in r):
            i, j = next((i, j) for i in range(n) for j in range(k) if a[i][j])
            other = [list(r) for r in a]
            other[i][j] = -other[i][j]
            assert Mat(other) != A
        if (n, k) == (2, 2):  # the same entries in another shape
            assert A != Mat([a[0] + a[1]])

        # det and inverse are the 2x2 closed forms; any other shape is refused
        if (n, k) != (2, 2):
            with pytest.raises(ValueError):
                A.det()
            with pytest.raises(ValueError):
                A.inverse()
        elif _ref_det(a) == 0:
            assert A.det() == 0
            with pytest.raises(ZeroDivisionError):
                A.inverse()
        else:
            assert A.det() == _ref_det(a)
            inv = A.inverse()
            assert inv.rows == tuple(map(tuple, _ref_inverse(a)))
            _in_lowest_terms(inv)
        if n != k:
            continue
        c = _rand_rows(rng, 2, 2)
        D = A.block_diag(Mat(c), Mat.identity(1))
        want = _ref_block_diag([a, c, [[Fraction(1)]]])
        assert D.rows == tuple(map(tuple, want)) and D == Mat(want)
        _in_lowest_terms(D)


def test_mat_rejects_ragged_and_non_square_blocks():
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat([])
    with pytest.raises(ValueError):
        Mat.identity(2).block_diag(Mat([[1, 2]]))
    with pytest.raises(ValueError):
        Mat.identity(2) * Mat.identity(3)


@pytest.mark.parametrize("bad", [0.1, "1/2", 1 + 0j])
def test_mat_refuses_entries_and_scalars_that_are_not_rational(bad):
    """Only ints and Fractions enter a Mat: a float is not silently turned
    into its binary value, nor a str parsed, as an entry or as a scalar."""
    with pytest.raises(TypeError):
        Mat([[bad, 0], [0, 1]])
    with pytest.raises(TypeError):
        Mat.identity(2) * bad
    with pytest.raises(TypeError):
        bad * Mat.identity(2)


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


@pytest.mark.parametrize("u, w", [(0.1, 1), (1, 0.5), (Fraction(1, 3), 2.0), ("1/3", 2)])
def test_lower_unipotent_split_rejects_non_rationals(u, w):
    """A float would enter the exact matrices as its binary value (0.1 as
    3602879701896397/2**55), and the split would still verify."""
    with pytest.raises(TypeError):
        verify_lower_unipotent_split(u, w)


def test_lower_unipotent_split_takes_ints():
    ok, (_, mid, _) = verify_lower_unipotent_split(3, 2)
    assert ok and mid == Mat.diag(2, Fraction(1, 2))


@pytest.mark.parametrize("g1, g2", [(0.5, 4.0), (Fraction(5), 0.25), (10.0, Fraction(1, 25))])
def test_coset_in_support_rejects_floats(g1, g2):
    with pytest.raises(TypeError):
        coset_in_support(g1, g2, CosetContext(2, 3, 5))


def test_coset_in_support_takes_ints():
    ctx = CosetContext(5, 3, 7)
    assert coset_in_support(10, 1, ctx) is True
    assert coset_in_support(1, 1, ctx) is False


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
    # a float scale parameter is refused, not read as its binary value
    for make in (lambda: FactorizationInstance(3, 1, 1, 2, 1, 0.1, 1),
                 lambda: FactorizationInstance(3, 1, 1, 2, 1, 1, 0.1),
                 lambda: FactorizationInstance.make_consistent(3, 1, 1, 1, 0.1, 1)):
        with pytest.raises(TypeError, match="expected an int or a Fraction, got float"):
            make()
