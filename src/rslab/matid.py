"""Exact rational matrices, coset reduction, and two matrix factorizations.

The reduction writes any invertible 2x2 rational matrix M as
u * M * g = [[g1*g2, 0], [g1*alpha, g1]] with u upper unipotent, g an
integral matrix of determinant +-1, and g1, g2 > 0 uniquely determined.
The 3x3 factorization is the exact bookkeeping identity behind a
functional-equation reflection; both sides are multiplied out and compared
entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .arith import frac_gcd, is_prime, xgcd


def _rational(x):
    """x itself if it is an int or a Fraction; anything else, a float
    included, raises TypeError rather than being converted."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"a matrix entry or scalar must be an int or a Fraction, got {type(x).__name__} {x!r}")


class Mat:
    """Immutable matrix over Q, held as integer numerators over one positive
    common denominator in lowest terms: entry (i, j) is num[i][j] / den and
    gcd(den, every numerator) = 1, so equal matrices have equal (num, den)."""

    __slots__ = ("num", "den")

    def __init__(self, rows):
        # ints and Fractions both carry numerator and denominator
        rs = [[_rational(x) for x in row] for row in rows]
        if not rs or any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("matrix rows must be nonempty and of equal length")
        # the lcm of lowest-terms denominators is already coprime to the numerators
        den = lcm(*(x.denominator for r in rs for x in r))
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rs)
        self.den = den

    @classmethod
    def _make(cls, num, den: int) -> "Mat":
        """The matrix num / den for integer rows num and den != 0, reduced."""
        g = gcd(den, *(x for r in num for x in r))
        if den < 0:
            g = -g
        m = object.__new__(cls)
        m.num = tuple(tuple(x // g for x in r) for r in num)
        m.den = den // g
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._make([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def diag(cls, *entries) -> "Mat":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in r) for r in self.num)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.num), len(self.num[0]))

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num[i])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.shape[1] != other.shape[0]:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            cols = tuple(zip(*other.num))
            num = [[sum(map(mul, r, c)) for c in cols] for r in self.num]
            return Mat._make(num, self.den * other.den)
        x = _rational(other)
        return Mat._make([[x.numerator * a for a in r] for r in self.num],
                         x.denominator * self.den)

    __rmul__ = __mul__  # scalars commute with every entry

    def __eq__(self, other):
        return isinstance(other, Mat) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, self.num))

    def det(self) -> Fraction:
        """Bareiss' fraction-free elimination on the numerators: every
        division is exact, and det = det(num) / den^n."""
        n, m = self.shape
        if n != m:
            raise ValueError("determinant needs a square matrix")
        a = [list(r) for r in self.num]
        sign, prev = 1, 1
        for k in range(n - 1):
            piv = next((r for r in range(k, n) if a[r][k]), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            akk, rk = a[k][k], a[k]
            for r in range(k + 1, n):
                ar, ark = a[r], a[r][k]
                for c in range(k + 1, n):
                    ar[c] = (akk * ar[c] - ark * rk[c]) // prev
            prev = akk
        return Fraction(sign * a[n - 1][n - 1], self.den**n)

    def inverse(self) -> "Mat":
        """Fraction-free Gauss-Jordan on [num | I]: it ends at [d I | d num^-1]
        with d = +-det(num), so the inverse is den * (d num^-1) / d."""
        n, m = self.shape
        if n != m:
            raise ValueError("inverse needs a square matrix")
        a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.num)]
        prev = 1
        for k in range(n):
            piv = next((r for r in range(k, n) if a[r][k]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            akk, rk = a[k][k], a[k]
            for r in range(n):
                if r != k:
                    ar, ark = a[r], a[r][k]
                    a[r] = [(akk * x - ark * y) // prev for x, y in zip(ar, rk)]
            prev = akk
        return Mat._make([[self.den * x for x in r[n:]] for r in a], prev)

    def is_integral(self) -> bool:
        return self.den == 1

    def block_diag(self, *others) -> "Mat":
        mats = (self,) + others
        if any(k.shape[0] != k.shape[1] for k in mats):
            raise ValueError("block_diag needs square blocks")
        den = lcm(*(k.den for k in mats))
        size = sum(k.shape[0] for k in mats)
        out, off = [], 0
        for k in mats:
            s = den // k.den
            for r in k.num:
                out.append([0] * off + [s * x for x in r] + [0] * (size - off - len(r)))
            off += len(k.num)
        return Mat._make(out, den)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Mat[{body}]"


def upper_unipotent2(x) -> Mat:
    return Mat([[1, x], [0, 1]])


def lower_unipotent2(x) -> Mat:
    return Mat([[1, 0], [x, 1]])


# -- coset reduction --------------------------------------------------------


@dataclass(frozen=True)
class CosetContext:
    """Fixes the target bottom-row slope alpha = q_prime * p_prime / p.

    p and p_prime are distinct primes with p coprime to q_prime."""

    p: int
    q_prime: int
    p_prime: int

    def __post_init__(self):
        if not is_prime(self.p) or not is_prime(self.p_prime):
            raise ValueError("p and p_prime must be prime")
        if self.p == self.p_prime or self.q_prime % self.p == 0 or self.q_prime < 1:
            raise ValueError("need p distinct from p_prime and coprime to q_prime")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.q_prime * self.p_prime, self.p)


@dataclass(frozen=True)
class CanonicalCoset:
    gamma1: Fraction
    gamma2: Fraction
    u: Mat
    g: Mat
    ctx: CosetContext

    def canonical_matrix(self) -> Mat:
        g1, g2, a = self.gamma1, self.gamma2, self.ctx.alpha
        return Mat([[g1 * g2, 0], [g1 * a, g1]])


def coset_reduce(M: Mat, ctx: CosetContext) -> CanonicalCoset:
    """Reduce M in GL_2(Q) to the canonical coset form.

    Returns gamma1, gamma2 > 0 together with witnesses u (upper unipotent)
    and g (integral, det +-1) such that u*M*g is the canonical matrix."""
    if M.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    detM = M.det()
    if detM == 0:
        raise ValueError("matrix must be invertible")
    c, d = M.row(1)
    h = frac_gcd(c, d)
    assert h > 0
    gamma1 = ctx.p * h
    ct, dt = c / h, d / h
    assert ct.denominator == 1 and dt.denominator == 1
    ct, dt = int(ct), int(dt)
    g0, x, y = xgcd(ct, dt)
    assert g0 == 1, "bottom row lost coprimality"
    m = ctx.q_prime * ctx.p_prime
    eps = 1 if detM > 0 else -1
    g1, xp, ym = xgcd(ctx.p, m)
    assert g1 == 1
    s, t = eps * xp, -eps * ym
    A, C = m * x + s * dt, m * y - s * ct
    B, D = ctx.p * x + t * dt, ctx.p * y - t * ct
    g = Mat([[A, B], [C, D]])
    assert g.det() == eps
    Mg = M * g
    assert Mg.row(1) == (gamma1 * ctx.alpha, gamma1)
    u = upper_unipotent2(-Mg[0, 1] / gamma1)
    gamma2 = eps * detM / gamma1**2
    out = CanonicalCoset(gamma1, gamma2, u, g, ctx)
    assert (u * Mg) == out.canonical_matrix()
    return out


def coset_in_support(gamma1: Fraction, gamma2: Fraction, ctx: CosetContext) -> bool:
    """Whether the reduced coset can contribute: gamma1 in p*Z and
    gamma2 in p^{-2}*Z (so at worst a p^2 denominator, integral elsewhere).
    Each must be an int or a Fraction; a float raises TypeError."""
    g1, g2 = Fraction(_rational(gamma1)), Fraction(_rational(gamma2))
    if g1 == 0 or g2 == 0:
        raise ValueError("parameters must be nonzero")
    p = ctx.p
    return (g1 / p).denominator == 1 and (g2 * p * p).denominator == 1


def verify_lower_unipotent_split(uval, wval) -> tuple[bool, tuple[Mat, Mat, Mat]]:
    """Split [[1,0],[u/w,1]] as [[1,w/u],[0,1]] * diag(w,1/w) * [[0,-1/u],[u,w]].

    Holds for any nonzero rationals u, w (ints or Fractions; a float raises
    TypeError); the last factor has determinant 1.
    Returns the verification flag and the three factors."""
    u, w = Fraction(_rational(uval)), Fraction(_rational(wval))
    if u == 0 or w == 0:
        raise ValueError("u and w must be nonzero")
    left = upper_unipotent2(w / u)
    mid = Mat.diag(w, 1 / w)
    right = Mat([[0, -1 / u], [u, w]])
    ok = (left * mid * right) == lower_unipotent2(u / w) and right.det() == 1
    return ok, (left, mid, right)


# -- the 3x3 reflection identity --------------------------------------------


@dataclass(frozen=True)
class FactorizationInstance:
    """Integer data feeding the 3x3 identity.

    q, n >= 1 with gcd(n, q) = 1; beta2 = r/q with gcd(r, q) = 1;
    v satisfies n*r*v = -1 mod q (v != 0); u = q*v*w for an integer w.
    a_j, a_k are nonzero scale parameters (1 in the rational setting)."""

    q: int
    n: int
    r: int
    v: int
    w: int
    a_j: Fraction = Fraction(1)
    a_k: Fraction = Fraction(1)

    def __post_init__(self):
        if self.q < 1 or self.n < 1:
            raise ValueError("q and n must be positive")
        if gcd(self.n, self.q) != 1:
            raise ValueError("n must be coprime to q")
        if self.q > 1 and gcd(self.r, self.q) != 1:
            raise ValueError("r must be coprime to q")
        if (self.n * self.r * self.v + 1) % self.q != 0:
            raise ValueError("need n*r*v = -1 mod q")
        if self.v == 0:
            raise ValueError("v must be nonzero")
        if self.a_j == 0 or self.a_k == 0:
            raise ValueError("scale parameters must be nonzero")

    @classmethod
    def make_consistent(cls, q: int, n: int, r: int, w: int = 1,
                        a_j=Fraction(1), a_k=Fraction(1)) -> "FactorizationInstance":
        """Solve for the smallest admissible v > 0 and build the instance."""
        if q == 1:
            v = 1
        else:
            v = (-pow(n * r, -1, q)) % q
            if v == 0:
                v = q
        return cls(q, n, r, v, w, Fraction(a_j), Fraction(a_k))

    @property
    def beta2(self) -> Fraction:
        return Fraction(self.r, self.q)

    @property
    def u(self) -> int:
        return self.q * self.v * self.w

    def default_kappa(self) -> Mat:
        # upper triangular with kappa * (u, v/q)^t proportional to (0, *)^t
        return Mat([[1, Fraction(-self.u * self.q, self.v)], [0, 1]])


@dataclass(frozen=True)
class FactorizationReport:
    identity_ok: bool
    beta1_prime: Fraction
    beta2_prime: Fraction
    det_gamma_ok: bool
    kappa_in_level: bool
    inclusion_ok: bool
    r_matrix_integral: bool
    notes: tuple[str, ...]

    @property
    def all_side_conditions(self) -> bool:
        return (
            self.identity_ok
            and self.beta1_prime == 0
            and self.det_gamma_ok
            and self.kappa_in_level
            and self.inclusion_ok
            and self.r_matrix_integral
        )


def verify_3x3_factorization(inst: FactorizationInstance, kappa: Mat | None = None) -> FactorizationReport:
    """Multiply out both sides of the 3x3 reflection identity and compare.

    With D1 = diag(n*q/a_j, n*q^2) and D2 = diag(a_k, 1), any invertible
    kappa determines gamma = D1 * kappa^{-1} * D2^{-1} and
    (beta1', beta2') = D2 * kappa * (u, v/q); the identity then states

      (gamma^{-1} + 1) L(beta2) diag(n/a_j, n, 1)
        = q^{-1} U(-beta1', -beta2') diag(a_k,1,1) (kappa + 1) R,

    with L lower unipotent in the (3,2) slot, U upper unipotent in the
    third column, and R the explicit integral 3x3 matrix below.  Side
    conditions (kappa in the level-q^2 block, integrality of R, the level
    q^4 inclusion) are reported, not asserted."""
    q, n, r, v = inst.q, inst.n, inst.r, inst.v
    u = inst.u
    if kappa is None:
        kappa = inst.default_kappa()
    if kappa.shape != (2, 2) or kappa.det() == 0:
        raise ValueError("kappa must be an invertible 2x2 matrix")
    notes = []

    D1 = Mat.diag(Fraction(n * q) / inst.a_j, Fraction(n * q * q))
    D2 = Mat.diag(inst.a_k, Fraction(1))
    gamma = D1 * kappa.inverse() * D2.inverse()
    gamma_inv = gamma.inverse()

    bp = D2 * kappa * Mat([[Fraction(u)], [Fraction(v, q)]])
    beta1p, beta2p = bp[0, 0], bp[1, 0]
    # cross-check the second expression for beta'
    bp_alt = (n * q) * (gamma_inv * Mat([[Fraction(u) / inst.a_j], [Fraction(v)]]))
    if not (bp_alt[0, 0] == beta1p and bp_alt[1, 0] == beta2p):
        notes.append("beta' expressions disagree")

    L = Mat([[1, 0, 0], [0, 1, 0], [0, inst.beta2, 1]])
    lhs = gamma_inv.block_diag(Mat([[1]])) * L * Mat.diag(Fraction(n) / inst.a_j, n, 1)

    U = Mat([[1, 0, -beta1p], [0, 1, -beta2p], [0, 0, 1]])
    R = Mat(
        [
            [1, n * r * u, q * u],
            [0, Fraction(n * r * v + 1, q), v],
            [0, n * r, q],
        ]
    )
    rhs = Fraction(1, q) * (
        U * Mat.diag(inst.a_k, 1, 1) * kappa.block_diag(Mat([[1]])) * R
    )
    identity_ok = lhs == rhs

    # gamma = D1 kappa^{-1} D2^{-1}, so det kappa rescales det gamma
    det_gamma_ok = gamma.det() * kappa.det() == Fraction(n * n * q**3) / (inst.a_j * inst.a_k)

    q2 = q * q
    kappa_in_level = (
        kappa.is_integral()
        and (kappa[0, 0] - 1) % q2 == 0
        and (kappa[1, 1] - 1) % q2 == 0
        and kappa[0, 1] % q2 == 0
        and kappa[1, 0] % q2 == 0
    )

    T = Mat.diag(Fraction(1, q2), 1) * kappa * Mat.diag(q2, 1)
    q4 = q2 * q2
    inclusion_ok = (
        T.is_integral()
        and T[1, 0] % q4 == 0
        and (T[1, 1] - 1) % q4 == 0
        and abs(T.det()) == abs(kappa.det())
    )
    # the displayed inclusion equation itself
    lhs_inc = gamma_inv * Mat.diag(Fraction(q) / inst.a_j, 1)
    rhs_inc = Fraction(1, n * q2) * (Mat.diag(inst.a_k * q2, 1) * T)
    if lhs_inc != rhs_inc:
        notes.append("inclusion display equation fails")

    if not det_gamma_ok:
        notes.append("det(gamma) mismatch")
    if not identity_ok:
        notes.append("entrywise identity fails")

    return FactorizationReport(
        identity_ok=identity_ok,
        beta1_prime=beta1p,
        beta2_prime=beta2p,
        det_gamma_ok=det_gamma_ok,
        kappa_in_level=kappa_in_level,
        inclusion_ok=inclusion_ok,
        r_matrix_integral=R.is_integral(),
        notes=tuple(notes),
    )
