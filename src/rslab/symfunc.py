"""Schur polynomials in three (and two) variables, plus Cauchy-type checks.

Two independent routes to the same Schur values are kept deliberately
separate: a determinant route (bialternant ratio, with a Jacobi-Trudi
determinant fallback at coincident points) and a combinatorial route that
enumerates semistandard tableaux.  Tests compare them pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .euler import EulerFactorPoly, expand_inverse
from .scalars import EXACT, check_mode, coerce, one, zero

#: largest first row accepted by the tableau enumerator (keeps the search small)
TABLEAU_ROW_LIMIT = 12


@dataclass(frozen=True)
class Partition3:
    """A partition with at most three parts."""

    l1: int
    l2: int = 0
    l3: int = 0

    def __post_init__(self):
        if not (self.l1 >= self.l2 >= self.l3 >= 0):
            raise ValueError(f"parts must be weakly decreasing and nonnegative: {self}")

    @property
    def parts(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)


def partitions3_of(d: int):
    """Yield all Partition3 of total size d."""
    for l1 in range(d, -1, -1):
        for l2 in range(min(l1, d - l1), -1, -1):
            l3 = d - l1 - l2
            if 0 <= l3 <= l2:
                yield Partition3(l1, l2, l3)


def complete_homogeneous(k: int, xs, mode: str = EXACT):
    """h_k(xs): sum of all degree-k monomials in the given variables."""
    check_mode(mode)
    xs = [coerce(x, mode) for x in xs]
    if k < 0:
        return zero(mode)
    if k == 0:
        return one(mode)
    if not xs:
        return zero(mode)
    # h_k(x1..xm) = sum_j x1^j * h_{k-j}(x2..xm), iteratively by variable
    table = [one(mode)] + [zero(mode)] * k
    for x in xs:
        for deg in range(1, k + 1):
            table[deg] = table[deg] + x * table[deg - 1]
    return table[k]


def elementary_symmetric(k: int, xs, mode: str = EXACT):
    """e_k(xs): sum of all squarefree degree-k monomials."""
    check_mode(mode)
    xs = [coerce(x, mode) for x in xs]
    if k < 0 or k > len(xs):
        return zero(mode)
    table = [one(mode)] + [zero(mode)] * k
    for x in xs:
        for deg in range(min(k, len(xs)), 0, -1):
            table[deg] = table[deg] + x * table[deg - 1]
    return table[k]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def schur3_jacobi_trudi(lam: Partition3, alphas, mode: str = EXACT):
    """s_lam via the 3x3 determinant of complete homogeneous polynomials."""
    alphas = [coerce(a, mode) for a in alphas]
    if len(alphas) != 3:
        raise ValueError("expected exactly three variables")
    rows = []
    for i, li in enumerate(lam.parts):
        rows.append([complete_homogeneous(li - i + j, alphas, mode) for j in range(3)])
    return _det3(rows)


def schur3_bialternant(lam: Partition3, alphas, mode: str = EXACT):
    """s_lam as a ratio of alternants; requires pairwise distinct variables."""
    a = [coerce(x, mode) for x in alphas]
    if len(a) != 3:
        raise ValueError("expected exactly three variables")
    exps = (lam.l1 + 2, lam.l2 + 1, lam.l3)
    num = _det3([[ai**e for e in exps] for ai in a])
    den = (a[0] - a[1]) * (a[0] - a[2]) * (a[1] - a[2])
    if den == 0:
        raise ZeroDivisionError("bialternant needs pairwise distinct variables")
    return num / den


def schur3(lam: Partition3, alphas, mode: str = EXACT):
    """Schur polynomial s_lam(a1, a2, a3).

    Uses the alternant ratio when the variables are safely distinct and the
    Jacobi-Trudi determinant otherwise (always, in float mode, when two
    variables are within 1e-6 of each other relative to their size).
    """
    check_mode(mode)
    a = [coerce(x, mode) for x in alphas]
    if len(a) != 3:
        raise ValueError("expected exactly three variables")
    if mode == EXACT:
        distinct = a[0] != a[1] and a[0] != a[2] and a[1] != a[2]
    else:
        scale = max(1.0, *(abs(x) for x in a))
        distinct = min(abs(a[0] - a[1]), abs(a[0] - a[2]), abs(a[1] - a[2])) > 1e-6 * scale
    if distinct:
        return schur3_bialternant(lam, a, mode)
    return schur3_jacobi_trudi(lam, a, mode)


def schur3_tableau(lam: Partition3, alphas, mode: str = EXACT):
    """s_lam by direct enumeration of semistandard tableaux with entries 1..3.

    Independent of the determinant routes; exponential in the shape, so the
    first row is capped at TABLEAU_ROW_LIMIT.
    """
    check_mode(mode)
    a = [coerce(x, mode) for x in alphas]
    if len(a) != 3:
        raise ValueError("expected exactly three variables")
    if lam.l1 > TABLEAU_ROW_LIMIT:
        raise ValueError(f"first row {lam.l1} exceeds the enumeration cap {TABLEAU_ROW_LIMIT}")
    shape = [li for li in lam.parts if li > 0]
    if not shape:
        return one(mode)
    rows = len(shape)
    total = zero(mode)
    # fill cells row-major; entry must be >= left neighbour and > the cell above
    entries: list[list[int]] = [[0] * shape[r] for r in range(rows)]

    def fill(r: int, c: int, acc):
        nonlocal total
        if r == rows:
            total += acc
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, entries[r][c - 1])
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, entries[r - 1][c] + 1)
        for v in range(lo, 4):
            entries[r][c] = v
            fill(nr, nc, acc * a[v - 1])

    fill(0, 0, one(mode))
    return total


def schur_gl2(f: int, g1, g2, mode: str = EXACT):
    """s_(f,0)(g1, g2) = (g1^(f+1) - g2^(f+1)) / (g1 - g2), i.e. h_f in two variables."""
    check_mode(mode)
    if f < 0:
        return zero(mode)
    g1 = coerce(g1, mode)
    g2 = coerce(g2, mode)
    if mode == EXACT:
        if g1 == g2:
            return (f + 1) * g1**f
    else:
        scale = max(1.0, abs(g1), abs(g2))
        if abs(g1 - g2) <= 1e-6 * scale:
            # the ratio form cancels catastrophically near the diagonal
            return complete_homogeneous(f, [g1, g2], mode)
    return (g1 ** (f + 1) - g2 ** (f + 1)) / (g1 - g2)


def schur_two_row(a: int, b: int, g1, g2, mode: str = EXACT):
    """s_(a,b)(g1, g2) = (g1*g2)^b * h_(a-b)(g1, g2) for a >= b >= 0."""
    if a < b or b < 0:
        raise ValueError(f"need a >= b >= 0, got ({a}, {b})")
    g1 = coerce(g1, mode)
    g2 = coerce(g2, mode)
    return (g1 * g2) ** b * schur_gl2(a - b, g1, g2, mode)


def _six_factor_expansion(alphas, gammas, kmax: int, mode: str):
    """Power-series coefficients of prod_{i,j} (1 - a_i g_j X)^(-1) up to X^kmax."""
    roots = [ai * gj for ai in alphas for gj in gammas]
    return expand_inverse(EulerFactorPoly.from_roots_inverse(roots, mode), kmax)


def cauchy_check(alphas, gammas, kmax: int, mode: str = EXACT):
    """Gradewise residuals of the Cauchy identity for 3 x 2 variables.

    Degree-d coefficient of prod 1/(1 - a_i g_j X) minus
    sum over two-row partitions (l1, l2) of size d of s_lam(a) * s_lam(g).
    Returns the list of residuals for d = 0..kmax.
    """
    check_mode(mode)
    a = [coerce(x, mode) for x in alphas]
    g = [coerce(x, mode) for x in gammas]
    if len(a) != 3 or len(g) != 2:
        raise ValueError("expected three alphas and two gammas")
    lhs = _six_factor_expansion(a, g, kmax, mode)
    residuals = []
    for d in range(kmax + 1):
        rhs = zero(mode)
        for l1 in range(d, -1, -1):
            l2 = d - l1
            if l2 > l1:
                continue
            rhs += schur3(Partition3(l1, l2, 0), a, mode) * schur_two_row(l1, l2, g[0], g[1], mode)
        residuals.append(lhs[d] - rhs)
    return residuals


def two_row_coeff(k: int, alphas, gammas, mode: str = EXACT):
    """sum over 2*k1 + k2 = k of s_(k1+k2, k1, 0)(a) * (g1 g2)^k1 * h_k2(g).

    The reindexing lam = (k1 + k2, k1) of the two-row Cauchy sum in degree k.
    """
    check_mode(mode)
    a = [coerce(x, mode) for x in alphas]
    g1 = coerce(gammas[0], mode)
    g2 = coerce(gammas[1], mode)
    acc = zero(mode)
    for k1 in range(k // 2 + 1):
        k2 = k - 2 * k1
        acc += (
            schur3(Partition3(k1 + k2, k1, 0), a, mode)
            * (g1 * g2) ** k1
            * schur_gl2(k2, g1, g2, mode)
        )
    return acc


def cauchy_two_row_check(alphas, gammas, kmax: int, mode: str = EXACT):
    """Residuals of the reindexed (k1, k2) form against the 6-factor expansion."""
    check_mode(mode)
    a = [coerce(x, mode) for x in alphas]
    g = [coerce(x, mode) for x in gammas]
    if len(a) != 3 or len(g) != 2:
        raise ValueError("expected three alphas and two gammas")
    lhs = _six_factor_expansion(a, g, kmax, mode)
    return [lhs[k] - two_row_coeff(k, a, g, mode) for k in range(kmax + 1)]
