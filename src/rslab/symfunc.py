"""Schur polynomials in three (and two) variables, plus Cauchy-type checks.

Two independent routes to the same Schur values are kept deliberately
separate: a determinant route (bialternant ratio, with a Jacobi-Trudi
determinant fallback at coincident points) and a combinatorial route that
enumerates semistandard tableaux.  Tests compare them pointwise.

In exact mode every public function splits its inputs once into integer
numerators over one common denominator D (`_split`), runs on Python ints,
and returns one `Fraction` over D**degree (`_join`); that is exact because
each polynomial here is homogeneous.  The six-factor expansion that
`cauchy_check` compares against does not go through this module's split:
`euler` splits the six products a_i g_j on its own.
"""

from __future__ import annotations

from .euler import inverse_series
from .scalars import EXACT, coerce
from .scalars import join as _join
from .scalars import split as _split

#: largest first row accepted by the tableau enumerator (keeps the search small)
TABLEAU_ROW_LIMIT = 12


class Partition3:
    """A partition with at most three parts."""

    __slots__ = ("l1", "l2", "l3")

    def __init__(self, l1: int, l2: int = 0, l3: int = 0):
        self.l1, self.l2, self.l3 = l1, l2, l3
        if not (l1 >= l2 >= l3 >= 0):
            raise ValueError(f"parts must be weakly decreasing and nonnegative: {self}")

    @property
    def parts(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)

    def __eq__(self, other):
        return self.parts == other.parts if isinstance(other, Partition3) else NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition3(l1={self.l1!r}, l2={self.l2!r}, l3={self.l3!r})"


def partitions3_of(d: int):
    """Yield all Partition3 of total size d."""
    for l1 in range(d, -1, -1):
        for l2 in range(min(l1, d - l1), -1, -1):
            l3 = d - l1 - l2
            if 0 <= l3 <= l2:
                yield Partition3(l1, l2, l3)


def _split_pair(alphas, gammas, mode: str):
    """Three alphas and two gammas, split; a value of bidegree (k, k) joins
    over (D_alpha * D_gamma)**k."""
    a, da = _split(alphas, mode)
    g, dg = _split(gammas, mode)
    if len(a) != 3 or len(g) != 2:
        raise ValueError("expected three alphas and two gammas")
    return a, g, None if da is None else da * dg


def _split3(alphas, mode: str):
    a, d = _split(alphas, mode)
    if len(a) != 3:
        raise ValueError("expected exactly three variables")
    return a, d


def _divide(num, den):
    """num / den where den divides num: exact on ints (raising if a remainder
    is left), true division on complex values."""
    if not isinstance(num, int):
        return num / den
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{den} leaves the remainder {r} on {num}")
    return q


def _h(k: int, xs):
    if k < 0:
        return 0
    # h_k(x1..xm) = sum_j x1^j * h_{k-j}(x2..xm), iteratively by variable
    table = [1] + [0] * k
    for x in xs:
        for deg in range(1, k + 1):
            table[deg] = table[deg] + x * table[deg - 1]
    return table[k]


def elementary_symmetric(k: int, xs, mode: str = EXACT):
    """e_k(xs): sum of all squarefree degree-k monomials."""
    xs, d = _split(xs, mode)
    if k < 0 or k > len(xs):
        return _join(0, d, 0)
    table = [1] + [0] * k
    for x in xs:
        for deg in range(min(k, len(xs)), 0, -1):
            table[deg] = table[deg] + x * table[deg - 1]
    return _join(table[k], d, k)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _jacobi_trudi(lam: Partition3, a):
    return _det3([[_h(li - i + j, a) for j in range(3)] for i, li in enumerate(lam.parts)])


def _bialternant(lam: Partition3, a):
    exps = (lam.l1 + 2, lam.l2 + 1, lam.l3)
    num = _det3([[ai**e for e in exps] for ai in a])
    den = (a[0] - a[1]) * (a[0] - a[2]) * (a[1] - a[2])
    if den == 0:
        raise ZeroDivisionError("bialternant needs pairwise distinct variables")
    return _divide(num, den)


def _schur3(lam: Partition3, a, exact: bool):
    if exact:
        distinct = a[0] != a[1] and a[0] != a[2] and a[1] != a[2]
    else:
        scale = max(1.0, *(abs(x) for x in a))
        distinct = min(abs(a[0] - a[1]), abs(a[0] - a[2]), abs(a[1] - a[2])) > 1e-6 * scale
    return _bialternant(lam, a) if distinct else _jacobi_trudi(lam, a)


def schur3(lam: Partition3, alphas, mode: str = EXACT):
    """Schur polynomial s_lam(a1, a2, a3).

    Uses the alternant ratio when the variables are safely distinct and the
    Jacobi-Trudi determinant otherwise (always, in float mode, when two
    variables are within 1e-6 of each other relative to their size).
    """
    a, d = _split3(alphas, mode)
    return _join(_schur3(lam, a, d is not None), d, sum(lam.parts))


def schur3_tableau(lam: Partition3, alphas, mode: str = EXACT):
    """s_lam by direct enumeration of semistandard tableaux with entries 1..3.

    Independent of the determinant routes; exponential in the shape, so the
    first row is capped at TABLEAU_ROW_LIMIT.
    """
    a, d = _split3(alphas, mode)
    if lam.l1 > TABLEAU_ROW_LIMIT:
        raise ValueError(f"first row {lam.l1} exceeds the enumeration cap {TABLEAU_ROW_LIMIT}")
    shape = [li for li in lam.parts if li > 0]
    if not shape:
        return _join(1, d, 0)
    rows = len(shape)
    total = 0
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

    fill(0, 0, 1)
    return _join(total, d, sum(lam.parts))


def _gl2(f: int, g1, g2, exact: bool):
    if exact:
        if g1 == g2:
            return (f + 1) * g1**f
    else:
        scale = max(1.0, abs(g1), abs(g2))
        if abs(g1 - g2) <= 1e-6 * scale:
            # the ratio form cancels catastrophically near the diagonal
            return _h(f, [g1, g2])
    return _divide(g1 ** (f + 1) - g2 ** (f + 1), g1 - g2)


def _two_row(a: int, b: int, g1, g2, exact: bool):
    return (g1 * g2) ** b * _gl2(a - b, g1, g2, exact)


def cauchy_check(alphas, gammas, kmax: int, mode: str = EXACT):
    """Gradewise residuals of the Cauchy identity for 3 x 2 variables.

    Degree-d coefficient of prod 1/(1 - a_i g_j X) minus
    sum over two-row partitions (l1, l2) of size d of s_lam(a) * s_lam(g).
    Returns the list of residuals for d = 0..kmax.
    """
    a = [coerce(x, mode) for x in alphas]
    g = [coerce(x, mode) for x in gammas]
    lhs = inverse_series([ai * gj for ai in a for gj in g], kmax, mode)
    a, (g1, g2), dd = _split_pair(a, g, mode)
    exact = dd is not None
    residuals = []
    for d in range(kmax + 1):
        rhs = 0
        for l1 in range(d, -1, -1):
            l2 = d - l1
            if l2 > l1:
                continue
            rhs += _schur3(Partition3(l1, l2, 0), a, exact) * _two_row(l1, l2, g1, g2, exact)
        residuals.append(lhs[d] - _join(rhs, dd, d))
    return residuals
