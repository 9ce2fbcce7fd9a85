"""Property test of the exact zero test `cyclotomic.sum_is_zero` on sparse
exponent maps {k mod n: w_k}, with int and Fraction weights: random maps,
maps built to vanish (orbit sums of roots, multiples of the n-th
cyclotomic polynomial), and nonzero maps of tiny value.  It must agree with
dense reduction modulo the n-th cyclotomic polynomial (`cyclo_oracle`), and
a map its numeric prefilter cannot certify nonzero must reach the exact
descent (`cyclotomic._vanishes`)."""

from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rslab import cyclotomic  # noqa: E402
from rslab.arith import divisors  # noqa: E402
from rslab.cyclotomic import sum_is_zero  # noqa: E402

from cyclo_oracle import cyclotomic_poly, dense_is_zero  # noqa: E402

_weights = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
_nonzero_weights = _weights.filter(bool)


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, w in b.items():
        out[k] = out.get(k, 0) + w
    return out


@st.composite
def _zero_map(draw, n: int) -> dict:
    """w e(s/n) times the sum of the d-th roots of unity (d | n, d > 1), or
    w x^s Phi_n(x) folded mod x^n - 1: either way the sum at e(1/n) is 0."""
    w, s = draw(_nonzero_weights), draw(st.integers(0, n - 1))
    orders = [d for d in divisors(n) if d > 1]
    if orders and draw(st.booleans()):
        d = draw(st.sampled_from(orders))
        return {(s + j * (n // d)) % n: w for j in range(d)}
    out: dict = {}
    for i, c in enumerate(cyclotomic_poly(n)):
        k = (i + s) % n
        out[k] = out.get(k, 0) + w * c
    return out


@st.composite
def _case(draw):
    """(n, weights, kind): kind "zero" vanishes, "tiny" is nonzero of
    absolute value at most 1e-12, "sparse" is anything."""
    n = draw(st.integers(1, 90))
    kind = draw(st.sampled_from(["sparse", "zero", "tiny"]))
    sparse = st.dictionaries(st.integers(0, n - 1), _weights, max_size=8)
    if kind == "sparse":
        weights = _add(draw(sparse), draw(_zero_map(n))) if draw(st.booleans()) else draw(sparse)
    else:
        weights = _add(draw(_zero_map(n)), draw(_zero_map(n)))
        if kind == "tiny":
            eps = Fraction(draw(st.sampled_from([1, -1])), 10 ** draw(st.integers(12, 30)))
            weights = _add(weights, {draw(st.integers(0, n - 1)): eps})
    return n, weights, kind


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_case())
def test_sum_is_zero_agrees_with_exact_reduction(case):
    n, weights, kind = case
    with mock.patch.object(cyclotomic, "_vanishes", wraps=cyclotomic._vanishes) as spy:
        got = sum_is_zero(n, weights)
    assert got == dense_is_zero(n, weights), (n, weights)
    if kind == "zero":
        assert got
    if kind == "tiny":
        assert not got
    if kind != "sparse":
        # no numeric bound can certify these nonzero: the exact descent decides
        assert spy.called, (n, weights)
