"""The field kernels against Fraction polynomial arithmetic modulo Phi_4l."""

import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from heckeclifford import kernels
from heckeclifford.scalars import CycField, cyclotomic_polynomial

# numerator scales: machine words, past 2^62, and products past 2^127
_SCALES = (1, 2**62 + 1, 2**100 + 3)
_DEN = st.integers(1, 10**6)
_NONZERO = st.integers(-(10**6), 10**6).filter(bool)
_DIGIT = st.integers(-9, 9)


def _value(raw):
    nums, den = raw
    return [Fraction(x, den) for x in nums]


def _reduced_product(a, b, l):
    """a*b as Fraction or int polynomials, by long division modulo Phi_4l."""
    phi = cyclotomic_polynomial(4 * l)
    m = len(phi) - 1
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for t in range(2 * m - 2, m - 1, -1):
        c = conv[t]
        for k in range(m + 1):
            conv[t - m + k] -= c * phi[k]
    return conv[:m]


def _assert_canonical(raw, m):
    nums, den = raw
    assert isinstance(nums, tuple) and len(nums) == m
    assert den > 0
    assert gcd(*nums, den) == 1
    if not any(nums):
        assert raw == ((0,) * m, 1)
    assert kernels.felem_is_zero(raw) == (not any(nums))


@st.composite
def _numerators(draw, m):
    """Dense numerators, or a support of zero, one or two terms.

    Monomials and two-term elements are most operands in the module workloads.
    """
    scale = draw(st.sampled_from(_SCALES))
    terms = draw(st.sampled_from((None, 0, 1, 2)))
    if terms is None:
        return [draw(_DIGIT) * scale + draw(_DIGIT) for _ in range(m)]
    support = st.lists(st.integers(0, m - 1), min_size=terms, max_size=terms, unique=True)
    nums = [0] * m
    for k in draw(support):
        nums[k] = draw(_DIGIT.filter(bool)) * scale
    return nums


@st.composite
def _case(draw):
    l = draw(st.integers(2, 12))
    m = CycField.for_l(l).degree
    raws = [
        kernels.felem_normalize(draw(_numerators(m)), draw(_DEN)) for _ in range(3)
    ]
    nums, den = draw(_numerators(m)), draw(_NONZERO)
    p, q = draw(st.sampled_from(_SCALES)) * draw(_DIGIT), draw(_NONZERO)
    # a unit denominator, with numerators that may share a factor
    factor = draw(st.integers(1, 6))
    unit = ([x * factor for x in draw(_numerators(m))], draw(st.sampled_from((1, -1))))
    return l, raws, (nums, den), (p, q), unit


@given(_case())
def test_kernels_match_fraction_polynomial_arithmetic(case):
    l, (a, b, c), (nums, den), (p, q), (unit_nums, unit) = case
    product = CycField.for_l(l).product
    m = len(cyclotomic_polynomial(4 * l)) - 1
    va, vb, vc = _value(a), _value(b), _value(c)
    bc = _reduced_product(vb, vc, l)
    results = [
        (kernels.felem_normalize(nums, den), [Fraction(x, den) for x in nums]),
        (kernels.felem_normalize(unit_nums, unit), [x * unit for x in unit_nums]),
        (kernels.felem_add(a, b), [x + y for x, y in zip(va, vb)]),
        (kernels.felem_sub(a, b), [x - y for x, y in zip(va, vb)]),
        (kernels.felem_neg(a), [-x for x in va]),
        (kernels.felem_mul(b, c, product), bc),
        (kernels.felem_submul(a, b, c, product), [x - y for x, y in zip(va, bc)]),
        (kernels.felem_scale(a, p, q), [x * Fraction(p, q) for x in va]),
        # zero results
        (kernels.felem_sub(a, a), [0] * m),
        (kernels.felem_add(a, kernels.felem_neg(a)), [0] * m),
        (kernels.felem_submul(kernels.felem_mul(b, c, product), b, c, product), [0] * m),
        (kernels.felem_scale(a, 0, q), [0] * m),
    ]
    for raw, want in results:
        _assert_canonical(raw, m)
        assert _value(raw) == want


@pytest.mark.parametrize("l", range(2, 13))
def test_product_matches_long_division_on_every_block(l):
    """field.product against long division modulo Phi_4l, on every pair from
    zero, a rational, each monomial zeta^j and a dense element past 2^127.

    So each ``if a_i:`` block of the generated product runs both taken and
    skipped, and the monomial pairs reach every reduction row.
    """
    field = CycField.for_l(l)
    m = field.degree
    dense = tuple((-1) ** k * (k + 2) for k in range(m - 1)) + (2**127 + 1,)
    operands = [(0,) * m, (-3,) + (0,) * (m - 1), dense]
    operands += [tuple(int(k == j) for k in range(m)) for j in range(m)]
    for a in operands:
        for b in operands:
            assert field.product(a, b) == tuple(_reduced_product(a, b, l))


@pytest.mark.parametrize("l", range(2, 9))
def test_reduction_rows_list_the_nonzero_terms(l):
    """red[t] is x^(m+t) mod Phi_4l, by long division, as its nonzero (k, r_k)."""
    phi = cyclotomic_polynomial(4 * l)
    m = len(phi) - 1
    red = CycField.for_l(l).red
    assert len(red) == m - 1
    for t, row in enumerate(red):
        rem = [0] * (m + t) + [1]
        for top in range(m + t, m - 1, -1):
            c = rem[top]
            for k in range(m + 1):
                rem[top - m + k] -= c * phi[k]
        assert row == tuple((k, r) for k, r in enumerate(rem[:m]) if r)


def test_normalize_canonical_forms():
    assert kernels.felem_normalize([0, 0], 7) == ((0, 0), 1)
    assert kernels.felem_normalize([2, 4], -2) == ((-1, -2), 1)
    assert kernels.felem_normalize([3, 6], 12) == ((1, 2), 4)
    assert kernels.felem_normalize([3, 6], 1) == ((3, 6), 1)
    assert kernels.felem_normalize([3, 6], -1) == ((-3, -6), 1)
    # a negative norm reaches felem_scale as a negative denominator
    a = ((3, -6, 0, 9), 4)
    assert kernels.felem_scale(a, 2, -9) == kernels.felem_scale(a, -2, 9)
    assert kernels.felem_scale(a, 2, -9) == ((-1, 2, 0, -3), 6)


def test_selected_backend_exposed():
    assert kernels.BACKEND == "python"


def test_bench_kernels_runs_at_its_smallest_sizes():
    """benchmarks/bench_kernels.py reaches into supermodules' private engines.

    Loading it and running each helper at its smallest size keeps a refactor
    from breaking it unseen.
    """
    path = Path(__file__).parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    field = CycField.for_l(4)
    assert bench.bench_mul(field, n=10) >= 0
    assert bench.bench_mul(field, n=10, terms=2) >= 0
    seconds, inversions = bench.bench_eliminate(field, families=1)
    assert seconds >= 0 and inversions > 0
    times, declined = bench.bench_characters(bench.suite_modules(2))
    assert set(times) == {"exact", "mod-p"} and declined == 0
