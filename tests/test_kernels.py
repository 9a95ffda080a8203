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
def _numerators(draw, m, scales=_SCALES):
    """Dense numerators, or a support of zero, one or two terms.

    Monomials and two-term elements are most operands in the module workloads.
    """
    scale = draw(st.sampled_from(scales))
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


# -- the generated vector loops against the same loops over the felem_* kernels

def _ref_scale(v, c, product):
    if kernels.felem_is_zero(c):
        return {}
    out = {}
    for k, x in v.items():
        y = kernels.felem_mul(c, x, product)
        if not kernels.felem_is_zero(y):
            out[k] = y
    return out


def _ref_add_into(v, w):
    for k, x in w.items():
        cur = v.get(k)
        y = x if cur is None else kernels.felem_add(cur, x)
        if kernels.felem_is_zero(y):
            v.pop(k, None)
        else:
            v[k] = y


def _ref_submul_into(v, w, c, product):
    for k, x in w.items():
        cur = v.get(k)
        if cur is None:
            y = kernels.felem_neg(kernels.felem_mul(c, x, product))
        else:
            y = kernels.felem_submul(cur, c, x, product)
        if kernels.felem_is_zero(y):
            v.pop(k, None)
        else:
            v[k] = y


def _ref_mat_vec(cols, v, product):
    out = {}
    for j, c in v.items():
        for i, a in cols[j].items():
            prod = kernels.felem_mul(a, c, product)
            cur = out.get(i)
            y = prod if cur is None else kernels.felem_add(cur, prod)
            if kernels.felem_is_zero(y):
                out.pop(i, None)
            else:
                out[i] = y
    return out


# coefficients past 2^127 in the operands themselves; small denominators
# make equal ones common, and a unit one keeps the gcd-free path
_WIDE = (1, 2**62 + 1, 2**130 + 3)
_DENS = st.sampled_from((1, 2, 6)) | st.integers(1, 10**6)


@st.composite
def _loop_case(draw):
    """A field, vectors over indices 0..5 (possibly empty), a nonzero
    multiplier (often a monomial), a possibly zero one, and columns (some
    empty), with exact cancellations planted for each loop."""
    l = draw(st.integers(2, 12))
    field = CycField.for_l(l)
    m = field.degree

    @st.composite
    def element(draw, nonzero=True):
        nums = draw(_numerators(m, _WIDE))
        if nonzero and not any(nums):
            nums[draw(st.integers(0, m - 1))] = draw(_NONZERO)
        return kernels.felem_normalize(nums, draw(_DENS))

    vec = st.dictionaries(st.integers(0, 5), element(), max_size=6)
    v, w, c = draw(vec), draw(vec), draw(element())
    cancel = draw(st.sets(st.integers(0, 5)))
    # w_add cancels v, and c * w_sub equals v_sub, at the indices in cancel
    w_add = dict(w)
    w_add.update({k: kernels.felem_neg(v[k]) for k in cancel & v.keys()})
    v_sub = dict(v)
    v_sub.update({k: kernels.felem_mul(c, w[k], field.product) for k in cancel & w.keys()})
    # mat_vec: row 6 of columns j1 and j2 cancels in A v
    cols = [draw(vec) for _ in range(4)]
    x = draw(st.dictionaries(st.integers(0, 3), element(), max_size=4))
    if len(x) >= 2:
        j1, j2 = draw(st.permutations(sorted(x)))[:2]
        a = draw(element())
        cols[j1][6] = kernels.felem_mul(a, x[j2], field.product)
        cols[j2][6] = kernels.felem_neg(kernels.felem_mul(a, x[j1], field.product))
    return field, v, w_add, v_sub, w, c, draw(element(nonzero=False)), cols, x


def _assert_stored_canonical(vec, m):
    for raw in vec.values():
        _assert_canonical(raw, m)
        assert not kernels.felem_is_zero(raw)


@given(_loop_case())
def test_generated_loops_match_the_felem_loops(case):
    """field.scale, add_into, submul_into and mat_vec against the same loops
    over the scalar felem_* kernels: the same entries, in the same order,
    each canonical and none zero."""
    field, v, w_add, v_sub, w, c, c_any, cols, x = case
    m, product = field.degree, field.product
    got_add, want_add = dict(v), dict(v)
    field.add_into(got_add, w_add)
    _ref_add_into(want_add, w_add)
    got_sub, want_sub = dict(v_sub), dict(v_sub)
    field.submul_into(got_sub, w, c)
    _ref_submul_into(want_sub, w, c, product)
    results = [
        (field.scale(v, c), _ref_scale(v, c, product)),
        (field.scale(v, c_any), _ref_scale(v, c_any, product)),
        (got_add, want_add),
        (got_sub, want_sub),
        (field.mat_vec(cols, x), _ref_mat_vec(cols, x, product)),
    ]
    for got, want in results:
        assert list(got.items()) == list(want.items())
        _assert_stored_canonical(got, m)


class _Unguarded(int):
    """A coefficient that must never be truth-tested."""

    def __bool__(self):
        raise AssertionError("the product guarded on the wrong operand")


@pytest.mark.parametrize("l", [3, 8])
def test_generated_loops_guard_on_the_first_operand_of_felem_mul(l):
    """The product's ``if a_i:`` blocks run on the multiplier c in scale and
    submul_into and on the matrix entry in mat_vec, the first operand of
    felem_mul(c, x) and felem_mul(a, c) in the same loops over felem_*: the
    order that is fastest at degree 4.  Every entry runs its m guards; the
    other operand is never tested."""
    field = CycField.for_l(l)
    m = field.degree
    tests = []

    class Guarded(int):
        def __bool__(self):
            tests.append(self)
            return int(self) != 0

    def raw(kind, nums, den=1):
        return (tuple(kind(x) for x in nums), den)

    guarded = raw(Guarded, [k - 2 for k in range(m)], 3)
    row = {k: raw(_Unguarded, [k + 1] * m) for k in range(3)}
    runs = [
        lambda: field.product(guarded[0], row[0][0]),
        lambda: field.scale(row, guarded),
        lambda: field.submul_into({0: field.one_raw}, row, guarded),
        lambda: field.mat_vec([{i: guarded for i in range(3)}] * 3, row),
    ]
    for entries, run in zip((1, 3, 3, 9), runs):
        tests.clear()
        run()
        assert len(tests) >= m * entries


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
    assert bench.bench_submul_into(CycField.for_l(3), n=10) >= 0
    assert bench.bench_submul_into(CycField.for_l(3), n=10, terms=2) >= 0
    seconds, inversions = bench.bench_eliminate(field, families=1)
    assert seconds >= 0 and inversions > 0
    times, declined = bench.bench_characters(bench.suite_modules(2))
    assert set(times) == {"exact", "mod-p"} and declined == 0
