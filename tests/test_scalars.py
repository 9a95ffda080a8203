"""Exact scalar arithmetic: field, towers, roots, and the vanishing identities."""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, strategies as st

from heckeclifford import kernels
from heckeclifford.scalars import (
    CycField,
    FieldElem,
    NotInvertibleError,
    ScalarModel,
    Tower,
    cyclotomic_polynomial,
    discriminant,
    q_of,
    adjacent_pair_vanishing,
)


def numeric_value(x, dps=40):
    """Complex value of a field or tower element at zeta = exp(2*pi*i/4l).

    Each tower root r_k is the principal square root of its discriminant.
    An independent cross-check of the exact arithmetic, never a proof.
    """
    with mpmath.workdps(dps):
        if isinstance(x, FieldElem):
            z = mpmath.exp(2j * mpmath.pi / x.field.root_order)
            nums, den = x.raw
            acc = mpmath.mpc(0)
            for k in range(len(nums) - 1, -1, -1):
                acc = acc * z + nums[k]
            return acc / den
        roots = [mpmath.sqrt(numeric_value(d, dps)) for d in x.tower.discs]
        acc = mpmath.mpc(0)
        for b, a in enumerate(x.coords):
            term = numeric_value(a, dps)
            for k in range(len(roots)):
                if b >> k & 1:
                    term *= roots[k]
            acc += term
        return acc


def numeric_is_zero(x, tol=1e-20, dps=40):
    with mpmath.workdps(dps):
        return abs(numeric_value(x, dps)) < tol


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomial_degree_is_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)

    for n in [2, 3, 4, 6, 9, 16, 20, 24, 30]:
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n)


def test_cyclotomic_polynomial_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_field_basic_identities():
    for l in range(2, 7):
        f = CycField.for_l(l)
        z = f.q
        assert z ** (4 * l) == f.one
        assert z ** (2 * l) == -f.one
        assert f.sqrt_minus1 * f.sqrt_minus1 == -f.one
        assert f.q * f.q_inv == f.one


def test_field_inverse_random():
    rng = random.Random(7)
    for l in (2, 3, 5):
        f = CycField.for_l(l)
        for _ in range(20):
            nums = [rng.randint(-9, 9) for _ in range(f.degree)]
            if not any(nums):
                continue
            x = f.elem(nums, rng.randint(1, 12))
            assert x * x.inverse() == f.one


def test_field_inverse_of_zero_raises():
    f = CycField.for_l(2)
    with pytest.raises(NotInvertibleError):
        f.zero.inverse()
    for l in range(2, 9):
        f = CycField.for_l(l)
        with pytest.raises(NotInvertibleError):
            f.raw_inverse(f.zero.raw)


def test_rational_zero_denominator_raises():
    f = CycField.for_l(2)
    for p in (3, 0, -1):
        with pytest.raises(ZeroDivisionError):
            f.rational(p, 0)
    assert f.rational(3, -6) == f.rational(-1, 2)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def euclid_inverse(field, raw):
    """Reference inverse: extended Euclid over Fractions against the modulus."""
    nums, den = raw
    r0 = [Fraction(c) for c in field.modulus]
    r1 = [Fraction(c) for c in nums]
    _poly_trim(r1)
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        # divide r0 by r1
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        for k in range(len(rem) - len(r1), -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            q[k] = c
            if c:
                for j, bj in enumerate(r1):
                    rem[k + j] -= c * bj
        _poly_trim(rem)
        r0, r1 = r1, rem
        # s update: s_new = s0 - q*s1
        qs = [Fraction(0)] * (len(q) + len(s1) - 1) if s1 else []
        for i, a in enumerate(q):
            if a:
                for j, b in enumerate(s1):
                    qs[i + j] += a * b
        new = [Fraction(0)] * max(len(s0), len(qs))
        for i, a in enumerate(s0):
            new[i] += a
        for i, a in enumerate(qs):
            new[i] -= a
        _poly_trim(new)
        s0, s1 = s1, new
    if not r1:
        raise NotInvertibleError("inverse of zero")
    c = r1[0]
    inv = [a / c * den for a in s1]
    inv += [Fraction(0)] * (field.degree - len(inv))
    common = 1
    for a in inv:
        common = common * a.denominator // gcd(common, a.denominator)
    return kernels.felem_normalize(
        [int(a * common) for a in inv[: field.degree]], common
    )


_BIG = st.integers(-(10**12), 10**12)
_COEFF = st.one_of(st.just(0), st.integers(-9, 9), _BIG)


@st.composite
def _element(draw, field):
    """General elements of field half the time, else monomials or rationals."""
    nums = [0] * field.degree
    kind = draw(st.sampled_from(["general", "general", "monomial", "rational"]))
    if kind == "general":
        nums = draw(st.lists(_COEFF, min_size=field.degree, max_size=field.degree))
    else:
        j = 0 if kind == "rational" else draw(st.integers(0, field.degree - 1))
        nums[j] = draw(_BIG.filter(bool))
    return field.elem(nums, draw(st.integers(1, 10**6)))


_FIELDS = st.integers(2, 8).map(CycField.for_l)
_NONZERO = _FIELDS.flatmap(lambda f: _element(f).filter(lambda x: not x.is_zero()))
_PAIRS = _FIELDS.flatmap(lambda f: st.tuples(_element(f), _element(f)))


def _conjugate(field, table, x):
    nums, den = x.raw
    out = [0] * field.degree
    for c, col in zip(nums, table):
        for i, t in col:
            out[i] += c * t
    return field.elem(out, den)


@given(_NONZERO)
def test_raw_inverse_matches_euclid_oracle(x):
    f = x.field
    inv = f.raw_inverse(x.raw)
    assert inv == euclid_inverse(f, x.raw)
    assert x * FieldElem(f, inv) == f.one


@given(_PAIRS)
def test_conjugations_are_field_automorphisms(pair):
    a, b = pair
    f = a.field
    assert len(f._conjugations) == f.degree - 1
    for k, table in f._conjugations.items():
        assert _conjugate(f, table, f.q) == f.zeta_pow(k)
        assert _conjugate(f, table, a * b) == _conjugate(f, table, a) * _conjugate(
            f, table, b
        )


@given(_NONZERO)
def test_norm_is_rational(x):
    f = x.field
    norm = x
    for table in f._conjugations.values():
        norm = norm * _conjugate(f, table, x)
    assert not any(norm.raw[0][1:])
    assert norm.raw[0][0] != 0


def test_q_of_endpoints():
    for l in range(2, 7):
        f = CycField.for_l(l)
        assert q_of(l, 0) == 2 * f.one
        assert q_of(l, l - 1) == -2 * f.one


def test_q_of_l2_via_power_identity():
    # q^3 + q^-3 == -(q + q^-1) for the primitive 8th root
    f = CycField.for_l(2)
    assert f.zeta_pow(3) + f.zeta_pow(-3) == -(f.q + f.q_inv)
    assert q_of(2, 1) == -2 * f.one


def test_q_of_l3_middle_vanishing():
    # q^3 is a square root of -1 for the primitive 12th root, so q^3+q^-3 = 0
    f = CycField.for_l(3)
    assert f.zeta_pow(3) * f.zeta_pow(3) == -f.one
    assert q_of(3, 1) == f.zero


def test_q_of_range_errors():
    with pytest.raises(ValueError):
        q_of(3, 3)
    with pytest.raises(ValueError):
        q_of(3, -1)
    with pytest.raises(ValueError):
        q_of(1, 0)


def test_q_of_is_cached_per_l_and_i():
    # FieldElem is immutable, so one object per (l, i) serves every caller;
    # the range checks still run on arguments the cache has not seen
    assert q_of(4, 1) is q_of(4, 1)
    assert discriminant(4, 1) == q_of(4, 1) * q_of(4, 1) * Fraction(1, 4) - 1
    for l, i in ((4, 4), (4, -1), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            q_of(l, i)


def test_q_of_numeric_cross_check():
    for l in (2, 3, 4, 5, 6):
        for i in range(l):
            x = q_of(l, i)
            with mpmath.workdps(40):
                z = mpmath.exp(2j * mpmath.pi / (4 * l))
                w = 2 * (z ** (2 * i + 1) + z ** -(2 * i + 1)) / (z + 1 / z)
                assert abs(numeric_value(x) - w) < 1e-20


def test_b_pm_at_ends_is_field_scalar():
    # the end discriminants vanish, so b_pm = q(i)/2 = +-1 adjoins nothing
    for l in (2, 3, 4):
        model = ScalarModel.for_indices(l, [0, l - 1])
        t = model.tower
        assert t.rank == 1
        for sign in (1, -1):
            assert model.b(0, sign) == t.one
            assert model.b(l - 1, sign) == -t.one


def test_b_pm_quadratic_and_product():
    for l in (3, 4, 5):
        for i in range(1, l - 1):
            model = ScalarModel.for_indices(l, [i])
            assert model.tower is Tower(model.field, (discriminant(l, i),))
            bp = model.b(i, 1)
            bm = model.b(i, -1)
            qi = q_of(l, i)
            assert bp * bm == bp.tower.one
            assert bp + bm == bp.tower.scalar(qi)
            assert bp * bp - qi * bp + 1 == bp.tower.zero


def test_tower_negative_power_raises():
    # towers have no division, so a negative exponent is refused
    t = Tower(CycField.for_l(3), (discriminant(3, 1),))
    with pytest.raises(ValueError):
        t.gen(0) ** -1


def test_zero_divisor_split_at_l3():
    # d_1 = -1 at l = 3, a square: r - q^3 is a nonzero zero divisor, and
    # splitting at r -> q^3 sends it to zero.
    f = CycField.for_l(3)
    d = discriminant(3, 1)
    assert d == -f.one
    model = ScalarModel.for_indices(3, [1])
    t = model.tower
    assert t is Tower(f, (d,))
    s = f.zeta_pow(3)
    x = t.gen(0) - t.scalar(s)
    assert not x.is_zero()
    assert (x * (t.gen(0) + t.scalar(s))).is_zero()
    sub, mapper = t.split(0, s)
    assert mapper(x).is_zero()
    # after splitting, b_plus(1) becomes q^3 = sqrt(-1)
    bp = model.b(1, 1)
    assert mapper(bp) == sub.scalar(f.zeta_pow(3))


def test_third_discriminant_rejected():
    from heckeclifford.scalars import ThirdDiscriminantError

    f = CycField.for_l(6)
    with pytest.raises(ThirdDiscriminantError):
        Tower(f, (discriminant(6, 1), discriminant(6, 2), -f.one))


def test_tower_dedupe_discs():
    # at l = 4 the two middle discriminants coincide
    f = CycField.for_l(4)
    assert discriminant(4, 1) == discriminant(4, 2)
    t = Tower.with_discs(f, [discriminant(4, 1), discriminant(4, 2)])
    assert t.rank == 2


def test_tower_rank4_arithmetic():
    model = ScalarModel.for_indices(5, [1, 2])
    f, t = model.field, model.tower
    assert t.rank == 4
    b1 = model.b(1, 1)
    b2 = model.b(2, 1)
    assert b1 * b2 == b2 * b1
    # 1/b_k is the other root q(k) - b_k
    inv = (t.scalar(q_of(5, 1)) - b1) * (t.scalar(q_of(5, 2)) - b2)
    assert (b1 * b2) * inv == t.one
    # numeric sanity on a random-ish combination
    x = b1 * b2 - b2 + t.scalar(f.xi)
    with mpmath.workdps(40):
        assert abs(numeric_value(x * x) - numeric_value(x) ** 2) < 1e-20


def test_adjacent_unit_identity():
    # xi^2 (q(i)q(j) - 4) / (q(j) - q(i))^2 == 1 for adjacent i, j
    for l in range(2, 7):
        f = CycField.for_l(l)
        for i in range(l - 1):
            j = i + 1
            qi, qj = q_of(l, i), q_of(l, j)
            val = f.xi * f.xi * (qi * qj - 4) * ((qj - qi) ** 2).inverse()
            assert val == f.one, (l, i, j)


def test_adjacent_pair_vanishing_identity():
    # the degree-8 combination vanishes exactly for |i-j| <= 1
    for l in range(2, 7):
        f = CycField.for_l(l)
        for i in range(l):
            for j in range(l):
                if abs(i - j) > 1:
                    continue
                model = ScalarModel.for_indices(l, [i, j])
                t = model.tower
                a = model.b(i, 1)
                b = model.b(j, 1)
                val = adjacent_pair_vanishing(a, b, t.scalar(f.xi), t.scalar(q_of(l, i)), t.scalar(q_of(l, j)))
                assert val.is_zero(), (l, i, j)


def test_distant_pair_control():
    # for a distant pair the expression should not vanish (negative control)
    l = 4
    f = CycField.for_l(l)
    i, j = 0, 2
    model = ScalarModel.for_indices(l, [i, j])
    t = model.tower
    a = model.b(i, 1)
    b = model.b(j, 1)
    val = adjacent_pair_vanishing(a, b, t.scalar(f.xi), t.scalar(q_of(l, i)), t.scalar(q_of(l, j)))
    assert not val.is_zero()


def test_numeric_mode_is_secondary():
    # numeric check agrees with the exact zero on a known identity
    f = CycField.for_l(3)
    x = (f.q + f.q_inv) * (f.q + f.q_inv).inverse() - f.one
    assert x.is_zero()
    assert numeric_is_zero(x)


def test_field_elem_fraction_ops():
    f = CycField.for_l(2)
    x = f.q * Fraction(3, 4) + Fraction(1, 2)
    assert x - Fraction(1, 2) == f.q * Fraction(3, 4)
    assert (x * 4 - 2) == 3 * f.q
