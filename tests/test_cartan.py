"""Cartan matrix, weights, pairings, and the quotient-defining polynomial."""

import random

import pytest

from heckeclifford.cartan import (
    Weight,
    cartan_matrix,
    f_lambda,
    pairing,
    parse_weight,
    weight_of_c,
)
from heckeclifford.scalars import CycField


def test_cartan_l2_is_rank1_affine():
    cd = cartan_matrix(2)
    assert cd.a == ((2, -2), (-2, 2))
    assert cd.c == (1, 1)


def test_cartan_l4_rows():
    cd = cartan_matrix(4)
    assert cd.a == (
        (2, -2, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -2, 2),
    )
    assert cd.c == (1, 2, 2, 1)


def test_cartan_l3_central_element():
    assert cartan_matrix(3).c == (1, 2, 1)


def test_cartan_invariants():
    for l in range(2, 9):
        cd = cartan_matrix(l)
        for i in range(l):
            assert cd.a[i][i] == 2
            for j in range(l):
                if i != j:
                    assert cd.a[i][j] in (0, -1, -2)
                    assert (cd.a[i][j] != 0) == (abs(i - j) == 1)
        # c^T a = 0
        for j in range(l):
            assert sum(cd.c[i] * cd.a[i][j] for i in range(l)) == 0


def test_cartan_rejects_l1():
    with pytest.raises(ValueError):
        cartan_matrix(1)


def test_pairing_basics():
    for l in (2, 3, 4):
        for i in range(l):
            assert pairing(i, Weight.fundamental(l, i)) == 1
            assert pairing(i, Weight.root(l, i)) == 2
    assert pairing(0, Weight.root(4, 1)) == -2


def test_parse_weight():
    w = parse_weight(3, "1,0,2")
    assert w.lam == (1, 0, 2)
    assert w.alpha == (0, 0, 0)
    for bad in ("1,0", "1,x,2", "1,-1,2"):
        with pytest.raises(ValueError):
            parse_weight(3, bad)


def test_f_lambda_fundamental_0():
    f = CycField.for_l(3)
    poly = f_lambda(Weight.fundamental(3, 0))
    assert len(poly) == 2
    assert poly[1] == f.one and poly[0] == -f.one
    assert weight_of_c(Weight.fundamental(3, 0)) == 1


def test_f_lambda_middle_at_l3():
    # X^2 - q(1)X + 1 = X^2 + 1 since q(1) = 0 at l = 3
    f = CycField.for_l(3)
    poly = f_lambda(Weight.fundamental(3, 1))
    assert [poly[0], poly[1], poly[2]] == [f.one, f.zero, f.one]
    assert weight_of_c(Weight.fundamental(3, 1)) == 2


def test_f_lambda_trivial():
    poly = f_lambda(Weight.zero(4))
    assert len(poly) == 1 and poly[0] == CycField.for_l(4).one


def test_f_lambda_degree_and_palindrome():
    # degree equals the pairing against c, and a_i = a_0 * a_{d-i}
    rng = random.Random(11)
    for _ in range(50):
        l = rng.randint(2, 5)
        lam = Weight(l, tuple(rng.randint(0, 3) for _ in range(l)), (0,) * l)
        poly = f_lambda(lam)
        d = len(poly) - 1
        assert d == weight_of_c(lam)
        f = CycField.for_l(l)
        assert poly[d] == f.one
        for i in range(d + 1):
            assert poly[i] == poly[0] * poly[d - i], (l, lam.lam, i)


def test_f_lambda_rejects_nondominant():
    with pytest.raises(ValueError):
        f_lambda(Weight(3, (1, -1, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        f_lambda(Weight(3, (1, 0, 0), (1, 0, 0)))
