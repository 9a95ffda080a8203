"""The mod-p split behind formal_character: prime and root, and negative controls.

Each control builds a module on which the mod-p split alone would go wrong or
cannot run, and checks that formal_character returns the exact engine's
answer or error through its fallback.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckeclifford import kernels, modp, supermodules
from heckeclifford.grothendieck import WordSum
from heckeclifford.scalars import (
    CycField,
    FieldElem,
    ScalarModel,
    Tower,
    cyclotomic_polynomial,
)
from heckeclifford.supermodules import (
    MatrixSupermodule,
    _certified_word_dims,
    _kmat_from_rows,
    _op_x_plus_xinv,
    _word_dims,
    build_L,
    build_L_ij_star_L_i,
    formal_character,
    induce,
    verify_relations,
)


def _trial_division_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize("l", range(2, 11))
def test_prime_and_root(l):
    p, omega = modp.prime_and_root(l)
    m = 4 * l
    assert p < modp.PRIME_BOUND and p % m == 1 and _trial_division_prime(p)
    assert not any(
        _trial_division_prime(q) for q in range(p + m, modp.PRIME_BOUND, m)
    )
    order = next(d for d in range(1, m + 1) if pow(omega, d, p) == 1)
    assert order == m
    phi = cyclotomic_polynomial(m)
    assert sum(c * pow(omega, j, p) for j, c in enumerate(phi)) % p == 0


@pytest.mark.parametrize("l", range(2, 11))
def test_reduction_is_a_ring_map(l):
    field = CycField.for_l(l)
    res = modp.Residues.for_l(l)
    rng = random.Random(l)

    def elem():
        nums = [rng.randint(-50, 50) for _ in range(field.degree)]
        return kernels.felem_normalize(nums, rng.randint(1, 30))

    assert res.of(field.zeta_pow(1).raw) == res.omega
    for _ in range(40):
        a, b = elem(), elem()
        p = res.p
        assert res.of(kernels.felem_mul(a, b, field.red)) == res.of(a) * res.of(b) % p
        assert res.of(kernels.felem_add(a, b)) == (res.of(a) + res.of(b)) % p
    assert len(set(res.qs)) == l


def test_is_prime_matches_trial_division():
    for n in range(-2, 5000):
        assert modp.is_prime(n) == _trial_division_prime(n), n
    for n in (2**31 - 1, 2**31 - 3, 3_215_031_749, 1_373_653, 25_326_001):
        assert modp.is_prime(n) == _trial_division_prime(n), n


# -- negative controls ---------------------------------------------------------


def _rank1_module(l, x_rows, xinv_rows):
    """A module of X_1, X_1^-1 (block diagonal) and C_1 (swapping the blocks).

    x_rows is the even block of X_1 and xinv_rows its inverse; the odd block
    of X_1 is xinv_rows, so that C_1 X_1 C_1 = X_1^-1.
    """
    model = ScalarModel.for_indices(l, [])
    f = model.field
    h = len(x_rows)

    def blockdiag(a, b):
        return [list(r) + [f.zero] * h for r in a] + [[f.zero] * h + list(r) for r in b]

    eye = [[f.one if i == j else f.zero for j in range(h)] for i in range(h)]
    zero = [[f.zero] * h for _ in range(h)]
    swap = [list(a) + list(b) for a, b in zip(zero, eye)]
    swap += [list(a) + list(b) for a, b in zip(eye, zero)]
    t = model.tower
    gens = {
        ("X", 1, 1): _kmat_from_rows(t, blockdiag(x_rows, xinv_rows)),
        ("X", 1, -1): _kmat_from_rows(t, blockdiag(xinv_rows, x_rows)),
        ("C", 1): _kmat_from_rows(t, swap),
    }
    M = MatrixSupermodule(model, 1, (1,), (0,) * h + (1,) * h, gens)
    assert verify_relations(M) == []
    return M


def _jordan_module(c):
    """X_1 = J (+) J^-1, J = [[i, c], [0, i]] with i^2 = -1, at l = 3.

    X_1 + X_1^-1 is [[0, 2c], [0, 0]] on each block: one Jordan block of
    size 2 at q(1) = 0, whose off-diagonal entry is 2c.
    """
    f = CycField.for_l(3)
    i, c = f.sqrt_minus1, f.rational(c.numerator, c.denominator)
    return _rank1_module(3, [[i, c], [f.zero, i]], [[-i, c], [f.zero, -i]])


class _Fallbacks:
    """Counts the exact engine's runs inside formal_character.

    _word_dims also runs the mod-p split, over a modp.ReducedTower; only its
    runs over the module's own tower, over K, are counted.
    """

    def __init__(self, monkeypatch):
        self.calls = 0

        def counted(M, tower, qs, ops):
            self.calls += tower is M.tower
            return _word_dims(M, tower, qs, ops)

        monkeypatch.setattr(supermodules, "_word_dims", counted)


def test_off_q_eigenvalue_congruent_to_a_q_still_raises(monkeypatch):
    # lam = (p + 1) + 1/(p + 1) is no q(i), but lam = 2 = q(0) mod p: the
    # split mod p passes, and only the certificate over K sees the difference
    p, _ = modp.prime_and_root(3)
    f = CycField.for_l(3)
    b = f.from_int(p + 1)
    M = _rank1_module(3, [[b]], [[b.inverse()]])
    ops = {1: _op_x_plus_xinv(M, 1)}
    red = modp.ReducedTower(3, M.tower)
    dims, _ = _word_dims(M, red, red.qs, {1: red.matrix(ops[1])})
    assert dims == {(0,): 2}
    assert _certified_word_dims(M, ops) is None
    fallbacks = _Fallbacks(monkeypatch)
    with pytest.raises(ArithmeticError, match="non-integral"):
        formal_character(M)
    assert fallbacks.calls == 1


def test_colliding_residues_fall_back(monkeypatch):
    # a q(i) - q(j) is a unit times factors 1 - zeta^k, which no prime
    # p = 1 mod 4l divides, so the collision is planted in the residues
    fake = modp.Residues(3, *modp.prime_and_root(3))
    fake.qs = [fake.qs[0], fake.qs[1], fake.qs[0]]
    M = _jordan_module(Fraction(1))
    ops = {1: _op_x_plus_xinv(M, 1)}
    monkeypatch.setattr(modp.Residues, "for_l", lambda l: fake)
    with pytest.raises(modp.Decline, match="collide"):
        modp.ReducedTower(3, M.tower)
    fallbacks = _Fallbacks(monkeypatch)
    assert formal_character(M) == WordSum.word((1,), 2)
    assert fallbacks.calls == 1


def test_vanishing_disc_residue_falls_back(monkeypatch):
    # d_i = 0 mod p would make q(i) = +-2 = q(0) or q(l-1) mod p, a
    # collision, so the zero is planted in the residues as well
    M = build_L(4, 1)
    fake = modp.Residues(4, *modp.prime_and_root(4))
    of, disc = fake.of, M.tower.disc_raws[1]
    monkeypatch.setattr(fake, "of", lambda raw: 0 if raw == disc else of(raw))
    monkeypatch.setattr(modp.Residues, "for_l", lambda l: fake)
    with pytest.raises(modp.Decline, match="vanishes"):
        modp.ReducedTower(4, M.tower)
    fallbacks = _Fallbacks(monkeypatch)
    assert formal_character(M) == WordSum.word((1,), 1)
    assert fallbacks.calls == 1


@st.composite
def _tower_vector(draw):
    """(l, tower, v): a tower of rank 1, 2 or 4 over Q(zeta_4l), a K-vector."""
    l = draw(st.integers(2, 5))
    field = CycField.for_l(l)
    js = draw(st.lists(st.integers(0, 4 * l - 1), max_size=2, unique=True))
    tower = Tower(field, [field.zeta_pow(j) + 3 for j in js])
    elem = st.builds(
        field.elem,
        st.lists(st.integers(-9, 9), min_size=field.degree, max_size=field.degree),
        st.integers(1, 6),
    )
    entries = draw(st.dictionaries(st.integers(0, 3 * tower.rank - 1), elem))
    return l, tower, {k: x.raw for k, x in entries.items() if not x.is_zero()}


@given(_tower_vector())
def test_r_translates_match_tower_products_over_k_and_f_p(case):
    # the one r-translate loop, run by Tower over K and by ReducedTower over
    # F_p, against products of tower elements by the r-monomials
    l, tower, v = case
    field, rank = tower.field, tower.rank
    elems = {}
    for k, x in v.items():
        t, a = divmod(k, rank)
        elems.setdefault(t, [field.zero] * rank)[a] = FieldElem(field, x)
    want = []
    for mask in range(rank):
        r = tower.elem([field.one if b == mask else field.zero for b in range(rank)])
        w = {}
        for t, coords in elems.items():
            for a, c in enumerate((tower.elem(coords) * r).coords):
                if not c.is_zero():
                    w[t * rank + a] = c.raw
        want.append(w)
    assert tower.translates(v) == want
    reduced = modp.ReducedTower(l, tower)
    (v_p,) = reduced.matrix([v])
    assert reduced.translates(v_p) == reduced.matrix(want)


def test_jordan_block_vanishing_mod_p_falls_back(monkeypatch):
    p, _ = modp.prime_and_root(3)
    fallbacks = _Fallbacks(monkeypatch)
    assert formal_character(_jordan_module(Fraction(1))) == WordSum.word((1,), 2)
    assert fallbacks.calls == 0
    # 2c = 2p = 0 mod p: exponent 1 mod p, 2 over K, so the certificate fails
    M = _jordan_module(Fraction(p))
    assert _certified_word_dims(M, {1: _op_x_plus_xinv(M, 1)}) is None
    assert formal_character(M) == WordSum.word((1,), 2)
    assert fallbacks.calls == 1


def test_denominator_divisible_by_p_falls_back(monkeypatch):
    p, _ = modp.prime_and_root(3)
    M = _jordan_module(Fraction(1, p))
    with pytest.raises(modp.Decline, match="denominator"):
        modp.ReducedTower(3, M.tower).matrix(_op_x_plus_xinv(M, 1))
    fallbacks = _Fallbacks(monkeypatch)
    assert formal_character(M) == WordSum.word((1,), 2)
    assert fallbacks.calls == 1


def test_uneven_total_keeps_the_exact_error(monkeypatch):
    # X_1 and X_2 do not commute, so a level is not X_1-invariant and its
    # eigenspaces overcount it; the certificates hold (both operators are
    # diagonalizable), so only the total check sends this to the exact engine
    model = ScalarModel.for_indices(3, [])
    f, t = model.field, model.tower
    one, zero = f.one, f.zero
    x2 = [[one, zero], [zero, -one]]
    x1 = [[one, -2 * one], [zero, -one]]  # S x2 S^-1, S = [[1, 1], [0, 1]]
    gens = {
        ("X", 2, 1): _kmat_from_rows(t, x2),
        ("X", 2, -1): _kmat_from_rows(t, x2),
        ("X", 1, 1): _kmat_from_rows(t, x1),
        ("X", 1, -1): _kmat_from_rows(t, x1),
    }
    M = MatrixSupermodule(model, 2, (2,), (0, 1), gens)
    fallbacks = _Fallbacks(monkeypatch)
    with pytest.raises(ArithmeticError, match="do not exhaust"):
        formal_character(M)
    assert fallbacks.calls == 1


def test_no_residue_data_outlives_the_call():
    # gc.collect() also empties the interpreter's free lists, which would
    # otherwise keep a few freed dicts allocated in modp
    M = induce(build_L_ij_star_L_i(3, 0, 1))
    want = formal_character(M)
    tracemalloc.start()
    try:
        assert formal_character(M) == want
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([tracemalloc.Filter(True, modp.__file__)])
    assert sum(s.size for s in kept.statistics("filename")) == 0
