"""PBW rewriting engine: defining relations, automorphisms, coset splitting."""

import random

import pytest

from heckeclifford.algebra import (
    HeckeClifford,
    NormalMonomial,
    _exchange,
    perm_identity,
    perm_length,
    reduced_word,
    t_indices,
)
from heckeclifford.scalars import CycField
from heckeclifford.supermodules import build_L001, build_L_ij


def alg(l, n):
    return HeckeClifford(CycField.for_l(l), n)


def test_reduced_word_lex_smallest():
    assert reduced_word((1, 2, 3)) == ()
    assert reduced_word((2, 1, 3)) == (1,)
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    # check every reduced word reproduces the permutation and has min length
    w = (3, 1, 4, 2)
    word = reduced_word(w)
    assert len(word) == perm_length(w)
    cur = perm_identity(4)
    from heckeclifford.algebra import perm_right_mult_s

    for i in word:
        cur = perm_right_mult_s(cur, i)
    assert cur == w


def test_t_squared():
    a = alg(2, 2)
    lhs = a.t(1) * a.t(1)
    rhs = a.t(1).scale(a.field.xi) + a.one()
    assert lhs == rhs


def test_t1_times_x1_matches_exchange_identity():
    # T_1 X_1 = X_2 T_1 - xi (X_2 + C_1 C_2 X_1)
    a = alg(2, 2)
    xi = a.field.xi
    lhs = a.t(1) * a.x(1)
    rhs = (
        a.x(2) * a.t(1)
        - a.x(2).scale(xi)
        - (a.c(1) * a.c(2) * a.x(1)).scale(xi)
    )
    assert lhs == rhs


def test_t1_times_c2_exchange():
    # T_1 C_2 = C_1 T_1 - xi(C_1 - C_2)
    a = alg(2, 2)
    xi = a.field.xi
    lhs = a.t(1) * a.c(2)
    rhs = a.c(1) * a.t(1) - a.c(1).scale(xi) + a.c(2).scale(xi)
    assert lhs == rhs


def test_t1_times_x1_inverse_exchange():
    # T_1 X_1^-1 = X_2^-1 T_1 + xi(X_1^-1 + X_2^-1 C_1 C_2)
    a = alg(2, 2)
    xi = a.field.xi
    lhs = a.t(1) * a.x(1, -1)
    rhs = (
        a.x(2, -1) * a.t(1)
        + a.x(1, -1).scale(xi)
        + (a.x(2, -1) * a.c(1) * a.c(2)).scale(xi)
    )
    assert lhs == rhs


def _off(i):
    """The generator index at rank 3 that is neither i nor i + 1."""
    return 3 if i == 1 else 1


# T_i * g and its hand-written right side, one entry per generator kind: the
# identities that the table's g * T_i rows rearrange, through the engine
EXCHANGE_ROWS = {
    # T_i X_{i+1} = X_i T_i + xi X_{i+1} - xi C_i C_{i+1} X_{i+1}
    "X_(i+1)": lambda a, i, xi: (
        a.t(i) * a.x(i + 1),
        a.x(i) * a.t(i)
        + a.x(i + 1).scale(xi)
        - (a.c(i) * a.c(i + 1) * a.x(i + 1)).scale(xi),
    ),
    # T_i X_{i+1}^-1 = X_i^-1 T_i - xi X_i^-1 + xi X_i^-1 C_i C_{i+1}
    "X_(i+1)^-1": lambda a, i, xi: (
        a.t(i) * a.x(i + 1, -1),
        a.x(i, -1) * a.t(i)
        - a.x(i, -1).scale(xi)
        + (a.x(i, -1) * a.c(i) * a.c(i + 1)).scale(xi),
    ),
    # T_i C_i = C_{i+1} T_i
    "C_i": lambda a, i, xi: (a.t(i) * a.c(i), a.c(i + 1) * a.t(i)),
    # T_i X_j = X_j T_i and T_i C_j = C_j T_i off i and i+1
    "X_j": lambda a, i, xi: (a.t(i) * a.x(_off(i)), a.x(_off(i)) * a.t(i)),
    "C_j": lambda a, i, xi: (a.t(i) * a.c(_off(i)), a.c(_off(i)) * a.t(i)),
}


@pytest.mark.parametrize("row", sorted(EXCHANGE_ROWS))
@pytest.mark.parametrize("i", [1, 2])
def test_exchange_rows_at_rank_3(i, row):
    a = alg(2, 3)
    lhs, rhs = EXCHANGE_ROWS[row](a, i, a.field.xi)
    assert lhs == rhs


@pytest.mark.parametrize(
    "build",
    [lambda: build_L_ij(3, 0, 1), lambda: build_L_ij(4, 1, 2), build_L001],
    ids=["L_01@l3", "L_12@l4", "L001"],
)
def test_exchange_table_holds_on_modules(build):
    """Every row g T_i = sum coeff * word of _exchange, as matrices on a module.

    Both sides are read on the unit vectors e_t through the module's word
    chains, so no product of the rewriting engine is involved.
    """
    M = build()
    f = M.field
    scale = {1: f.one.raw, "xi": f.xi.raw, "-xi": (-f.xi).raw}
    gens = [g for g in M.gen_keys() if g[0] != "T"]
    for i in M.t_indices():
        for g in gens:
            for t in range(M.dim):
                total = f.scale(M._chain((g, ("T", i)))[t], (-f.one).raw)
                for coeff, word in _exchange(i, g):
                    f.add_into(total, f.scale(M._chain(word)[t], scale[coeff]))
                assert not total, (i, g, t)


def _defining_relation_residuals(a):
    """All defining relations of the rank-n algebra, as elements that must vanish."""
    n = a.n
    xi = a.field.xi
    rels = []
    for i in range(1, n + 1):
        rels.append(a.x(i) * a.x(i, -1) - a.one())
        rels.append(a.x(i, -1) * a.x(i) - a.one())
        rels.append(a.c(i) * a.c(i) - a.one())
        for j in range(1, n + 1):
            if i == j:
                continue
            for s in (1, -1):
                for t in (1, -1):
                    rels.append(a.x(i, s) * a.x(j, t) - a.x(j, t) * a.x(i, s))
            rels.append(a.c(i) * a.c(j) + a.c(j) * a.c(i))
            rels.append(a.c(i) * a.x(j) - a.x(j) * a.c(i))
        rels.append(a.c(i) * a.x(i) - a.x(i, -1) * a.c(i))
        rels.append(a.c(i) * a.x(i, -1) - a.x(i) * a.c(i))
    for i in range(1, n):
        rels.append(a.t(i) * a.t(i) - a.t(i).scale(xi) - a.one())
        rels.append(a.t(i) * a.c(i) - a.c(i + 1) * a.t(i))
        rels.append(
            (a.t(i) + (a.c(i) * a.c(i + 1)).scale(xi)) * a.x(i) * a.t(i) - a.x(i + 1)
        )
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            rels.append(a.t(i) * a.c(j) - a.c(j) * a.t(i))
            rels.append(a.t(i) * a.x(j) - a.x(j) * a.t(i))
            rels.append(a.t(i) * a.x(j, -1) - a.x(j, -1) * a.t(i))
        for j in range(1, n):
            if abs(i - j) >= 2:
                rels.append(a.t(i) * a.t(j) - a.t(j) * a.t(i))
    for k in range(1, n - 1):
        rels.append(
            a.t(k) * a.t(k + 1) * a.t(k) - a.t(k + 1) * a.t(k) * a.t(k + 1)
        )
    return rels


@pytest.mark.parametrize("l,n", [(2, 3), (3, 3), (4, 4)])
def test_defining_relations_reduce_to_zero(l, n):
    a = alg(l, n)
    for r in _defining_relation_residuals(a):
        assert r.is_zero()


def _random_monomial(rng, a):
    n = a.n
    alpha = tuple(rng.randint(-1, 1) for _ in range(n))
    beta = tuple(rng.randint(0, 1) for _ in range(n))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return NormalMonomial(alpha, beta, tuple(perm))


def _random_element(rng, a, nterms=2):
    out = a.zero()
    for _ in range(nterms):
        coeff = a.field.elem(
            [rng.randint(-2, 2) for _ in range(a.field.degree)], rng.randint(1, 2)
        )
        if coeff.is_zero():
            continue
        out = out + a.monomial_elem(_random_monomial(rng, a), coeff)
    return out


def test_associativity_smoke():
    rng = random.Random(42)
    a = alg(3, 3)
    for _ in range(200):
        x = a.monomial_elem(_random_monomial(rng, a))
        y = a.monomial_elem(_random_monomial(rng, a))
        z = a.monomial_elem(_random_monomial(rng, a))
        assert (x * y) * z == x * (y * z)


def test_sigma_is_involution_and_matches_examples():
    a = alg(2, 3)
    # sigma(X_1) = X_3
    assert a.sigma(a.x(1)) == a.x(3)
    assert a.sigma(a.c(2)) == a.c(2)
    rng = random.Random(5)
    for _ in range(10):
        h = _random_element(rng, a)
        assert a.sigma(a.sigma(h)) == h
    # sigma(sigma(T_i)) == T_i explicitly
    assert a.sigma(a.sigma(a.t(1))) == a.t(1)


def test_sigma_is_homomorphism():
    a = alg(3, 3)
    rng = random.Random(6)
    for _ in range(10):
        h, g = _random_element(rng, a), _random_element(rng, a)
        assert a.sigma(h * g) == a.sigma(h) * a.sigma(g)


def test_tau_is_antiautomorphism_and_involution():
    a = alg(3, 3)
    # tau(tau(T_i)) == T_i
    assert a.tau(a.tau(a.t(1))) == a.t(1)
    rng = random.Random(7)
    for _ in range(8):
        h, g = _random_element(rng, a), _random_element(rng, a)
        assert a.tau(h * g) == a.tau(g) * a.tau(h)
        assert a.tau(a.tau(h)) == h


def test_coset_reps_basic():
    a = alg(2, 3)
    reps = a.coset_representatives((2, 1))
    assert len(reps) == 3
    assert reps[0] == (1, 2, 3)
    assert all(perm_length(reps[k]) <= perm_length(reps[k + 1]) for k in range(2))


def test_coset_decompose_examples():
    a = alg(2, 3)
    mu = (2, 1)
    # T_2 is itself a minimal coset representative
    d = a.coset_decompose(a.t(2), mu)
    w_t2 = (1, 3, 2)
    assert set(d) == {w_t2}
    assert d[w_t2] == a.one()
    # T_1 lies in the parabolic
    d = a.coset_decompose(a.t(1), mu)
    assert set(d) == {(1, 2, 3)}
    assert d[(1, 2, 3)] == a.t(1)


def _coset_inputs():
    """(algebra, mu, random element) for the coset decomposition tests."""
    rng = random.Random(12)
    for l, n, mu in [(2, 3, (2, 1)), (3, 3, (1, 2)), (2, 4, (3, 1)), (3, 4, (2, 2))]:
        a = alg(l, n)
        for _ in range(6):
            yield a, mu, _random_element(rng, a, nterms=3)


def test_coset_decompose_roundtrip_random():
    for a, mu, h in _coset_inputs():
        n = a.n
        d = a.coset_decompose(h, mu)
        total = a.zero()
        t_ok = set(t_indices(mu))
        for w, hw in d.items():
            # h_w really lives in the parabolic
            for m in hw.terms:
                assert a.in_parabolic(mu, m.w)
                assert set(m.reduced_word()) <= t_ok
            tw = a.monomial_elem(NormalMonomial((0,) * n, (0,) * n, w))
            total = total + tw * hw
        assert total == h


def test_coset_decompose_reads_each_monomial(monkeypatch):
    """The decomposition groups the monomials of h: it multiplies nothing."""
    inputs = list(_coset_inputs())

    def multiply(self, a, b):
        raise AssertionError("coset_decompose multiplied")

    monkeypatch.setattr(HeckeClifford, "multiply", multiply)
    for a, mu, h in inputs:
        d = a.coset_decompose(h, mu)
        assert sum(len(hw.terms) for hw in d.values()) == len(h.terms)


def test_x3_t2_coset_roundtrip():
    a = alg(2, 3)
    mu = (2, 1)
    h = a.x(3) * a.t(2)
    d = a.coset_decompose(h, mu)
    total = a.zero()
    for w, hw in d.items():
        tw = a.monomial_elem(NormalMonomial((0, 0, 0), (0, 0, 0), w))
        total = total + tw * hw
    assert total == h
