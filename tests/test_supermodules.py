"""Builders, relation verification, characters, types, and the rank suites."""

import gc

import pytest
from hypothesis import given, strategies as st

from heckeclifford import linalg, supermodules
from heckeclifford.grothendieck import WordSum, shuffle
from heckeclifford.scalars import ScalarModel, q_of
from heckeclifford.supermodules import (
    InexactDivisionError,
    build_L,
    build_L001,
    build_L001_star_L0,
    build_L01,
    build_L_ij,
    build_L_iij,
    build_L_m,
    build_R_m,
    build_L_ij_star_L_i,
    circled_star,
    delta_im,
    discover_square_root,
    epsilon_i,
    formal_character,
    generalized_eigs,
    induce,
    jordan_block_max,
    low_rank_suite,
    shuffle_compat_suite,
    sigma_twist,
    tensor_product,
    theta_for_end_letter,
    tower_span,
    type_of,
    verify_relations,
    _apply_factors,
    _certified_split,
    _op_x_plus_xinv,
    _shifted_apply,
    _split_level,
)


def test_build_L_end_letter_shape():
    M = build_L(2, 0)
    # X_1 acts by 1 on both graded pieces, C_1 swaps them
    assert M.even_dim == 1 and M.odd_dim == 1
    x = M.gen(("X", 1, 1))
    one = M.tower.one
    assert x[0] == {0: one} and x[1] == {1: one}
    c = M.gen(("C", 1))
    assert c[0] == {1: one} and c[1] == {0: one}
    assert verify_relations(M) == []


def test_build_L_m_and_R_m():
    for l, i in [(3, 1), (4, 2)]:
        for m in (1, 2, 3):
            L = build_L_m(l, i, m)
            assert L.dim == 2 * m
            assert verify_relations(L) == []
        R = build_R_m(l, i, 2)
        assert R.dim == 8  # L+ and L- stacked
        assert verify_relations(R) == []
    # at an end letter the regular quotient is a single Jordan module
    R = build_R_m(3, 0, 2)
    assert R.dim == 4
    assert verify_relations(R) == []


def test_explicit_builders_pass_relations():
    assert verify_relations(build_L01()) == []
    assert verify_relations(build_L001()) == []
    assert verify_relations(build_L001_star_L0()) == []
    for l, i, j in [(3, 1, 2) if False else (4, 1, 2), (4, 2, 1), (3, 0, 1), (5, 2, 3)]:
        assert verify_relations(build_L_ij(l, i, j)) == []
    for l, i, j in [(3, 0, 1), (4, 3, 2)]:
        assert verify_relations(build_L_ij_star_L_i(l, i, j)) == []


def test_L001_matrix_entries():
    M = build_L001()
    f = M.field
    t2 = M.gen(("T", 2))
    q3_plus_q = f.zeta_pow(3) + f.q
    # leading 2x2 block of the third-T action
    assert t2[0][0] == M.tower.scalar(q3_plus_q)
    assert t2[0][1] == M.tower.one
    assert t2[1][0] == M.tower.one
    assert 1 not in t2[1]
    x3 = M.gen(("X", 3, 1))
    for k in range(8):
        assert x3[k] == {k: -M.tower.one}


def test_perturbed_module_fails_relations():
    # replacing the diagonal q of the rank-2 block by q^2 must break the
    # X-exchange relation
    M = build_L01()
    f = M.field
    bad = {k: dict(v) for k, v in enumerate(M.gen(("T", 1)))}
    bad[0][0] = M.tower.scalar(f.zeta_pow(2))
    M.gens[("T", 1)] = [bad[0], bad[1]]
    M._expanded.clear()
    report = verify_relations(M)
    assert "(T1 + xi C1C2) X1 T1 = X2" in report


def test_build_L_ij_entries():
    l, i, j = 4, 1, 2
    M = build_L_ij(l, i, j)
    f = M.field
    s = f.xi * (q_of(l, j) - q_of(l, i)).inverse()
    bpi, bmi = M.model.b(i, 1), M.model.b(i, -1)
    bpj, bmj = M.model.b(j, 1), M.model.b(j, -1)
    t1 = M.gen(("T", 1))  # column-major sparse
    assert t1[0][0] == (bpj - bmi) * s
    assert t1[0][1] == (bpj - bpi) * s
    assert t1[1][0] == (bmi - bmj) * s
    # X_1 even-part eigenvalues are the two conjugate roots
    x1 = M.gen(("X", 1, 1))
    assert x1[0][0] == bpi and x1[1][1] == bmi
    assert formal_character(M) == WordSum.word((i, j))


def test_type_detection():
    assert type_of(build_L(2, 0)) == "Q"
    assert type_of(build_L(4, 1)) == "M"
    assert type_of(build_L01()) == "M"
    assert type_of(build_L001()) == "Q"
    assert type_of(build_L_ij(3, 0, 1)) == "Q"  # one end letter
    assert type_of(build_L_ij(4, 1, 2)) == "M"  # no end letters


def test_characters_of_explicit_modules():
    assert formal_character(build_L01()) == WordSum.word((0, 1))
    assert formal_character(build_L001()) == WordSum.word((0, 0, 1), 2)


def test_character_against_shuffle_oracle():
    model = ScalarModel.for_indices(4, [1, 2])
    M = induce(tensor_product(build_L(4, 1, model), build_L(4, 2, model)))
    assert M.dim == 8
    assert formal_character(M) == shuffle(WordSum.word((1,)), WordSum.word((2,)))


def test_circled_star_dimensions():
    # both factors of type Q: the half tensor halves the dimension
    model = ScalarModel.for_indices(2, [])
    L0 = build_L(2, 0, model)
    L1 = build_L(2, 1, model)
    th0, th1 = theta_for_end_letter(L0), theta_for_end_letter(L1)
    S = circled_star(L0, th0, L1, th1)
    assert S.dim == 2
    assert verify_relations(S) == []
    assert formal_character(S) == WordSum.word((0, 1))
    S00 = circled_star(L0, th0, L0, th0)
    assert S00.dim == 2


def test_circled_star_with_trivial_factor():
    from heckeclifford.supermodules import MatrixSupermodule

    model = ScalarModel.for_indices(3, [1])
    L1 = build_L(3, 1, model)
    trivial = MatrixSupermodule(model, 0, (), (0,), {})
    R = circled_star(L1, None, trivial, None)
    assert R.dim == L1.dim
    for key in L1.gen_keys():
        assert R.gen(key) == L1.gen(key)


def test_delta_and_epsilon():
    M = build_L001()
    assert epsilon_i(M, 1) == 1
    assert epsilon_i(M, 0) == 0
    D = delta_im(M, 1, 1)
    assert D.dim == 8 and D.mu == (2, 1)
    assert delta_im(M, 1, 0) is M
    assert delta_im(M, 0, 1) is None


def test_epsilon_matches_jordan_blocks():
    # end letter: epsilon equals the maximal Jordan size of the last X at b(i)
    M = build_L001()
    f = M.field
    lam = -f.one  # b(1) = -1 at the end letter 1
    assert epsilon_i(M, 1) == jordan_block_max(M, M.expanded(("X", 3, 1)), lam)
    # middle letter: epsilon equals the Jordan size of X + X^-1 at q(i)
    Liij = build_L_iij(4, 0, 1)
    jm = jordan_block_max(Liij, _op_x_plus_xinv(Liij, 3), q_of(4, 1))
    assert epsilon_i(Liij, 1) == jm == 1


def test_sigma_twist_reverses_characters():
    for M in (build_L001(), build_L_iij(3, 0, 1)):
        assert (
            formal_character(sigma_twist(M))
            == formal_character(M).reversed_words()
        )


def test_induced_module_dimension_bookkeeping():
    # inducing multiplies the dimension by the number of coset classes
    model = ScalarModel.for_indices(3, [0, 1])
    W = build_L_ij_star_L_i(3, 0, 1, model)
    M = induce(W)
    assert M.dim == 3 * W.dim
    assert verify_relations(M) == []


def test_tower_span_detects_uneven_split():
    # over the quotient ring with a square discriminant, the line through an
    # idempotent-like vector is r-invariant, so its T-span is not free
    from heckeclifford.scalars import discriminant

    model = ScalarModel.for_indices(3, [1])
    assert discriminant(3, 1) == -model.field.one
    M = build_L(3, 1, model)
    f = model.field
    s = f.zeta_pow(3)  # square root of -1
    v = {0: s.raw, 1: f.one.raw}  # index (0, mask 0), (0, mask 1)
    with pytest.raises(InexactDivisionError):
        tower_span(M, [v])
    k, root = discover_square_root(M, [v])
    assert k == 0 and root == s


def test_low_rank_suite_small():
    for l in (2, 3):
        rep = low_rank_suite(l)
        assert rep["ok"], [c for c in rep["checks"] if c["status"] == "fail"]


def test_shuffle_compat_suite_small():
    for l in (2, 3):
        rep = shuffle_compat_suite(l)
        assert rep["ok"], [c for c in rep["checks"] if c["status"] == "fail"]


def test_formal_character_rejects_nonintegral():
    from heckeclifford.supermodules import MatrixSupermodule, _omat_from_rows

    model = ScalarModel.for_indices(2, [])
    t = model.tower
    f = model.field
    third = f.rational(1, 3)
    gens = {
        ("X", 1, 1): _omat_from_rows(t, [[3 * f.one, f.zero], [f.zero, third]]),
        ("X", 1, -1): _omat_from_rows(t, [[third, f.zero], [f.zero, 3 * f.one]]),
        ("C", 1): _omat_from_rows(t, [[0, 1], [1, 0]]),
    }
    M = MatrixSupermodule(model, 1, (1,), (0, 1), gens)
    assert verify_relations(M) == []
    with pytest.raises(ArithmeticError, match="non-integral"):
        formal_character(M)


def test_certified_characters_match_exhaustive_split(monkeypatch):
    certified = [(low_rank_suite(l), shuffle_compat_suite(l)) for l in (2, 3)]
    # a probe without candidates sends every level to the exhaustive split
    monkeypatch.setattr(supermodules, "_probe_multiplicities", lambda *a: None)
    exhaustive = [(low_rank_suite(l), shuffle_compat_suite(l)) for l in (2, 3)]
    assert certified == exhaustive


@pytest.mark.parametrize("build", [build_L01, build_L001])
def test_formal_character_leaves_no_garbage_cycles(build):
    M = build()
    gc.collect()
    gc.disable()
    try:
        formal_character(M)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def _conjugated_jordan(draw, off_q=False):
    """(field, qs, A, blocks, certifiable): A = S J S^-1, S = I + c E_ab a shear.

    J is upper triangular with Jordan blocks (eigenvalue index, size); with
    off_q one extra block sits at 3, which is no q(i).  Every coordinate of
    S^-1 (1, .., 1) is nonzero unless c = 1, so for c != 1 the sum of the unit
    vectors reaches the full minimal polynomial of A.
    """
    l = draw(st.integers(2, 4))
    block = st.tuples(st.integers(0, l - 1), st.integers(1, 3))
    blocks = draw(st.lists(block, min_size=1, max_size=3))
    field = q_of(l, 0).field
    qs = [q_of(l, i).raw for i in range(l)]
    lams = [qs[i] for i, _ in blocks]
    sizes = [m for _, m in blocks]
    if off_q:
        lams.append(field.from_int(3).raw)
        sizes.append(draw(st.integers(1, 2)))
    J = []
    for lam, m in zip(lams, sizes):
        for r in range(m):
            col = {len(J): lam}
            if r:
                col[len(J) - 1] = field.one.raw
            J.append(col)
    dim = len(J)
    A = J
    if dim > 1:
        a, b = draw(st.permutations(range(dim)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        S = linalg.mat_identity(dim, field.one.raw)
        S_inv = linalg.mat_identity(dim, field.one.raw)
        S[b][a] = field.from_int(c).raw
        S_inv[b][a] = field.from_int(-c).raw
        A = linalg.mat_mul(S, linalg.mat_mul(J, S_inv, field.red), field.red)
        certifiable = c != 1
    else:
        certifiable = True
    return field, qs, A, blocks, certifiable


def _unit_basis(dim, field):
    return [{t: field.one.raw} for t in range(dim)]


@given(_conjugated_jordan())
def test_certified_split_matches_generalized_eigs(case):
    field, qs, A, blocks, certifiable = case
    basis = _unit_basis(len(A), field)
    want = {}
    for i, q in enumerate(qs):
        eig, _ = generalized_eigs(field, _shifted_apply(field, A, q), basis)
        if eig:
            want[i] = len(eig)
    assert want == {
        i: sum(m for j, m in blocks if j == i) for i, _ in blocks
    }
    certified = _certified_split(field, A, basis, qs)
    assert certified is not None or not certifiable
    for parts in (certified, _split_level(field, A, basis, qs)):
        if parts is None:
            continue
        assert [i for i, _ in parts] == sorted(want)
        assert {i: len(vs) for i, vs in parts} == want
        for i, vs in parts:
            for v in vs:
                assert not _apply_factors(field, A, [(qs[i], len(A))], v)


@given(_conjugated_jordan(off_q=True))
def test_certified_split_declines_off_q_eigenvalue(case):
    field, qs, A, _, _ = case
    basis = _unit_basis(len(A), field)
    assert _certified_split(field, A, basis, qs) is None
    with pytest.raises(ArithmeticError, match="non-integral"):
        _split_level(field, A, basis, qs)


def test_with_splitting_retries_and_rebuilds():
    from heckeclifford.scalars import ZeroDivisorError, tower_invert
    from heckeclifford.supermodules import with_splitting

    attempts = []

    def compute(model):
        attempts.append(model.tower.rank)
        if model.tower.discs:
            # force the zero-divisor discovery on the first pass
            f = model.field
            x = model.tower.gen(0) - model.tower.scalar(f.zeta_pow(3))
            tower_invert(x)  # raises ZeroDivisorError with root q^3
            raise AssertionError("unreachable")
        # after the split the root is still available through the model
        b = model.b(1, 1)
        assert b == model.tower.scalar(model.field.zeta_pow(3))
        return "done"

    out = with_splitting(lambda: ScalarModel.for_indices(3, [1]), compute)
    assert out == "done"
    assert attempts == [2, 1]


def test_model_split_keeps_module_builders_usable():
    from heckeclifford.scalars import ZeroDivisorError, tower_invert

    model = ScalarModel.for_indices(3, [1])
    f = model.field
    x = model.tower.gen(0) - model.tower.scalar(f.zeta_pow(3))
    try:
        tower_invert(x)
        raise AssertionError("expected a zero divisor")
    except ZeroDivisorError as e:
        model2, _ = model.split(e.disc_index, e.root)
    # all builders keep working in the split ring and stay exactly verified
    L1 = build_L(3, 1, model2)
    assert verify_relations(L1) == []
    assert L1.rank == 1
    Lij = build_L_ij(3, 0, 1, model2)
    assert verify_relations(Lij) == []
    assert formal_character(Lij) == WordSum.word((0, 1))
