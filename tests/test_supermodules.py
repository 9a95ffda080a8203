"""Builders, relation verification, characters, types, and the rank suites."""

import ast
import collections
import gc
import hashlib
import inspect
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from heckeclifford import linalg, modp, supermodules
from heckeclifford.algebra import HeckeClifford
from heckeclifford.grothendieck import WordSum, character_library, shuffle
from heckeclifford.scalars import CycField, ScalarModel, Tower, q_of
from heckeclifford.supermodules import (
    InexactDivisionError,
    MatrixSupermodule,
    NotInvariantError,
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
    direct_sum,
    discover_square_root,
    eigen_image_vectors,
    epsilon_i,
    formal_character,
    generalized_eigs,
    ind_theta,
    induce,
    jordan_block_max,
    low_rank_suite,
    quotient,
    relation_suites,
    shuffle_compat_suite,
    sigma_twist,
    submodule,
    tensor_product,
    tensor_theta_right,
    theta_for_end_letter,
    tower_span,
    type_of,
    type_of_letter,
    verify_relations,
    with_splitting,
    _certified_word_dims,
    _gen_keys,
    _k_positions,
    _kmat_from_rows,
    _op_x_plus_xinv,
    _pair_kinds,
    _product_basis,
    _relation_list,
    _split_level,
    _word_d_factor,
    _word_dims,
)

from matrices import mat_is_zero, mat_mul


def _shifted(field, A, lam, v):
    """(A - lam) v, written out here so the oracles share no code with the split."""
    w = field.mat_vec(A, v)
    field.submul_into(w, v, lam)
    return w


def kernel_chain_eigs(field, op_cols, lam, basis):
    """Reference generalized eigenspace of A at lam in span(basis) by kernel chains.

    Returns (vectors, depth), depth the step at which the chain stabilizes.
    Each step finds {v : (A - lam) v in the previous kernel} by seeding the
    elimination with the previous kernel's vectors and reading off which image
    combinations fall into their span; every step is a fresh elimination.
    """
    images = [_shifted(field, op_cols, lam, b) for b in basis]
    vectors = []
    depth = 0
    while True:
        tagged = [(("p", k), v) for k, v in enumerate(vectors)]
        tagged += [(s, images[s]) for s in range(len(basis))]
        deps = linalg.nullspace_combinations(field, tagged)
        new_vecs = []
        for dep in deps:
            v = {}
            for s, c in dep.items():
                if isinstance(s, tuple):
                    continue
                field.add_into(v, field.scale(basis[s], c))
            v = field.primitive(v)
            if v:
                new_vecs.append(v)
        if len(new_vecs) == len(vectors):
            return vectors, depth
        vectors = new_vecs
        depth += 1


def _k_basis(M, parity=None):
    """The K-unit vectors e_t r^mask, of one parity or (None) of both."""
    return [
        {t * M.rank + m: M.field.one.raw}
        for t in range(M.dim)
        if parity in (None, M.parity[t])
        for m in range(M.rank)
    ]


def kernel_chain_character(M):
    """Reference formal character: one kernel chain per letter and level."""
    l = M.model.l
    stack = [(M.n, _k_basis(M), ())]
    counts = {}
    while stack:
        k, vectors, word = stack.pop()
        if k == 0:
            counts[word] = len(vectors)
            continue
        op = _full_kmat(M.tower, _op_x_plus_xinv(M, k))
        for i in range(l):
            eig, _ = kernel_chain_eigs(M.field, op, q_of(l, i).raw, vectors)
            if eig:
                stack.append((k - 1, eig, (i,) + word))
    assert sum(counts.values()) == M.k_dim()
    out = {}
    for word, kdim in counts.items():
        mult, rem = divmod(kdim, M.rank * _word_d_factor(l, word))
        assert rem == 0
        out[word] = mult
    return WordSum(out)


def _kills(field, A, lam, e, v):
    """Whether (A - lam)^e v == 0."""
    for _ in range(e):
        v = _shifted(field, A, lam, v)
    return not v


def _full_kmat(tower, cols):
    """Every K-column of a tower-linear map from its mask-0 columns.

    Column t * rank + mask is G(e_t r^mask) = G(e_t) r^mask: the restriction
    of scalars to the field that the full-matrix oracles work on.
    """
    return [w for c in cols for w in tower.translates(c)]


@st.composite
def _tower_map(draw):
    """(l, tower, cols, v): a tower of rank 1, 2 or 4 over Q(zeta_4l), l = 2..5,
    the mask-0 columns of a map on a rank-dim free module, and a K-vector."""
    l = draw(st.integers(2, 5))
    field = CycField.for_l(l)
    js = draw(st.lists(st.integers(0, 4 * l - 1), max_size=2, unique=True))
    tower = Tower(field, [field.zeta_pow(j) + 3 for j in js])
    elem = st.builds(
        field.elem,
        st.lists(st.integers(-9, 9), min_size=field.degree, max_size=field.degree),
        st.integers(1, 6),
    )
    kdim = draw(st.integers(1, 3)) * tower.rank

    def kvector():
        entries = draw(st.dictionaries(st.integers(0, kdim - 1), elem, max_size=4))
        return {k: x.raw for k, x in entries.items() if not x.is_zero()}

    cols = [kvector() for _ in range(kdim // tower.rank)]
    return l, tower, cols, kvector()


@given(_tower_map())
def test_tower_mat_vec_matches_the_full_k_matrix(case):
    # over K against the product with every K-column, and over F_p the same
    # loop on the reduced data against the reduced product
    l, tower, cols, v = case
    want = tower.field.mat_vec(_full_kmat(tower, cols), v)
    assert tower.mat_vec(cols, v) == want
    reduced = modp.ReducedTower(l, tower)
    (v_p, want_p) = reduced.matrix([v, want])
    assert reduced.mat_vec(reduced.matrix(cols), v_p) == want_p


def _column(M, key, c):
    """Column c of a generator as {row: TowerElem}, read off its mask-0 K-column."""
    return M.k_vector_to_t(M.gen(key)[c])


def test_build_L_end_letter_shape():
    M = build_L(2, 0)
    # X_1 acts by 1 on both graded pieces, C_1 swaps them
    assert M.parity == (0, 1)
    x = ("X", 1, 1)
    one = M.tower.one
    assert _column(M, x, 0) == {0: one} and _column(M, x, 1) == {1: one}
    c = ("C", 1)
    assert _column(M, c, 0) == {1: one} and _column(M, c, 1) == {0: one}
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
    t2 = [_column(M, ("T", 2), c) for c in range(M.dim)]
    q3_plus_q = f.zeta_pow(3) + f.q
    # leading 2x2 block of the third-T action
    assert t2[0][0] == M.tower.scalar(q3_plus_q)
    assert t2[0][1] == M.tower.one
    assert t2[1][0] == M.tower.one
    assert 1 not in t2[1]
    for k in range(8):
        assert _column(M, ("X", 3, 1), k) == {k: -M.tower.one}


def test_perturbed_module_fails_relations():
    # replacing the diagonal q of the rank-2 block by q^2 must break the
    # X-exchange relation
    M = build_L01()
    f = M.field
    z = M.tower.zero
    rows = [[_column(M, ("T", 1), c).get(r, z) for c in range(M.dim)] for r in range(M.dim)]
    rows[0][0] = M.tower.scalar(f.zeta_pow(2))
    gens = {**M.gens, ("T", 1): _kmat_from_rows(M.tower, rows)}
    M = MatrixSupermodule(M.model, M.n, M.mu, M.parity, gens)
    report = verify_relations(M)
    assert "(T1 + xi C1C2) X1 T1 = X2" in report


def test_generators_are_read_only_after_verification():
    # word chains are cached per module, so replacing a generator in place
    # would leave verify_relations answering for the old matrices
    M = build_L01()
    assert verify_relations(M) == []
    with pytest.raises(TypeError):
        M.gens[("T", 1)] = M.gen(("X", 1, 1))
    assert verify_relations(M) == []


def test_half_tensor_extends_the_two_letter_block():
    # for a (Q, M) pair d_i = 0, so b+-(i) = q(i)/2, and the first two letters
    # of the half tensor are build_L_ij's, entry for entry
    for l in (3, 4, 5):
        for i, j in _pair_kinds(l)["QM"]:
            W, L = build_L_ij_star_L_i(l, i, j), build_L_ij(l, i, j)
            assert (W.n, W.mu, W.parity) == (3, (2, 1), L.parity)
            for key in L.gen_keys():
                assert W.gen(key) == L.gen(key), (l, i, j, key)
            a = W.tower.scalar(q_of(l, i) * W.field.rational(1, 2))
            for c in range(W.dim):
                assert _column(W, ("X", 3, 1), c) == {c: a}
            assert verify_relations(W) == []


def test_build_L_ij_entries():
    l, i, j = 4, 1, 2
    M = build_L_ij(l, i, j)
    f = M.field
    s = f.xi * (q_of(l, j) - q_of(l, i)).inverse()
    bpi, bmi = M.model.b(i, 1), M.model.b(i, -1)
    bpj, bmj = M.model.b(j, 1), M.model.b(j, -1)
    t1 = [_column(M, ("T", 1), c) for c in range(M.dim)]  # column-major
    assert t1[0][0] == (bpj - bmi) * s
    assert t1[0][1] == (bpj - bpi) * s
    assert t1[1][0] == (bmi - bmj) * s
    # X_1 even-part eigenvalues are the two conjugate roots
    x1 = [_column(M, ("X", 1, 1), c) for c in range(M.dim)]
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


@pytest.mark.parametrize(
    "perturb, message",
    [
        (lambda rt: [[1, -rt], [rt, 0]], "is not odd"),
        (lambda rt: [[0, -2 * rt], [rt, 0]], "does not square to one"),
        (lambda rt: [[0, 1], [1, 0]], r"fails to intertwine \('C', 1\)"),
        (None, "has 4 columns, not 2"),
    ],
    ids=["odd", "square", "intertwine", "tower-linear"],
)
def test_circled_star_rejects_a_false_involution(perturb, message):
    # the end letter over a rank-2 tower; its canonical involution is
    # [[0, -rt], [rt, 0]], rt = sqrt(-1)
    L0 = build_L(3, 0, ScalarModel.for_indices(3, [1]))
    theta = theta_for_end_letter(L0)
    if perturb is None:
        # every K-column, as a full K-matrix has, where one per e_t is stored
        theta = _full_kmat(L0.tower, theta)
    else:
        rt = L0.tower.scalar(L0.field.sqrt_minus1)
        theta = _kmat_from_rows(L0.tower, perturb(rt))
    with pytest.raises(ValueError, match=f"declared involution {message}"):
        circled_star(L0, theta, L0, theta_for_end_letter(L0))


def test_circled_star_with_trivial_factor():
    from heckeclifford.supermodules import MatrixSupermodule

    model = ScalarModel.for_indices(3, [1])
    L1 = build_L(3, 1, model)
    trivial = MatrixSupermodule(model, 0, (), (0,), {})
    R = circled_star(L1, None, trivial, None)
    assert R.dim == L1.dim
    for key in L1.gen_keys():
        assert R.gen(key) == L1.gen(key)
        for c in range(L1.dim):
            assert _column(R, key, c) == _column(L1, key, c)


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
    assert epsilon_i(M, 1) == jordan_block_max(M, M.gen(("X", 3, 1)), lam)
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


def test_quotient_rejects_a_non_free_complement():
    # d_1 = -1 is a square at l = 3, so eps_pm = (1 +- zeta^-3 r)/2 are
    # idempotents with r eps_pm = +-zeta^3 eps_pm.  N, the T-span of the even
    # vector e_0 eps_+ + e_1 eps_-, is free of rank 1; every unit vector is then
    # a representative, and they close the K-space, but on 5 * 2 != 8
    # K-dimensions: the complement is not free, so there is no quotient
    model = ScalarModel.for_indices(3, [1])
    M = build_L_m(3, 1, 2, 1, model)
    assert M.k_dim() == 8 and M.parity[:2] == (0, 0)
    f = model.field
    half, z = f.rational(1, 2), f.zeta_pow(-3) * f.rational(1, 2)
    v = {0: half.raw, 1: z.raw, 2: half.raw, 3: (-z).raw}
    basis, tracker = tower_span(M, [v])
    assert len(basis) == 1 and tracker.dim == 2
    with pytest.raises(InexactDivisionError, match="not divisible by the tower rank"):
        quotient(M, [v])


def _summand_and_swap():
    """L(1) + L(1) at l = 3, its first summand's T-basis, and the summand swap.

    The basis is e_0, e_0', e_1, e_1' (even first), so the first summand is
    spanned by e_0 and e_1; the swap commutes with the action but moves it.
    """
    L = build_L(3, 1, ScalarModel.for_indices(3, [1]))
    D = direct_sum(L, L)
    perm = [1, 0, 3, 2]
    rows = [[int(c == perm[r]) for c in range(4)] for r in range(4)]
    return L, D, [D.unit_k_vector(0), D.unit_k_vector(2)], _kmat_from_rows(D.tower, rows)


def test_submodule_rejects_a_span_that_is_not_closed():
    # C_1 sends e_0 to e_1, out of the line through e_0
    L, D, summand, swap = _summand_and_swap()
    with pytest.raises(NotInvariantError, match=r"not closed under \('C', 1\)"):
        submodule(L, [L.unit_k_vector(0)])
    assert submodule(D, summand).gens == L.gens
    with pytest.raises(NotInvariantError, match="not closed under extra op swap"):
        submodule(D, summand, extra_ops={"swap": swap})


def test_quotient_rejects_a_span_that_is_not_closed():
    # the quotient by the line through e_0 would need C_1 e_0 = e_1 in it
    L, D, summand, swap = _summand_and_swap()
    with pytest.raises(NotInvariantError, match=r"not closed under \('C', 1\)"):
        quotient(L, [L.unit_k_vector(0)])
    assert quotient(D, summand)[1].gens == L.gens
    with pytest.raises(NotInvariantError, match="not closed under extra op swap"):
        quotient(D, summand, extra_ops={"swap": swap})


def test_quotient_rejects_a_span_that_is_not_graded():
    # C_1 swaps e_0 and e_1 and X_1 is the identity, so the line through
    # e_0 + e_1 is invariant; but it is not graded, and modulo it C_1 would
    # act evenly on the single class of e_0
    M = build_L(3, 0, ScalarModel.for_indices(3, [0]))
    one = M.field.one.raw
    with pytest.raises(ValueError, match="not parity homogeneous"):
        quotient(M, [{0: one, 1: one}])


def _quotient_cases():
    """(M, image, kwargs): the rank-2 image with its theta, and an l = 3 QM M3."""
    mods, theta = _rank2_modules()
    M = mods["induced"]
    image = [w for _, w in eigen_image_vectors(M, 2, 0)]
    yield M, image, {"mu": (2,), "extra_ops": {"theta": theta}}
    (i, j), *_ = _pair_kinds(3)["QM"]
    M3 = induce(build_L_ij_star_L_i(3, i, j, ScalarModel.for_indices(3, [i, j])))
    yield M3, [w for _, w in eigen_image_vectors(M3, 3, i)], {"mu": (3,)}


def test_quotient_returns_the_submodule_on_the_same_vectors():
    for M, image, kwargs in _quotient_cases():
        N, Q = quotient(M, image, **kwargs)
        S = submodule(M, image, **kwargs)
        assert (N.gens, N.parity, N.mu, N.extra) == (S.gens, S.parity, S.mu, S.extra)
        assert N.dim and Q.dim and N.dim + Q.dim == M.dim


def test_low_rank_suite_small():
    for l in (2, 3):
        rep = low_rank_suite(l)
        assert rep["ok"], [c for c in rep["checks"] if c["status"] == "fail"]


def test_shuffle_compat_suite_small():
    for l in (2, 3):
        rep = shuffle_compat_suite(l)
        assert rep["ok"], [c for c in rep["checks"] if c["status"] == "fail"]


def test_relation_suites_build_each_qm_module_once(monkeypatch):
    # the QM block module comes from the compute's own W and Ind W: at l = 3
    # one W and one induce per QM pair, (0, 1) and (2, 1)
    calls = {"build_L_ij_star_L_i": 0, "induce": 0}

    def counted(name):
        original = getattr(supermodules, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(supermodules, name, counted(name))
    reports = relation_suites(3)
    assert all(rep["ok"] for rep in reports.values())
    assert calls == {"build_L_ij_star_L_i": 2, "induce": 17}


def test_formal_character_rejects_nonintegral():
    from heckeclifford.supermodules import MatrixSupermodule

    model = ScalarModel.for_indices(2, [])
    t = model.tower
    f = model.field
    third = f.rational(1, 3)
    gens = {
        ("X", 1, 1): _kmat_from_rows(t, [[3 * f.one, f.zero], [f.zero, third]]),
        ("X", 1, -1): _kmat_from_rows(t, [[third, f.zero], [f.zero, 3 * f.one]]),
        ("C", 1): _kmat_from_rows(t, [[0, 1], [1, 0]]),
    }
    M = MatrixSupermodule(model, 1, (1,), (0, 1), gens)
    assert verify_relations(M) == []
    with pytest.raises(ArithmeticError, match="non-integral"):
        formal_character(M)


@pytest.mark.parametrize(
    "build",
    [
        build_L01,
        build_L001,
        lambda: build_L_iij(3, 0, 1),
        lambda: induce(build_L_ij_star_L_i(3, 0, 1)),
    ],
    ids=["L01", "L001", "L_iij-3-0-1", "induced-L_ij_star_L_i-3-0-1"],
)
def test_formal_character_matches_kernel_chain_oracle(build):
    M = build()
    assert formal_character(M) == kernel_chain_character(M)


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
    """(field, qs, A, blocks, lams): A = S J S^-1, S = I + c E_ab a shear.

    J is upper triangular with Jordan blocks (eigenvalue index, size); with
    off_q one extra block sits at 3, which is no q(i).  lams lists the qs and,
    with off_q, the value 3.  For c = 1 some coordinate of S^-1 (1, .., 1) can
    vanish, so the sum of the unit vectors need not reach the full minimal
    polynomial of A and the split must probe a residual.
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
        S = _unit_basis(dim, field)
        S_inv = _unit_basis(dim, field)
        S[b][a] = field.from_int(c).raw
        S_inv[b][a] = field.from_int(-c).raw
        A = mat_mul(field, S, mat_mul(field, J, S_inv))
    return field, qs, A, blocks, qs + lams[len(blocks):]


def _unit_basis(dim, field):
    return [{t: field.one.raw} for t in range(dim)]


def _assert_eigs_match_oracle(field, A, lams):
    """generalized_eigs spans the oracle's eigenspace with its depth."""
    basis = _unit_basis(len(A), field)
    for lam in lams:
        vs, depth = generalized_eigs(Tower(field), A, lam, basis)
        want, want_depth = kernel_chain_eigs(field, A, lam, basis)
        assert (len(vs), depth) == (len(want), want_depth)
        assert linalg.rank_of(field, vs + want) == len(want)
        assert all(_kills(field, A, lam, depth, v) for v in vs)


@given(_conjugated_jordan())
def test_certified_split_matches_generalized_eigs(case):
    field, qs, A, blocks, lams = case
    _assert_eigs_match_oracle(field, A, lams)
    basis = _unit_basis(len(A), field)
    want = {i: sum(m for j, m in blocks if j == i) for i, _ in blocks}
    oracle = {}
    for i, q in enumerate(qs):
        eig, depth = kernel_chain_eigs(field, A, q, basis)
        if eig:
            oracle[i] = len(eig)
            assert depth == max(m for j, m in blocks if j == i)
    assert oracle == want
    parts, _ = _split_level(Tower(field), A, basis, len(basis), qs)
    assert [i for i, _, _ in parts] == sorted(want)
    assert {i: len(vs) for i, vs, _ in parts} == want
    for i, vs, kdim in parts:
        assert kdim == len(vs)
        assert all(_kills(field, A, qs[i], len(A), v) for v in vs)


@given(_conjugated_jordan(off_q=True))
def test_certified_split_declines_off_q_eigenvalue(case):
    field, qs, A, _, lams = case
    _assert_eigs_match_oracle(field, A, lams)
    with pytest.raises(ArithmeticError, match="non-integral"):
        _split_level(Tower(field), A, _unit_basis(len(A), field), len(A), qs)


def _non_free_line(model):
    """Raise InexactDivisionError: the T-span of an r-invariant line at l = 3.

    d_1 = -1 is a square, so over the unsplit tower the line through
    q^3 + r is r-invariant and not free, as in
    test_tower_span_detects_uneven_split.
    """
    f = model.field
    tower_span(build_L(3, 1, model), [{0: f.zeta_pow(3).raw, 1: f.one.raw}])
    raise AssertionError("expected a span that is not free")


def test_with_splitting_retries_and_rebuilds():
    attempts = []

    def compute(model):
        attempts.append(model.tower.rank)
        if model.tower.discs:
            _non_free_line(model)
        # after the split the root, read off by discover_square_root, is
        # still available through the model
        assert model.b(1, 1) == model.tower.scalar(model.field.zeta_pow(3))
        return "done"

    out = with_splitting(lambda: ScalarModel.for_indices(3, [1]), compute)
    assert out == "done"
    assert attempts == [2, 1]


def test_with_splitting_stops_when_no_discriminant_is_left():
    attempts = []

    def compute(model):
        # a span that is not free even after splitting
        attempts.append(model.tower.rank)
        if model.tower.discs:
            _non_free_line(model)
        raise InexactDivisionError(None, None, "still not free")

    with pytest.raises(RuntimeError, match=r"not stabilize after .*sqrt\(-1\)"):
        with_splitting(lambda: ScalarModel.for_indices(3, [1]), compute)
    assert attempts == [2, 1]


def test_model_split_keeps_module_builders_usable():
    model = ScalarModel.for_indices(3, [1])
    model2, _ = model.split(0, model.field.zeta_pow(3))
    # all builders keep working in the split ring and stay exactly verified
    L1 = build_L(3, 1, model2)
    assert verify_relations(L1) == []
    assert L1.rank == 1
    Lij = build_L_ij(3, 0, 1, model2)
    assert verify_relations(Lij) == []
    assert formal_character(Lij) == WordSum.word((0, 1))


def _monomials(tower):
    """The r-monomials r^mask, mask = 0 .. rank - 1, as tower elements."""
    f, rank = tower.field, tower.rank
    return [
        tower.elem([f.one if k == m else f.zero for k in range(rank)])
        for m in range(rank)
    ]


def _kmat_by_products(tower, rows):
    """K-matrix of a tower matrix by TowerElem products alone.

    Column j * rank + c holds, on rows i * rank + mask, the r-monomial
    coordinates of the product of entry (i, j) with r^c: no regular block and
    no r-translate of the library is used.
    """
    cols = []
    for j in range(len(rows)):
        for r in _monomials(tower):
            col = {}
            for i, row in enumerate(rows):
                x = row[j] * r
                for mask, a in enumerate(x.coords):
                    if not a.is_zero():
                        col[i * tower.rank + mask] = a.raw
            cols.append(col)
    return cols


def _mask_matrices(tower, dim):
    """K-matrices of multiplication by each r-monomial, from TowerElem products."""
    return [
        _kmat_by_products(
            tower, [[r if a == b else tower.zero for b in range(dim)] for a in range(dim)]
        )
        for r in _monomials(tower)
    ]


@pytest.mark.parametrize("indices", [[], [1], [1, 2]], ids=["rank1", "rank2", "rank4"])
@given(data=st.data())
def test_kmat_from_rows_matches_tower_products(indices, data):
    tower = ScalarModel.for_indices(5, indices).tower
    assert tower.rank == 1 << len(indices)
    f = tower.field

    def field_elem():
        c = data.draw(st.integers(-3, 3))
        return f.from_int(c) * f.zeta_pow(data.draw(st.integers(0, 19)))

    def entry():
        kind = data.draw(st.sampled_from(["int", "field", "tower"]))
        if kind == "int":
            return data.draw(st.integers(-2, 2))
        if kind == "field":
            return field_elem()
        return tower.elem([field_elem() for _ in range(tower.rank)])

    dim = data.draw(st.integers(1, 3))
    rows = [[entry() for _ in range(dim)] for _ in range(dim)]
    assert _full_kmat(tower, _kmat_from_rows(tower, rows)) == _kmat_by_products(
        tower, rows
    )


def _tower_linear(M, mats):
    """Whether every full K-matrix commutes with multiplication by each r-monomial."""
    return all(
        mat_mul(M.field, G, R) == mat_mul(M.field, R, G)
        for G in mats
        for R in _mask_matrices(M.tower, M.dim)[1:]
    )


def _assert_tower_linear(M):
    mats = [M.gen(key) for key in M.gen_keys()]
    mats += list(getattr(M, "extra", {}).values())
    assert all(len(G) == M.dim for G in mats), M
    assert _tower_linear(M, [_full_kmat(M.tower, G) for G in mats]), M


def _rank2_modules():
    """The rank-2 modules of every construction, and the induced theta."""
    model = ScalarModel.for_indices(3, [0, 1])
    assert model.tower.rank == 2
    L0, L1 = build_L(3, 0, model), build_L(3, 1, model)
    T = tensor_product(L1, L0)
    M = induce(T)
    th0 = theta_for_end_letter(L0)
    theta = ind_theta(T, tensor_theta_right(L1, L0, th0), 2)
    image = [w for _, w in eigen_image_vectors(M, 2, 0)]
    L2 = build_L(3, 2, model)
    mods = {
        "L0": L0,
        "L1": L1,
        "Lij": build_L_ij(3, 0, 1, model),
        "W": build_L_ij_star_L_i(3, 0, 1, model),
        "L_m": build_L_m(3, 1, 2, 1, model),
        "R_m": build_R_m(3, 1, 2, model),
        "direct_sum": direct_sum(L1, L0),
        "tensor": T,
        "induced": M,
        "sigma": sigma_twist(M),
        "N": submodule(M, image, mu=(2,), extra_ops={"theta": theta}),
        "Q": quotient(M, image, mu=(2,), extra_ops={"theta": theta})[1],
        "star": circled_star(L0, th0, L2, theta_for_end_letter(L2)),
    }
    return mods, theta


def _rank4_modules():
    """The rank-4 modules of every construction."""
    model = ScalarModel.for_indices(5, [2, 3])
    assert model.tower.rank == 4
    Lij, Li = build_L_ij(5, 2, 3, model), build_L(5, 2, model)
    T = tensor_product(Lij, Li)
    M = induce(T)
    L0, L4 = build_L(5, 0, model), build_L(5, 4, model)
    return {
        "Lij": Lij,
        "Li": Li,
        "tensor": T,
        "induced": M,
        "sigma": sigma_twist(M),
        "direct_sum": direct_sum(L0, L4),
        "star": circled_star(
            L0, theta_for_end_letter(L0), L4, theta_for_end_letter(L4)
        ),
    }


def test_generators_are_tower_linear_rank2():
    mods, theta = _rank2_modules()
    for M in mods.values():
        _assert_tower_linear(M)
    M, N, Q, S = mods["induced"], mods["N"], mods["Q"], mods["star"]
    assert _tower_linear(M, [_full_kmat(M.tower, theta)])
    assert N.dim and Q.dim and N.dim + Q.dim == M.dim
    assert S.dim == 2 and verify_relations(S) == []


def test_generators_are_tower_linear_rank4():
    mods = _rank4_modules()
    for M in mods.values():
        _assert_tower_linear(M)
    S = mods["star"]
    assert S.dim == 2 and verify_relations(S) == []


def test_tower_linearity_check_catches_a_non_regular_block():
    model = ScalarModel.for_indices(3, [0, 1])
    M = build_L(3, 1, model)
    f, rank = M.field, M.rank
    G = _full_kmat(M.tower, M.gen(("X", 1, 1)))
    assert _tower_linear(M, [G])
    # block (0, 0) becomes diag(1, 2), which is no multiplication operator
    for mask in range(rank):
        for rout in range(rank):
            G[mask].pop(rout, None)
    G[0][0] = f.one.raw
    G[1][1] = f.from_int(2).raw
    assert not _tower_linear(M, [G])
    # such a full K-matrix cannot be handed to a module: one column per e_t
    message = r"generator \('X', 1, 1\) has 4 columns, not 2"
    with pytest.raises(ValueError, match=message):
        MatrixSupermodule(M.model, 1, (1,), M.parity, {**M.gens, ("X", 1, 1): G})
    with pytest.raises(ValueError, match="extra op G has 4 columns, not 2"):
        submodule(M, [M.unit_k_vector(0), M.unit_k_vector(1)], extra_ops={"G": G})


# -- T-generator levels and induction against their K-basis oracles -----------


def k_basis_character(M):
    """Reference formal character on the restriction of scalars.

    Every level is a K-basis, split by _split_level over the rank-1 tower
    Tower(M.field), so no r-translate is taken and every count is a number
    of vectors.
    """
    l = M.model.l
    qs = [q_of(l, i).raw for i in range(l)]
    stack = []
    for p in (1, 0):
        basis = _k_basis(M, p)
        if basis:
            stack.append((M.n, basis, ()))
    counts = {}
    while stack:
        k, vectors, word = stack.pop()
        if k == 0:
            counts[word] = counts.get(word, 0) + len(vectors)
            continue
        op = _full_kmat(M.tower, _op_x_plus_xinv(M, k))
        parts, _ = _split_level(Tower(M.field), op, vectors, len(vectors), qs)
        for i, eig, kdim in parts:
            assert kdim == len(eig)
            stack.append((k - 1, eig, (i,) + word))
    out = {}
    for word, kdim in counts.items():
        mult, rem = divmod(kdim, M.rank * _word_d_factor(l, word))
        assert rem == 0
        out[word] = mult
    return WordSum(out)


@pytest.mark.parametrize(
    "modules", [lambda: _rank2_modules()[0], _rank4_modules], ids=["rank2", "rank4"]
)
def test_formal_character_matches_k_basis_character(modules):
    for name, M in modules().items():
        assert formal_character(M) == k_basis_character(M), name
        _assert_modp_agrees(M)


def _assert_modp_agrees(M):
    """The certified mod-p word dimensions are the exact engine's, with no fallback."""
    ops = {k: _op_x_plus_xinv(M, k) for k in range(1, M.n + 1)}
    got = _certified_word_dims(M, ops)
    assert got is not None, M
    assert got == _exact_word_dims(M, ops), M


def _exact_word_dims(M, ops):
    qs = [q_of(M.model.l, i).raw for i in range(M.model.l)]
    return _word_dims(M, M.tower, qs, ops)[0]


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_modp_characters_agree_on_every_relation_suite_module(l, monkeypatch):
    # no module of the suites may decline mod p, so that the fast path
    # cannot silently degrade to the exact engine
    seen = []

    def checked(M, ops):
        seen.append(M)
        _assert_modp_agrees(M)
        return _exact_word_dims(M, ops)

    def no_split(M, vectors):
        raise AssertionError("a relation suite module split its ring")

    monkeypatch.setattr(supermodules, "_certified_word_dims", checked)
    # no suite module needs a split ring: with_splitting never retries
    monkeypatch.setattr(supermodules, "discover_square_root", no_split)
    reports = relation_suites(l)
    assert all(rep["ok"] for rep in reports.values())
    assert seen


@pytest.mark.parametrize(
    "l, modules, characters, spans", [(3, 17, 33, 10), (4, 22, 44, 12), (5, 27, 55, 14)]
)
def test_relation_suites_build_each_module_once(
    l, modules, characters, spans, monkeypatch
):
    # one induce and one character per distinct module, and one tower_span
    # per submodule or quotient: each QM pair's quotient eliminates once
    calls = collections.Counter()
    for name in ("induce", "formal_character", "tower_span"):

        def counted(*args, _f=getattr(supermodules, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(supermodules, name, counted)
    relation_suites(l)
    want = {"induce": modules, "formal_character": characters, "tower_span": spans}
    assert calls == want


def test_relation_suites_build_L001_once_at_l2(monkeypatch):
    # the rank-4 extension appends its letter to the L001 the s5 checks built
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return build_L001(*args, **kwargs)

    monkeypatch.setattr(supermodules, "build_L001", counted)
    reports = relation_suites(2)
    assert all(rep["ok"] for rep in reports.values())
    assert calls == 1


def _sign_twist(M):
    """Pullback along X_k^(+-1) -> -X_k^(+-1), with every C_k and T_j fixed.

    Each defining relation has one X factor in every term, or X_k X_k^-1, so
    this is an automorphism; X_k + X_k^-1 changes sign, and -q(i) = q(l-1-i)
    sends each letter i to l - 1 - i.
    """
    minus = (-M.field.one).raw
    gens = {
        key: [M.field.scale(c, minus) for c in G] if key[0] == "X" else G
        for key, G in M.gens.items()
    }
    return MatrixSupermodule(M.model, M.n, M.mu, M.parity, gens)


def _on_words(ws, f):
    return WordSum({f(w): c for w, c in ws.terms.items()})


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8])
def test_every_library_character_is_a_module_character(l, monkeypatch):
    # ch_standard is the one source of the expected characters: each label of
    # character_library(l) is the formal character of a module built from
    # matrices, one the relation suites characterise or build_L(l, j), or a
    # twist of one.  A label no module realises would be formula-only.
    built = []
    original = supermodules.formal_character

    def captured(M):
        ch = original(M)
        built.append((M, ch))
        return ch

    monkeypatch.setattr(supermodules, "formal_character", captured)
    assert all(rep["ok"] for rep in relation_suites(l).values())
    monkeypatch.undo()
    built += [(M, formal_character(M)) for M in (build_L(l, j) for j in range(l))]
    built.sort(key=lambda entry: entry[0].dim)  # the smallest realisation first

    def sign(w):
        return tuple(l - 1 - k for k in w)

    twists = [  # (twist, its action on words, whether it needs a full module)
        (sigma_twist, lambda w: w[::-1], True),
        (_sign_twist, sign, False),
        (lambda M: _sign_twist(sigma_twist(M)), lambda w: sign(w[::-1]), True),
    ]
    formula_only = []
    for label, want in character_library(l):
        if any(ch == want for _, ch in built):
            continue
        for twist, on_words, full in twists:
            M = next(
                (
                    M
                    for M, ch in built
                    if (M.mu == (M.n,) or not full) and _on_words(ch, on_words) == want
                ),
                None,
            )
            if M is not None:
                T = twist(M)
                assert verify_relations(T) == []
                assert formal_character(T) == want, label
                break
        else:
            formula_only.append(label)
    assert formula_only == []


def test_relation_suites_types_no_expected_character():
    # every expected character is ch_standard at a label: no WordSum literal
    tree = ast.parse(inspect.getsource(supermodules.relation_suites))
    calls = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert [c for c in calls if c.startswith(("WordSum(", "WordSum."))] == []


# discriminants d = s^2 that are squares in every Q(zeta_4l), with s
_SQUARE_DISCS = {4: lambda f: f.from_int(2), -1: lambda f: f.sqrt_minus1}


@st.composite
def _tower_operator(draw, off_q=False):
    """(field, tower, A, dim, qs): a tower-linear full K-matrix A = S J S^-1.

    A[::tower.rank] are its mask-0 columns, the library's format.

    The tower has one or two discriminants among 2, 3, 4 and -1; 4 and -1
    are squares, so the tower may split.  J is lower bidiagonal over the
    tower with Jordan blocks at a q(a) or, over a square discriminant
    d = s^2, at (q(a) + q(b))/2 + (q(a) - q(b))/(2s) r, which is q(a) on
    one idempotent half of the tower and q(b) on the other, so that its
    eigenspaces are no free modules.  With off_q one extra block sits at 3,
    which is no q(i).  S = I + c E_ab is a shear by a tower element c.
    """
    l = draw(st.sampled_from([3, 5]))
    field = q_of(l, 0).field
    discs = draw(
        st.lists(st.sampled_from([2, 3, 4, -1]), min_size=1, max_size=2, unique=True)
    )
    tower = Tower(field, [field.from_int(d) for d in discs])
    split = [(k, d) for k, d in enumerate(discs) if d in _SQUARE_DISCS]
    half = field.rational(1, 2)

    def eigenvalue():
        a = draw(st.integers(0, l - 1))
        if not split or not draw(st.booleans()):
            return tower.scalar(q_of(l, a))
        k, d = draw(st.sampled_from(split))
        s = _SQUARE_DISCS[d](field)
        qa, qb = q_of(l, a), q_of(l, draw(st.integers(0, l - 1)))
        return tower.scalar((qa + qb) * half) + tower.gen(k) * tower.scalar(
            (qa - qb) * half * s.inverse()
        )

    blocks = draw(st.integers(1, 3))
    lams = [(eigenvalue(), draw(st.integers(1, 2))) for _ in range(blocks)]
    if off_q:
        lams.append((tower.scalar(3), 1))
    dim = sum(m for _, m in lams)
    J = [[tower.zero] * dim for _ in range(dim)]
    start = 0
    for lam, m in lams:
        for r in range(start, start + m):
            J[r][r] = lam
            if r > start:
                J[r][r - 1] = tower.one
        start += m
    A = _full_kmat(tower, _kmat_from_rows(tower, J))
    if dim > 1:
        a, b = draw(st.permutations(range(dim)))[:2]
        coord = st.integers(-2, 2)
        coords = draw(st.lists(coord, min_size=tower.rank, max_size=tower.rank))
        c = tower.elem([field.from_int(x) for x in coords])
        S = [[int(r == k) for k in range(dim)] for r in range(dim)]
        S_inv = [list(row) for row in S]
        S[a][b], S_inv[a][b] = c, -c
        S = _full_kmat(tower, _kmat_from_rows(tower, S))
        S_inv = _full_kmat(tower, _kmat_from_rows(tower, S_inv))
        A = mat_mul(field, S, mat_mul(field, A, S_inv))
    return field, tower, A, dim, [q_of(l, i).raw for i in range(l)]


def _heads(field, tower, dim):
    """The mask-0 unit vectors: T-generators of the whole K-space."""
    return [{t * tower.rank: field.one.raw} for t in range(dim)]


@given(_tower_operator())
def test_tower_generator_split_matches_k_basis_split(case):
    field, tower, A, dim, qs = case
    kdim = dim * tower.rank
    heads = _heads(field, tower, dim)
    got, got_mults = _split_level(tower, A[:: tower.rank], heads, kdim, qs)
    want, want_mults = _split_level(Tower(field), A, _unit_basis(kdim, field), kdim, qs)
    assert [(i, d) for i, _, d in got] == [(i, d) for i, _, d in want]
    assert got_mults == want_mults
    masks = _mask_matrices(tower, dim)
    for (i, gens, d), (_, vectors, _) in zip(got, want):
        translates = [field.mat_vec(R, g) for g in gens for R in masks]
        assert linalg.rank_of(field, translates) == d
        assert linalg.rank_of(field, translates + vectors) == d
        assert all(_kills(field, A, qs[i], kdim, v) for v in gens)


@given(_tower_operator(off_q=True))
def test_tower_generator_split_declines_off_q_eigenvalue(case):
    field, tower, A, dim, qs = case
    kdim = dim * tower.rank
    with pytest.raises(ArithmeticError, match="non-integral"):
        _split_level(tower, A[:: tower.rank], _heads(field, tower, dim), kdim, qs)
    with pytest.raises(ArithmeticError, match="non-integral"):
        _split_level(Tower(field), A, _unit_basis(kdim, field), kdim, qs)


def _one_operator_module(tower, A, dim, l):
    """A module of one letter whose X_1 + X_1^-1 is the full K-matrix A."""
    gens = {("X", 1, 1): A[:: tower.rank], ("X", 1, -1): [{} for _ in range(dim)]}
    return MatrixSupermodule(ScalarModel(l, tower), 1, (1,), (0,) * dim, gens)


@given(_tower_operator())
def test_modp_word_dims_match_exact_on_tower_operators(case):
    field, tower, A, dim, qs = case
    _assert_modp_agrees(_one_operator_module(tower, A, dim, len(qs)))


@given(_tower_operator(off_q=True))
def test_modp_word_dims_decline_off_q_eigenvalue(case):
    field, tower, A, dim, qs = case
    M = _one_operator_module(tower, A, dim, len(qs))
    ops = {1: M.gen(("X", 1, 1))}
    assert _certified_word_dims(M, ops) is None
    with pytest.raises(ArithmeticError, match="non-integral"):
        _exact_word_dims(M, ops)


def test_tower_generator_split_counts_a_non_free_eigenspace():
    # over d = 4 = 2^2 this element is q(0) on one idempotent half of the
    # tower and q(1) on the other: one generator, K-dimension 1 per eigenspace
    field = q_of(3, 0).field
    tower = Tower(field, [field.from_int(4)])
    q0, q1 = q_of(3, 0), q_of(3, 1)
    lam = tower.scalar((q0 + q1) * field.rational(1, 2)) + tower.gen(0) * tower.scalar(
        (q0 - q1) * field.rational(1, 4)
    )
    A = _kmat_from_rows(tower, [[lam]])
    qs = [q_of(3, i).raw for i in range(3)]
    parts, _ = _split_level(tower, A, _heads(field, tower, 1), 2, qs)
    assert [(i, len(gens), d) for i, gens, d in parts] == [(0, 1, 1), (1, 1, 1)]


def full_word_matrix(M, word):
    """Reference word matrix: the product of its generators' K-matrices."""
    acc = [{k: M.field.one.raw} for k in range(M.k_dim())]
    for key in word:
        acc = mat_mul(M.field, acc, _full_kmat(M.tower, M.gen(key)))
    return acc


def full_induce_gens(M):
    """Reference induced generators: every K-column from the full monomial matrices."""
    field, n, rank = M.field, M.n, M.rank
    alg = HeckeClifford(field, n)
    reps = alg.coset_representatives(M.mu)
    rep_pos = {w: k for k, w in enumerate(reps)}
    pos, _ = _product_basis([0] * len(reps), M.parity)
    place = [
        _k_positions(rank, [pos[(wk, b)] for b in range(M.dim)])
        for wk in range(len(reps))
    ]
    gens = {}
    for key in _gen_keys(n, (n,)):
        cols = [dict() for _ in range(len(pos) * rank)]
        for wk, w in enumerate(reps):
            for w2, h in alg.coset_action(M.mu, key, w).items():
                for mono, coeff in h.terms.items():
                    mat = full_word_matrix(M, mono.generator_sequence())
                    for c, col in enumerate(mat):
                        scaled = field.scale(col, coeff.raw)
                        moved = {place[rep_pos[w2]][i]: x for i, x in scaled.items()}
                        field.add_into(cols[place[wk][c]], moved)
        gens[key] = cols
    return gens


@pytest.mark.parametrize("rank", [2, 4])
def test_induce_derived_translates_match_full_chain(rank):
    if rank == 2:
        model = ScalarModel.for_indices(3, [0, 1])
        L0, L1 = build_L(3, 0, model), build_L(3, 1, model)
        inputs = [tensor_product(L1, L0), build_L_ij_star_L_i(3, 0, 1, model)]
    else:
        model = ScalarModel.for_indices(5, [2, 3])
        inputs = [tensor_product(build_L_ij(5, 2, 3, model), build_L(5, 2, model))]
    assert model.tower.rank == rank
    for M in inputs:
        gens = {k: _full_kmat(M.tower, G) for k, G in induce(M).gens.items()}
        assert gens == full_induce_gens(M)


# -- relations, epsilon and Delta against their K-basis oracles ----------------


def full_matrix_violations(M):
    """Reference relation report by full K-matrix products.

    Every word of a residual is the product of its generators' full
    K-matrices (the identity for ()), and a relation fails when the combined
    residual has a nonzero column.
    """
    f = M.field
    violations = []
    for key in M.gen_keys():
        odd = key[0] == "C"
        if any(
            (M.k_parity(i) != M.k_parity(j)) != odd
            for j, col in enumerate(_full_kmat(M.tower, M.gen(key)))
            for i in col
        ):
            violations.append(f"parity structure of {key}")
    coeffs = {1: f.one, -1: -f.one, "xi": f.xi, "-xi": -f.xi}
    for name, terms in _relation_list(M.n, M.t_indices()):
        total = [dict() for _ in range(M.k_dim())]
        for coeff, word in terms:
            for col, c in zip(total, full_word_matrix(M, word)):
                f.add_into(col, f.scale(c, coeffs[coeff].raw))
        if not mat_is_zero(total):
            violations.append(name)
    return violations


def _builder_modules(l):
    """Every explicit builder's modules at l, each over its default model."""
    mods = []
    for i in range(l):
        mods += [build_L(l, i), build_L_m(l, i, 2), build_R_m(l, i, 2)]
        for j in (i - 1, i + 1):
            if not 0 <= j < l:
                continue
            kinds = (type_of_letter(l, i), type_of_letter(l, j))
            if kinds != ("Q", "Q"):
                mods.append(build_L_ij(l, i, j))
            if kinds == ("Q", "M"):
                mods += [build_L_ij_star_L_i(l, i, j), build_L_iij(l, i, j)]
    if l == 2:
        mods += [build_L01(), build_L001(), build_L001_star_L0()]
    return mods


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_verify_relations_matches_full_matrix_oracle_on_builders(l):
    for M in _builder_modules(l):
        assert verify_relations(M) == full_matrix_violations(M) == [], M


def test_verify_relations_matches_full_matrix_oracle_on_constructions():
    mods, _ = _rank2_modules()
    L0, L2 = mods["L0"], build_L(3, 2, mods["L0"].model)
    star = circled_star(L0, theta_for_end_letter(L0), L2, theta_for_end_letter(L2))
    induced = induce(build_L_ij_star_L_i(3, 0, 1))
    for M in (induced, sigma_twist(induced), star):
        assert verify_relations(M) == full_matrix_violations(M) == [], M


@pytest.mark.parametrize(
    "build, rank",
    [
        (build_L01, 1),
        (lambda: build_L_ij(3, 0, 1, ScalarModel.for_indices(3, [0, 1])), 2),
        (lambda: build_L_ij(5, 2, 3, ScalarModel.for_indices(5, [2, 3])), 4),
    ],
    ids=["rank1", "rank2", "rank4"],
)
def test_verify_relations_matches_full_matrix_oracle_on_perturbations(build, rank):
    # one entry of one generator changed, written through _kmat_from_rows so
    # that the generator stays tower-linear
    base = build()
    tower = base.tower
    assert tower.rank == rank
    bump = tower.elem([base.field.one] * tower.rank)
    for key in base.gen_keys():
        rows = [
            [_column(base, key, c).get(r, tower.zero) for c in range(base.dim)]
            for r in range(base.dim)
        ]
        rows[0][0] = rows[0][0] + bump
        gens = dict(base.gens)
        gens[key] = _kmat_from_rows(tower, rows)
        M = MatrixSupermodule(base.model, base.n, base.mu, base.parity, gens)
        report = verify_relations(M)
        assert report and report == full_matrix_violations(M), key


def test_non_tower_linear_generator_is_reported_as_such():
    # a generator is stored as its images of the e_t, which fix a
    # tower-linear map; a full K-matrix, with a column per e_t r^mask, is the
    # one other shape that could be handed in, and it is refused
    M = build_L_ij(4, 1, 2)
    assert M.rank == 2
    full = _full_kmat(M.tower, M.gen(("X", 1, 1)))
    gens = {**M.gens, ("X", 1, 1): full}
    message = r"generator \('X', 1, 1\) has 8 columns, not 4"
    with pytest.raises(ValueError, match=message):
        MatrixSupermodule(M.model, M.n, M.mu, M.parity, gens)


# first 16 hex digits of sha256(repr(list)) of the defining relations, keyed
# by (n, t-index set); "all" is the full algebra's range(1, n)
_RELATION_LIST_DIGESTS = {
    (1, "none"): "e518f6b0d09b824f",
    (1, "all"): "e518f6b0d09b824f",
    (1, "1"): "e786d60be074f3ad",
    (1, "13"): "e01917b01f1bcf20",
    (2, "none"): "f46fdabbdac09776",
    (2, "all"): "7b4faa5f870255f4",
    (2, "1"): "7b4faa5f870255f4",
    (2, "13"): "9b6f8c415346858e",
    (3, "none"): "fcf19c1fc5db5030",
    (3, "all"): "e6691560b60b234c",
    (3, "1"): "696ce971e1c3daeb",
    (3, "13"): "952d64ad28f864b9",
    (4, "none"): "7d06e1e7762d9c81",
    (4, "all"): "793f9679751ce4c0",
    (4, "1"): "041d0cb7b97bff2e",
    (4, "13"): "de7e250330566bc1",
}


def test_relation_list_is_pinned():
    ts = {"none": lambda n: [], "all": lambda n: list(range(1, n))}
    ts.update({"1": lambda n: [1], "13": lambda n: [1, 3]})
    for (n, name), digest in _RELATION_LIST_DIGESTS.items():
        rels = _relation_list(n, ts[name](n))
        got = hashlib.sha256(repr(rels).encode()).hexdigest()[:16]
        assert got == digest, (n, name)
    # the shape of one entry: (coeff, word) terms, () the identity
    name, terms = _relation_list(2, [1])[-1]
    assert name == "(T1 + xi C1C2) X1 T1 = X2"
    t, x = ("T", 1), ("X", 1, 1)
    cc = (("C", 1), ("C", 2))
    assert terms == [(1, (t, x, t)), ("xi", (*cc, x, t)), (-1, (("X", 2, 1),))]


def k_basis_eigen_chain(M, i, parity=None):
    """Reference [V_1, .., V_n]: V_m the joint generalized eigenspace of the
    last m operators X_k + X_k^-1 at q(i), as a K-basis.

    The whole K-basis (of one parity, or of both) is cut down by one kernel
    chain per operator; no T-generator or r-translate is used.
    """
    lam = q_of(M.model.l, i).raw
    vectors, out = _k_basis(M, parity), []
    for k in range(M.n, 0, -1):
        op = _full_kmat(M.tower, _op_x_plus_xinv(M, k))
        vectors, _ = kernel_chain_eigs(M.field, op, lam, vectors)
        out.append(vectors)
    return out


@pytest.mark.parametrize(
    "build",
    [
        build_L001,
        lambda: build_L_iij(3, 0, 1),
        lambda: build_L_iij(4, 0, 1),
        lambda: induce(build_L_ij_star_L_i(3, 0, 1)),
        lambda: induce(tensor_product(build_L(3, 1), build_L(3, 1))),
    ],
    ids=[
        "L001",
        "L_iij-3-0-1",
        "L_iij-4-0-1",
        "induced-L_ij_star_L_i-3-0-1",
        "induced-L1-L1-3",
    ],
)
def test_epsilon_and_delta_match_k_basis_chains(build):
    M = build()
    for i in range(M.model.l):
        assert epsilon_i(M, i) == sum(1 for V in k_basis_eigen_chain(M, i) if V)
        even, odd = k_basis_eigen_chain(M, i, 0), k_basis_eigen_chain(M, i, 1)
        for m in range(1, M.n + 1):
            D = delta_im(M, i, m)
            spaces = even[m - 1] + odd[m - 1]
            if not spaces:
                assert D is None
                continue
            want = submodule(M, spaces, mu=(M.n - m, m) if M.n > m else (m,))
            assert (D.dim, D.mu) == (want.dim, want.mu)
            assert formal_character(D) == formal_character(want)


def test_supermodules_reaches_arithmetic_through_the_field():
    """supermodules does its vector arithmetic only through M.field.

    It imports no kernels, reads no reduction table .red, generated
    .product or generated .kernel_set, calls no K vector function of linalg
    and never looks inside a raw element, by unpacking a .raw into a tuple
    target or subscripting it, so what a raw element is and how it reduces
    is decided in scalars/linalg for Q(zeta_4l) and in modp for F_p only.
    """

    def k_vector_op(name):
        return name in ("vec_primitive", "mat_vec")

    def is_raw(node):
        return isinstance(node, ast.Attribute) and node.attr == "raw"

    tree = ast.parse(Path(supermodules.__file__).read_text())
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [module] + [a.name for a in node.names]
            bad += [n for n in names if "kernels" in n]
            if module == "linalg":
                bad += [n for n in names[1:] if k_vector_op(n)]
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            if (
                node.attr in ("red", "product", "kernel_set")
                or owner == "kernels"
                or (owner == "linalg" and k_vector_op(node.attr))
            ):
                bad.append(ast.unparse(node))
        elif isinstance(node, ast.Assign) and is_raw(node.value):
            if any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets):
                bad.append(ast.unparse(node))
        elif isinstance(node, ast.Subscript) and is_raw(node.value):
            bad.append(ast.unparse(node))
    assert bad == []


def _maps_applied_off_the_tower(source):
    """The mat_vec attributes not read off a tower, and any _derive_translates."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_derive_translates":
            bad.append(node.name)
        elif isinstance(node, ast.Attribute) and node.attr == "mat_vec":
            owner = node.value
            if "tower" not in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                bad.append(ast.unparse(node))
    return bad


def test_supermodules_applies_maps_only_through_the_tower():
    """Every map is stored as its mask-0 columns and applied by tower.mat_vec.

    supermodules calls mat_vec only on a tower (M.tower, tower), never on a
    field, so no map is applied as a plain K-matrix, and nothing derives the
    r-translated columns.
    """
    source = Path(supermodules.__file__).read_text()
    assert _maps_applied_off_the_tower(source) == []
