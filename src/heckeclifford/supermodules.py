"""Z/2-graded exact matrix representations over the scalar tower.

A module keeps one map per generator X_k^{+-1}, C_k, T_j (T indices
restricted to the parabolic shape) on a graded basis over the tower
F[r_1, r_2]/(r_k^2 - d_k), F = Q(zeta_4l).  Vectors are K-vectors, after
restriction of scalars to F: sparse raw dicts as in linalg, where index
t * rank + mask is basis vector t times the r-monomial mask.  A map over the
tower is tower-linear, so it is stored as its images of the mask-0 unit
vectors e_t, dim K-vectors with column t = G(e_t), and applied by
tower.mat_vec.  All rank, kernel and membership computations pivot over the
genuine field; module-level dimensions are field dimensions divided by the
tower rank, and an inexact division is reported so the caller can split the
ring and rebuild.  Vector arithmetic goes only through the tower and field
objects (M.tower, M.field), never through the raw element format.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from . import linalg, modp
from .algebra import HeckeClifford, t_indices
from .grothendieck import WordSum, ch_standard, e_drop, shuffle
from .scalars import (
    FieldElem,
    ScalarModel,
    q_of,
)


class InexactDivisionError(ArithmeticError):
    """A span over the tower is not free: its field dimension is not
    divisible by the tower rank.

    The only trigger for ring splitting.  It signals that a discriminant is a
    square in the field, so the quotient ring splits the space unevenly, and
    carries the module and vectors from which `discover_square_root` reads
    the root off the trace of r; `with_splitting` then rebuilds in the split
    ring.
    """

    def __init__(self, module, vectors, detail):
        super().__init__(detail)
        self.module = module
        self.vectors = vectors


class NotInvariantError(ValueError):
    """A subspace was not closed under a generator it must be closed under."""


def _k_positions(rank, positions):
    """K-index map of the tower index map t -> positions[t]."""
    return [p * rank + m for p in positions for m in range(rank)]


def _scatter(field, out, mat, rows, cols, scale=None):
    """out += scale * mat: column t of mat on column cols[t], row k on rows[k].

    scale is a raw base-field element, such as an odd sign; None means one.
    """
    for t, col in enumerate(mat):
        if col:
            if scale is not None:
                col = field.scale(col, scale)
            field.add_into(out[cols[t]], {rows[k]: v for k, v in col.items()})
    return out


def _kmat_from_rows(tower, rows):
    """Dense row-major lists (TowerElem/FieldElem/int) to mask-0 columns.

    Entry (i, j)'s r-monomial coordinates go to rows i * rank + mask of column j.
    """
    rank = tower.rank
    cols = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, (int, FieldElem)):
                v = tower.scalar(v)
            for mask, c in enumerate(v.coords):
                if not c.is_zero():
                    cols[j][i * rank + mask] = c.raw
    return cols


class MatrixSupermodule:
    """The generators of a parabolic on a graded basis over the tower.

    parity is even-block-first; mu is the parabolic composition (the full
    algebra is mu = (n,)).  gens maps each generator key to its dim mask-0
    columns (else ValueError); it is read-only, because word chains are
    cached (_chain): a module with other generators is a new module.
    """

    def __init__(self, model, n, mu, parity, gens):
        self.model = model
        self.tower = model.tower
        self.field = model.field
        self.n = n
        self.mu = tuple(mu)
        if sum(self.mu) != n:
            raise ValueError("composition does not sum to the rank")
        self.parity = tuple(parity)
        self.dim = len(self.parity)
        if any(self.parity[k] > self.parity[k + 1] for k in range(self.dim - 1)):
            raise ValueError("basis must be even-block-first")
        self.gens = MappingProxyType(dict(gens))
        for key, G in self.gens.items():
            if len(G) != self.dim:
                n = len(G)
                raise ValueError(f"generator {key} has {n} columns, not {self.dim}")
        self._rho_cache = {}

    # -- structure ---------------------------------------------------------

    def t_indices(self):
        return t_indices(self.mu)

    def gen_keys(self):
        return _gen_keys(self.n, self.mu)

    def gen(self, key):
        return self.gens[key]

    @property
    def rank(self):
        return self.tower.rank

    def k_dim(self):
        return self.dim * self.rank

    def k_parity(self, k_index):
        return self.parity[k_index // self.rank]

    # -- scalar expansion ----------------------------------------------------

    def t_vector_to_k(self, coords):
        """T-coordinate dict {index: TowerElem} to a K-vector."""
        out = {}
        for t, x in coords.items():
            for mask, c in enumerate(x.coords):
                if not c.is_zero():
                    out[t * self.rank + mask] = c.raw
        return out

    def k_vector_to_t(self, vec):
        """K-vector back to T-coordinates."""
        out = {}
        for kidx, rawv in vec.items():
            t, mask = divmod(kidx, self.rank)
            coords = out.setdefault(t, [self.field.zero] * self.rank)
            coords[mask] = FieldElem(self.field, rawv)
        return {t: self.tower.elem(cs) for t, cs in out.items()}

    def unit_k_vector(self, t):
        """The mask-0 unit vector e_t; the e_t are T-generators of K^(dim*rank)."""
        return {t * self.rank: self.field.one.raw}

    # -- algebra-element action ----------------------------------------------

    def rho(self, mono):
        """Mask-0 K-columns of a normal monomial's matrix, one per basis vector.

        Column t is the image of e_t under the product of the monomial's
        generators, built as a chain of mat_vecs from the right; the chain of
        every suffix is cached, so monomials that end alike share it.  The
        product is tower-linear, so these columns fix it.
        """
        return self._chain(tuple(mono.generator_sequence()))

    def _chain(self, seq):
        cached = self._rho_cache.get(seq)
        if cached is None:
            if len(seq) == 1:
                cached = self.gen(seq[0])  # its columns are G(e_t) already
            elif seq:
                G = self.gen(seq[0])
                cached = [self.tower.mat_vec(G, v) for v in self._chain(seq[1:])]
            else:
                cached = [self.unit_k_vector(t) for t in range(self.dim)]
            self._rho_cache[seq] = cached
        return cached

    def __repr__(self):
        return (
            f"MatrixSupermodule(n={self.n}, mu={self.mu}, dim={self.dim}, "
            f"tower_rank={self.rank})"
        )


# -- relation verification ----------------------------------------------------


def _relation_list(n, ts):
    """Names and residuals of all defining relations.

    A residual is a list of (coeff, word) terms, coeff 1, -1, "xi" or "-xi";
    a word is a tuple of generator keys whose product is applied right to
    left, and () is the identity.  A relation holds when its residual, the
    sum of coeff * word, is the zero map.
    """
    ts = sorted(set(ts))
    rels = []

    def commute(name, a, b, sign=-1):
        rels.append((name, [(1, (a, b)), (sign, (b, a))]))

    for i in range(1, n + 1):
        x, xinv, c = ("X", i, 1), ("X", i, -1), ("C", i)
        rels.append((f"X{i} X{i}^-1 = 1", [(1, (x, xinv)), (-1, ())]))
        rels.append((f"X{i}^-1 X{i} = 1", [(1, (xinv, x)), (-1, ())]))
        rels.append((f"C{i}^2 = 1", [(1, (c, c)), (-1, ())]))
        for j in range(i + 1, n + 1):
            for s in (1, -1):
                for t in (1, -1):
                    commute(f"X{i}^{s} X{j}^{t} commute", ("X", i, s), ("X", j, t))
            commute(f"C{i} C{j} anticommute", c, ("C", j), 1)
        for j in range(1, n + 1):
            for s in (1, -1):
                if i == j:
                    terms = [(1, (c, ("X", i, s))), (-1, (("X", i, -s), c))]
                    rels.append((f"C{i} X{i}^{s} = X{i}^{-s} C{i}", terms))
                else:
                    commute(f"C{i} X{j}^{s} commute", c, ("X", j, s))
    for i in ts:
        t, c, c1, x = ("T", i), ("C", i), ("C", i + 1), ("X", i, 1)
        rels.append((f"T{i}^2 = xi T{i} + 1", [(1, (t, t)), ("-xi", (t,)), (-1, ())]))
        rels.append((f"T{i} C{i} = C{i+1} T{i}", [(1, (t, c)), (-1, (c1, t))]))
        terms = [(1, (t, x, t)), ("xi", (c, c1, x, t)), (-1, (("X", i + 1, 1),))]
        rels.append((f"(T{i} + xi C{i}C{i+1}) X{i} T{i} = X{i+1}", terms))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                commute(f"T{i} C{j} commute", t, ("C", j))
                for s in (1, -1):
                    commute(f"T{i} X{j}^{s} commute", t, ("X", j, s))
        for j in ts:
            if j >= i + 2:
                commute(f"T{i} T{j} commute", t, ("T", j))
        if i + 1 in ts:
            b = ("T", i + 1)
            rels.append((f"T{i} T{i+1} T{i} braid", [(1, (t, b, t)), (-1, (b, t, b))]))
    return rels


def verify_relations(M):
    """Report of parity-structure and relation defects.

    Each generator must be parity-homogeneous: column t, G(e_t), meets only
    rows of parity M.parity[t] (G even) or only the other one (G odd).  A
    relation's residual is tower-linear, as every generator is, so it
    vanishes exactly when it kills every mask-0 unit vector e_t: each word is
    applied to the e_t only, through the module's cached word chains.
    """
    field = M.field
    violations = []
    for key in M.gen_keys():
        odd = key[0] == "C"
        if any(
            (M.k_parity(i) != M.parity[t]) != odd
            for t, col in enumerate(M.gen(key))
            for i in col
        ):
            violations.append(f"parity structure of {key}")
    scale = {-1: (-field.one).raw, "xi": field.xi.raw, "-xi": (-field.xi).raw}
    for name, terms in _relation_list(M.n, M.t_indices()):
        for t in range(M.dim):
            total = {}
            for coeff, word in terms:
                col = M._chain(word)[t]
                if coeff != 1:
                    col = field.scale(col, scale[coeff])
                field.add_into(total, col)
            if total:
                violations.append(name)
                break
    return violations


# -- explicit builders ---------------------------------------------------------


def _jordan_rows(tower, b, m):
    rows = [[tower.zero] * m for _ in range(m)]
    for r in range(m):
        rows[r][r] = b
        if r > 0:
            rows[r][r - 1] = tower.one
    return rows


def _jordan_inverse_rows(tower, b, binv, m):
    # inverse of the lower-bidiagonal Jordan block: (-1)^(r-c) b^-(r-c+1)
    rows = [[tower.zero] * m for _ in range(m)]
    for r in range(m):
        for c in range(r + 1):
            v = binv ** (r - c + 1)
            if (r - c) & 1:
                v = -v
            rows[r][c] = v
    return rows


def type_of_letter(l, i):
    """Single-letter type: "Q" iff q(i) = +-2, i.e. an end index."""
    return "Q" if i in (0, l - 1) else "M"


def build_L_m(l, i, m, sign=1, model=None):
    """The 2m-dimensional rank-1 module with Jordan-block X-action."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if model is None:
        model = ScalarModel.for_indices(l, [i])
    t = model.tower
    b = model.b(i, sign)
    binv = model.b(i, -sign)  # b_+ b_- = 1
    J = _jordan_rows(t, b, m)
    Jinv = _jordan_inverse_rows(t, b, binv, m)
    dim = 2 * m
    zero = [[t.zero] * m for _ in range(m)]

    def block(a, bb, c, d):
        rows = []
        for r in range(m):
            rows.append(list(a[r]) + list(bb[r]))
        for r in range(m):
            rows.append(list(c[r]) + list(d[r]))
        return rows

    eye = [[t.one if r == c else t.zero for c in range(m)] for r in range(m)]
    gens = {
        ("X", 1, 1): _kmat_from_rows(t, block(J, zero, zero, Jinv)),
        ("X", 1, -1): _kmat_from_rows(t, block(Jinv, zero, zero, J)),
        ("C", 1): _kmat_from_rows(t, block(zero, eye, eye, zero)),
    }
    parity = (0,) * m + (1,) * m
    return MatrixSupermodule(model, 1, (1,), parity, gens)


def build_L(l, i, model=None):
    return build_L_m(l, i, 1, 1, model)


def build_R_m(l, i, m, model=None):
    """Left-regular module of the rank-1 polynomial quotient.

    Realized through the even isomorphism with L^+_m + L^-_m when the
    discriminant is nonzero, and with L_m alone when q(i) = +-2.
    """
    if model is None:
        model = ScalarModel.for_indices(l, [i])
    if type_of_letter(l, i) == "Q":
        return build_L_m(l, i, m, 1, model)
    return direct_sum(build_L_m(l, i, m, 1, model), build_L_m(l, i, m, -1, model))


def direct_sum(M, N):
    if M.tower is not N.tower or M.n != N.n or M.mu != N.mu:
        raise ValueError("summands must share the model and shape")
    parity = []
    index = []  # (which, original index)
    for p in (0, 1):
        for a in range(M.dim):
            if M.parity[a] == p:
                parity.append(p)
                index.append((0, a))
        for b in range(N.dim):
            if N.parity[b] == p:
                parity.append(p)
                index.append((1, b))
    pos = {key: k for k, key in enumerate(index)}
    place_m = [pos[(0, a)] for a in range(M.dim)]
    place_n = [pos[(1, b)] for b in range(N.dim)]
    rows_m, rows_n = _k_positions(M.rank, place_m), _k_positions(M.rank, place_n)
    gens = {}
    for key in M.gen_keys():
        cols = [{} for _ in parity]
        _scatter(M.field, cols, M.gen(key), rows_m, place_m)
        gens[key] = _scatter(M.field, cols, N.gen(key), rows_n, place_n)
    return MatrixSupermodule(M.model, M.n, M.mu, parity, gens)


def build_L_ij(l, i, j, model=None):
    """The 4-dimensional rank-2 irreducible on the basis {X, Y, C1 X, C1 Y}."""
    if abs(i - j) != 1:
        raise ValueError("indices must be adjacent")
    if type_of_letter(l, i) == "Q" and type_of_letter(l, j) == "Q":
        raise ValueError("both letters of type Q is excluded")
    if model is None:
        model = ScalarModel.for_indices(l, [i, j])
    t = model.tower
    f = model.field
    bpi, bmi = model.b(i, 1), model.b(i, -1)
    bpj, bmj = model.b(j, 1), model.b(j, -1)
    qi, qj = q_of(l, i), q_of(l, j)
    s = t.scalar(f.xi * (qj - qi).inverse())
    z = t.zero
    # The odd-block diagonal of the first X is forced by C1 X1 = X1^-1 C1:
    # the Clifford pairing swaps the eigenvalues on {C1 X, C1 Y}.
    gens = {
        ("X", 1, 1): _kmat_from_rows(
            t,
            [[bpi, z, z, z], [z, bmi, z, z], [z, z, bmi, z], [z, z, z, bpi]],
        ),
        ("X", 1, -1): _kmat_from_rows(
            t,
            [[bmi, z, z, z], [z, bpi, z, z], [z, z, bpi, z], [z, z, z, bmi]],
        ),
        ("X", 2, 1): _kmat_from_rows(
            t,
            [[bpj, z, z, z], [z, bmj, z, z], [z, z, bpj, z], [z, z, z, bmj]],
        ),
        ("X", 2, -1): _kmat_from_rows(
            t,
            [[bmj, z, z, z], [z, bpj, z, z], [z, z, bmj, z], [z, z, z, bpj]],
        ),
        ("C", 1): _kmat_from_rows(
            t, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        ),
        ("C", 2): _kmat_from_rows(
            t, [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        ),
        ("T", 1): _kmat_from_rows(
            t,
            [
                [(bpj - bmi) * s, (bmi - bmj) * s, z, z],
                [(bpj - bpi) * s, (bmj - bpi) * s, z, z],
                [z, z, (bpj - bpi) * s, (bmj - bpi) * s],
                [z, z, (bmi - bpj) * s, (bmj - bmi) * s],
            ],
        ),
    }
    return MatrixSupermodule(model, 2, (2,), (0, 0, 1, 1), gens)


def build_L01(model=None):
    """The 2-dimensional rank-2 module at l = 2 on the block (0, 1)."""
    l = 2
    if model is None:
        model = ScalarModel.for_indices(l, [])
    t = model.tower
    f = model.field
    q = f.q
    q2, q3 = f.zeta_pow(2), f.zeta_pow(3)
    gens = {
        ("X", 1, 1): _kmat_from_rows(t, [[1, 0], [0, 1]]),
        ("X", 1, -1): _kmat_from_rows(t, [[1, 0], [0, 1]]),
        ("X", 2, 1): _kmat_from_rows(t, [[-1, 0], [0, -1]]),
        ("X", 2, -1): _kmat_from_rows(t, [[-1, 0], [0, -1]]),
        ("C", 1): _kmat_from_rows(t, [[0, 1], [1, 0]]),
        ("C", 2): _kmat_from_rows(t, [[f.zero, -q2], [q2, f.zero]]),
        ("T", 1): _kmat_from_rows(t, [[q, f.zero], [f.zero, q3]]),
    }
    return MatrixSupermodule(model, 2, (2,), (0, 1), gens)


def build_L001(model=None):
    """The 8-dimensional rank-3 module at l = 2 on the block (0, 0, 1)."""
    l = 2
    if model is None:
        model = ScalarModel.for_indices(l, [])
    t = model.tower
    f = model.field
    q = f.q
    qm1 = f.zeta_pow(-1)
    q2, q3 = f.zeta_pow(2), f.zeta_pow(3)
    one, zero = f.one, f.zero
    two = f.from_int(2)
    three = f.from_int(3)

    mx1 = [
        [one, zero, -two, 2 * q],
        [zero, one, 2 * q, -2 * q2],
        [two, 2 * qm1, one, zero],
        [2 * qm1, -2 * q2, zero, one],
    ]
    mx2 = [
        [-one, -2 * qm1, zero, zero],
        [2 * q, three, zero, zero],
        [zero, zero, -one, 2 * q],
        [zero, zero, -2 * qm1, three],
    ]
    mc1 = [
        [q2, zero, 2 * q2, 2 * qm1],
        [zero, q2, 2 * qm1, -two],
        [2 * q2, 2 * q, -q2, zero],
        [2 * q, two, zero, -q2],
    ]
    mc2 = [
        [zero, zero, q2, zero],
        [zero, zero, 2 * qm1, -one],
        [q2, zero, zero, zero],
        [2 * q, one, zero, zero],
    ]
    mc3 = [
        [zero, zero, -one, zero],
        [zero, zero, zero, q2],
        [one, zero, zero, zero],
        [zero, q2, zero, zero],
    ]
    mt1 = [
        [q3, q2, -q3, -one],
        [zero, q3, zero, q],
        [q3, q2, q3, one],
        [zero, q, zero, q3],
    ]
    mt2 = [[q3 + q, one], [one, zero]]

    s = (one + q2).inverse()

    def blockdiag2(m4):
        rows = [[zero] * 8 for _ in range(8)]
        for r in range(4):
            for c in range(4):
                rows[r][c] = m4[r][c]
                rows[4 + r][4 + c] = m4[r][c]
        return rows

    def cmat(m4):
        rows = [[zero] * 8 for _ in range(8)]
        for r in range(4):
            for c in range(4):
                rows[r][4 + c] = m4[r][c]
                rows[4 + r][c] = -m4[r][c]
        return rows

    x1 = blockdiag2(mx1)
    x2 = blockdiag2(mx2)
    x1_inv = [[2 * one if r == c else zero for c in range(8)] for r in range(8)]
    x2_inv = [[2 * one if r == c else zero for c in range(8)] for r in range(8)]
    for r in range(8):
        for c in range(8):
            x1_inv[r][c] = x1_inv[r][c] - x1[r][c]
            x2_inv[r][c] = x2_inv[r][c] - x2[r][c]
    t1 = [[s * v for v in row] for row in blockdiag2(mt1)]
    t2rows = [[zero] * 8 for _ in range(8)]
    for b in range(4):
        for r in range(2):
            for c in range(2):
                t2rows[2 * b + r][2 * b + c] = mt2[r][c]
    neg_e8 = [[-one if r == c else zero for c in range(8)] for r in range(8)]
    gens = {
        ("X", 1, 1): _kmat_from_rows(t, x1),
        ("X", 1, -1): _kmat_from_rows(t, x1_inv),
        ("X", 2, 1): _kmat_from_rows(t, x2),
        ("X", 2, -1): _kmat_from_rows(t, x2_inv),
        ("X", 3, 1): _kmat_from_rows(t, neg_e8),
        ("X", 3, -1): _kmat_from_rows(t, neg_e8),
        ("C", 1): _kmat_from_rows(t, cmat(mc1)),
        ("C", 2): _kmat_from_rows(t, cmat(mc2)),
        ("C", 3): _kmat_from_rows(t, cmat(mc3)),
        ("T", 1): _kmat_from_rows(t, t1),
        ("T", 2): _kmat_from_rows(t, t2rows),
    }
    return MatrixSupermodule(model, 3, (3,), (0, 0, 0, 0, 1, 1, 1, 1), gens)


def _append_letter(M, x, c_rows):
    """M and one more letter, its own block: X^{+-1} = x = x^-1, C = c_rows."""
    t, n = M.tower, M.n + 1
    scalar = [[x if r == c else 0 for c in range(M.dim)] for r in range(M.dim)]
    gens = dict(M.gens)
    gens[("X", n, 1)] = _kmat_from_rows(t, scalar)
    gens[("X", n, -1)] = _kmat_from_rows(t, scalar)
    gens[("C", n)] = _kmat_from_rows(t, c_rows)
    return MatrixSupermodule(M.model, n, M.mu + (1,), M.parity, gens)


def build_L001_star_L0(model=None):
    """The rank-(3,1) extension of the block-(0,0,1) module by a fourth letter."""
    return _star_L0(build_L001(model))


def _star_L0(L001):
    """L001 and a fourth letter: X_4 = 1, and C_4 swaps the two halves with sign -1."""
    c4 = [[0] * 8 for _ in range(8)]
    for r in range(4):
        c4[r][4 + r] = c4[4 + r][r] = -1
    return _append_letter(L001, 1, c4)


def build_L_ij_star_L_i(l, i, j, model=None):
    """The 4-dimensional rank-(2,1) realization used in the type-(Q, M) block.

    build_L_ij on the basis {X', Y', C1 X', C1 Y'} (its X_1 is a = q(i)/2 =
    +-1, since d_i = 0), and a third letter i: X_3 = a and a C_3 into which
    sqrt(-1) enters.
    """
    if type_of_letter(l, i) != "Q" or type_of_letter(l, j) != "M":
        raise ValueError("needs (type, type) = (Q, M)")
    W = build_L_ij(l, i, j, model)
    t = W.tower
    rt, z = t.scalar(W.field.sqrt_minus1), t.zero
    c3 = [[z, z, rt, z], [z, z, z, -rt], [-rt, z, z, z], [z, rt, z, z]]
    return _append_letter(W, q_of(l, i) * Fraction(1, 2), c3)


# -- tensor, induction, twisting ------------------------------------------------


def _product_basis(left, right):
    """Even-first order of the basis pairs (a, b) of two graded bases.

    left and right are the parity lists of the factors.  Returns (pos,
    parity): pos maps each pair to its index in the order sorted by (parity,
    pair), and parity lists the parities in that order.
    """
    pairs = [(a, b) for a in range(len(left)) for b in range(len(right))]
    parity = {p: (left[p[0]] + right[p[1]]) & 1 for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    return {p: k for k, p in enumerate(order)}, [parity[p] for p in order]


def _tensor_one(G, field, rank, pos, left_dim, right_dim):
    """G (x) 1 on the tensor basis pos, for a map G of the left factor."""
    out = [{} for _ in pos]
    for b in range(right_dim):
        place = [pos[(a, b)] for a in range(left_dim)]
        _scatter(field, out, G, _k_positions(rank, place), place)
    return out


def _one_tensor(G, field, rank, pos, left_parity, right_dim, odd):
    """1 (x) G on the tensor basis pos, with the sign (-1)^|a| of an odd G."""
    minus = (-field.one).raw
    out = [{} for _ in pos]
    for a, p in enumerate(left_parity):
        place = [pos[(a, b)] for b in range(right_dim)]
        sign = minus if odd and p else None
        _scatter(field, out, G, _k_positions(rank, place), place, sign)
    return out


def tensor_product(M, N):
    """Outer tensor product as a module over the concatenated parabolic."""
    if M.tower is not N.tower:
        raise ValueError("align the scalar models before tensoring")
    pos, parity = _product_basis(M.parity, N.parity)
    m = M.n
    gens = {}
    for key in M.gen_keys():
        gens[key] = _tensor_one(M.gen(key), M.field, M.rank, pos, M.dim, N.dim)
    for key in N.gen_keys():
        new_key = (key[0], key[1] + m) + key[2:]
        gens[new_key] = _one_tensor(
            N.gen(key), M.field, M.rank, pos, M.parity, N.dim, key[0] == "C"
        )
    return MatrixSupermodule(M.model, M.n + N.n, M.mu + N.mu, parity, gens)


def _act(M, h, out, rows, cols):
    """out += the matrix of the algebra element h on M, placed by _scatter."""
    one = M.field.one
    for mono, coeff in h.terms.items():
        # most coefficients are one; scaling by it would cost a
        # multiplication per entry
        scale = None if coeff == one else coeff.raw
        _scatter(M.field, out, M.rho(mono), rows, cols, scale)
    return out


def induce(M):
    """Induction from the parabolic of shape M.mu to the full algebra.

    The mask-0 columns of each coset block are the mask-0 columns of M.rho,
    scaled and moved to their blocks.
    """
    field = M.field
    n = M.n
    rank = M.rank
    alg = HeckeClifford(field, n)
    reps = alg.coset_representatives(M.mu)
    rep_pos = {w: k for k, w in enumerate(reps)}
    pos, parity = _product_basis([0] * len(reps), M.parity)
    blocks = [[pos[(wk, b)] for b in range(M.dim)] for wk in range(len(reps))]
    place = [_k_positions(rank, block) for block in blocks]
    gens = {}
    for key in _gen_keys(n, (n,)):
        cols = [{} for _ in pos]
        for wk, w in enumerate(reps):
            for w2, h in alg.coset_action(M.mu, key, w).items():
                _act(M, h, cols, place[rep_pos[w2]], blocks[wk])
        gens[key] = cols
    return MatrixSupermodule(M.model, n, (n,), parity, gens)


def sigma_twist(M):
    """Pullback along HeckeClifford.sigma: g acts as sigma(g) on M (full modules only)."""
    if M.mu != (M.n,):
        raise ValueError("sigma twist needs the full algebra")
    alg = HeckeClifford(M.field, M.n)
    rows, cols = range(M.k_dim()), range(M.dim)
    gens = {}
    for key in M.gen_keys():
        h = alg.sigma(alg.gen_elem(key))
        gens[key] = _act(M, h, [{} for _ in cols], rows, cols)
    return MatrixSupermodule(M.model, M.n, (M.n,), M.parity, gens)


# -- subspaces over the tower -----------------------------------------------


def _gen_keys(n, mu):
    keys = []
    for k in range(1, n + 1):
        keys.append(("X", k, 1))
        keys.append(("X", k, -1))
        keys.append(("C", k))
    keys.extend(("T", j) for j in t_indices(mu))
    return keys


def tower_span(M, k_vectors):
    """T-basis of the T-span of the given K-vectors.

    Returns (basis, tracker): basis is a list of parity-homogeneous K-vectors
    whose r-monomial translates are inserted in the tracker under tags
    (s, mask); raises InexactDivisionError if the span is not free.
    """
    tracker = linalg.Tracker(M.field)
    basis = []
    for v in k_vectors:
        if not v:
            continue
        if tracker.contains(v):
            continue
        s = len(basis)
        basis.append(v)
        for mask, tv in enumerate(M.tower.translates(v)):
            tracker.insert(tv, (s, mask))
    if tracker.dim != len(basis) * M.rank:
        raise InexactDivisionError(
            M,
            k_vectors,
            f"span has field dimension {tracker.dim}, not "
            f"{len(basis)} * {M.rank}; a discriminant must be a square",
        )
    return basis, tracker


def _vector_parity(M, v):
    ps = {M.k_parity(k) for k in v}
    if len(ps) != 1:
        raise ValueError("vector is not parity homogeneous")
    return ps.pop()


def _subquotient(M, tracker, vectors, split, mu, extra_ops):
    """(N, M/N): N on the T-span of vectors[:split], M/N on vectors[split:].

    vectors is a T-basis of a span whose r-translates are in the tracker
    under tags (s, mask); each must be parity-homogeneous (else ValueError).
    For each generator and extra op G (M.dim columns, else ValueError), G v_s
    is expressed once in the tracker; its coordinates on v_s's own half, even
    vectors first, are that half's column for v_s.  Raises NotInvariantError
    unless G keeps the span and N.
    """
    pars = [_vector_parity(M, v) for v in vectors]
    halves = (range(split), range(split, len(vectors)))
    orders = [sorted(h, key=lambda s: (pars[s], s)) for h in halves]
    at = {s: k * M.rank for o in orders for k, s in enumerate(o)}  # K-offset in half

    def restrict(G, name):
        if len(G) != M.dim:
            raise ValueError(f"{name} has {len(G)} columns, not {M.dim}")
        cols = []
        for s, v in enumerate(vectors):
            coords = tracker.express(M.tower.mat_vec(G, v))
            if coords is None:
                raise NotInvariantError(f"span not closed under {name}")
            in_n = s < split
            col = {at[t] + m: x for (t, m), x in coords.items() if (t < split) == in_n}
            if in_n and len(col) < len(coords):
                raise NotInvariantError(f"quotiented span not closed under {name}")
            cols.append(col)
        return cols

    gens = {key: restrict(M.gen(key), key) for key in _gen_keys(M.n, mu)}
    ops = (extra_ops or {}).items()
    extra = {name: restrict(op, f"extra op {name}") for name, op in ops}

    def half(o):
        gens_o = {key: [cols[s] for s in o] for key, cols in gens.items()}
        part = MatrixSupermodule(M.model, M.n, mu, [pars[s] for s in o], gens_o)
        part.extra = {name: [cols[s] for s in o] for name, cols in extra.items()}
        return part

    return half(orders[0]), half(orders[1])


def submodule(M, k_vectors, mu=None, extra_ops=None):
    """Sub-supermodule on the T-span of the K-vectors (invariance required).

    Its T-basis is tower_span's; generators and extra_ops (names to maps on
    M, stored as generators are, restricted alongside, landing in the
    output's .extra dict) are restricted by _subquotient.
    """
    basis, tracker = tower_span(M, k_vectors)
    if not basis:
        raise ValueError("zero subspace has no module structure")
    return _subquotient(M, tracker, basis, len(basis), mu or M.mu, extra_ops)[0]


def quotient(M, k_vectors, mu=None, extra_ops=None):
    """(N, M/N) for the T-span N of the K-vectors.

    N's T-basis and tracker come from tower_span; each unit vector e_t outside
    the span so far is a representative, inserted with its r-translates.  The
    tracker then spans every e_t and, spanned by r-translates, is closed under
    r, so it is all of K^(dim * rank); M/N is free only if that dimension is
    (|N-basis| + |reps|) * rank, else InexactDivisionError.  Generators and
    extra_ops are restricted to N and pushed to M/N by _subquotient in one
    pass, which also checks that N is graded (ValueError) and invariant
    (NotInvariantError); N is then what submodule returns on the same vectors.
    """
    basis, tracker = tower_span(M, k_vectors)
    vectors = list(basis)
    for t in range(M.dim):
        unit = M.unit_k_vector(t)
        if not tracker.contains(unit):
            for mask, tv in enumerate(M.tower.translates(unit)):
                tracker.insert(tv, (len(vectors), mask))
            vectors.append(unit)
    if tracker.dim != len(vectors) * M.rank:
        raise InexactDivisionError(
            M, k_vectors, "quotient dimension not divisible by the tower rank"
        )
    return _subquotient(M, tracker, vectors, len(basis), mu or M.mu, extra_ops)


# -- generalized eigenspaces and characters -----------------------------------


def _op_x_plus_xinv(M, k):
    """Mask-0 columns of X_k + X_k^-1."""
    a = M.gen(("X", k, 1))
    b = M.gen(("X", k, -1))
    out = []
    for ca, cb in zip(a, b):
        col = dict(ca)
        M.field.add_into(col, cb)
        out.append(col)
    return out


def _shift(tower, op_cols, lam, v):
    """(A - lam) v for a raw element lam of the tower's field."""
    w = tower.mat_vec(op_cols, v)
    tower.field.submul_into(w, v, lam)
    return w


def _word_d_factor(l, word):
    m = sum(1 for k in word if type_of_letter(l, k) == "Q")
    return 1 << (len(word) - m // 2)


def _divide_by_root(field, poly, q):
    """Synthetic division of poly (coefficients low degree first) by x - q."""
    acc = poly[-1]
    out = [acc]
    for a in reversed(poly[:-1]):
        acc = field.add(a, field.mul(q, acc))
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem


def _krylov_min_poly(tower, op_cols, v):
    """Monic minimal polynomial of v under A, coefficients low degree first.

    Inserts v, Av, A^2 v, .. into one Tracker until the first dependency.
    """
    tracker = linalg.Tracker(tower.field)
    degree = 0
    while True:
        dep = tracker.insert(v, degree)
        if dep is not None:
            break
        v = tower.mat_vec(op_cols, v)
        degree += 1
    return [dep.get(j, tower.field.zero_raw) for j in range(degree + 1)]


def _apply_poly(tower, op_cols, roots, mults, cofactors, v):
    """f(A) v by mat_vec only.

    f is the product of the cofactors and of the (x - roots[i])^mults[i];
    each cofactor is monic, low degree first, and applied by Horner.
    """
    for poly in cofactors:
        w = v
        for a in reversed(poly[:-1]):
            w = tower.mat_vec(op_cols, w)
            tower.field.add_into(w, tower.field.scale(v, a))
        v = w
    for q, e in zip(roots, mults):
        for _ in range(e):
            if not v:
                return v
            v = _shift(tower, op_cols, q, v)
    return v


def _min_poly(tower, op_cols, vectors, roots, integral):
    """Minimal polynomial of A on the A-invariant span of the vectors.

    Probes the sum of the vectors first, then the residual f(A) b of every
    vector b that the product f so far does not kill, and multiplies the
    residual's minimal polynomial into f.  Each factor divides mu / f, where
    mu is the minimal polynomial, so f divides mu throughout; once f kills
    every vector, f = mu, and that exactness is the certificate.  Returns
    (mults, cofactors): mults[i] is the multiplicity of roots[i] in mu, and
    the cofactors multiply to its root-free part.  With integral, a factor
    without a root among the roots raises "non-integral eigenvalue" at once.

    The vectors are T-generators of a T-span and A is tower-linear: then
    f(A)(g r) = (f(A) g) r and r is invertible, so f kills the T-span
    exactly when it kills the generators, and mu on the T-span is certified
    the same way.  The tower's field is Q(zeta_4l) or F_p (see _word_dims).
    """
    mults = [0] * len(roots)
    cofactors = []
    total = {}
    for b in vectors:
        tower.field.add_into(total, b)
    for b in [total] + vectors:
        r = _apply_poly(tower, op_cols, roots, mults, cofactors, b)
        if not r:
            continue
        poly = _krylov_min_poly(tower, op_cols, r)
        for i, q in enumerate(roots):
            while len(poly) > 1:
                quot, rem = _divide_by_root(tower.field, poly, q)
                if rem != tower.field.zero_raw:
                    break
                poly = quot
                mults[i] += 1
        if len(poly) > 1:
            if integral:
                raise ArithmeticError(
                    "non-integral eigenvalue: a root of the minimal "
                    "polynomial is no q(i)"
                )
            cofactors.append(poly)
    return mults, cofactors


def _image(tower, op_cols, roots, mults, cofactors, gens):
    """T-generators and dimension over the field of f(A) on the T-span of gens.

    f is as in _apply_poly.  A is tower-linear, so the image is the T-span
    of the f(A) g: each goes into one Echelon with its r-translates, and the
    Echelon's rank is the exact dimension.  Returns (images, kdim), the
    images that raised the rank in the field's primitive form.  Over the
    rank-1 tower Tower(field) the gens are plain field vectors.
    """
    field = tower.field
    image = linalg.Echelon(field)
    out = []
    for g in gens:
        w = _apply_poly(tower, op_cols, roots, mults, cofactors, g)
        if image.insert(w):
            out.append(field.primitive(w))
            for tw in tower.translates(w)[1:]:
                image.insert(tw)
    return out, image.dim


def generalized_eigs(tower, op_cols, lam, gens):
    """Generalized eigenspace of A at lam inside the T-span of gens, and its depth.

    Returns (vectors, depth): depth is the multiplicity of lam in the minimal
    polynomial of A on the span, the size of its largest Jordan block at lam
    (0 when lam is no eigenvalue), and the vectors are T-generators of the
    image of the polynomial's root-free cofactor, which is ker (A - lam)^depth
    (see _image).  Requires the span to be A-invariant.
    """
    (depth,), cofactors = _min_poly(tower, op_cols, gens, [lam], integral=False)
    if not depth:
        return [], 0
    return _image(tower, op_cols, [lam], [0], cofactors, gens)[0], depth


def jordan_block_max(M, op_cols, lam):
    """Maximal Jordan block size at the eigenvalue of a map given as mask-0 columns."""
    units = [M.unit_k_vector(t) for t in range(M.dim)]
    return generalized_eigs(M.tower, op_cols, lam.raw, units)[1]


def _split_level(tower, op_cols, gens, kdim, qs):
    """Split a level into the generalized eigenspaces of A at the qs.

    A level is the T-span of gens, of dimension kdim over the tower's field.
    _min_poly certifies the minimal polynomial prod_i (x - q_i)^e_i of A on
    the level, which is then the direct sum of the generalized eigenspaces at
    the q_i with e_i > 0; each one is the image of the product over the
    other factors (see _image).  Returns (parts, mults): parts lists
    (i, gens_i, kdim_i) in ascending i, and mults[i] is e_i.  Requires the
    level to be A-invariant; raises ArithmeticError when an eigenvalue is
    no q(i) or the parts' dimensions do not add up to kdim.
    """
    mults, _ = _min_poly(tower, op_cols, gens, qs, integral=True)
    present = [i for i, e in enumerate(mults) if e]
    if len(present) == 1:
        return [(present[0], gens, kdim)], mults
    parts = []
    for i in present:
        others = list(mults)
        others[i] = 0
        parts.append((i, *_image(tower, op_cols, qs, others, [], gens)))
    if sum(d for _, _, d in parts) != kdim:
        raise ArithmeticError(
            "non-integral eigenvalue: eigenspaces do not exhaust the module"
        )
    return parts, mults


def _word_dims(M, tower, qs, ops):
    """Dimensions of the joint generalized eigenspaces, and exponents.

    The eigenspaces of A_n, .., A_1 (A_k = X_k + X_k^-1, the matrices in
    ops) are split off one level at a time, which needs each span along the
    way to be invariant under the next operator: this holds for any module,
    because the X's are even and commute.  Each level is carried as
    T-generators and its dimension, starting from the mask-0 unit vectors
    (see _split_level).  The split runs over tower's field: over Q(zeta_4l)
    with M.tower, the mask-0 columns of ops and the q(i) (the exact engine),
    or over F_p with a modp.ReducedTower, the reduced columns and residues.
    Returns (dims, exps): dims[word] is the dimension at (q(w_1), ..,
    q(w_n)), and exps[k][i] the largest multiplicity of q(i) in the minimal
    polynomial of A_k on a level.
    """
    one = tower.field.one_raw
    exps = {k: [0] * len(qs) for k in ops}
    dims = {}
    stack = []
    for p in (1, 0):
        gens = [{t * tower.rank: one} for t in range(M.dim) if M.parity[t] == p]
        if gens:
            stack.append((M.n, gens, len(gens) * tower.rank, ()))
    while stack:
        k, gens, kdim, word = stack.pop()
        if k == 0:
            dims[word] = dims.get(word, 0) + kdim
            continue
        parts, mults = _split_level(tower, ops[k], gens, kdim, qs)
        exps[k] = [max(a, b) for a, b in zip(exps[k], mults)]
        stack.extend((k - 1, g, d, (i,) + word) for i, g, d in reversed(parts))
    return dims, exps


def _certified_word_dims(M, ops):
    """The word dimensions from the mod-p split, proved over K; None on failure.

    _word_dims over modp.ReducedTower gives, for every word w, the
    F_p-dimension d_p(w) of the joint generalized eigenspace of the reduced
    operators at the residues of (q(w_1), .., q(w_n)), and exponents a_k,i.
    The K work is one certificate per operator: P_k(A_k) =
    prod_i (A_k - q(i))^a_k,i kills every mask-0 unit vector e_t, by
    mat_vec alone.  Proof that then d_p(w) = dim_K E_w for every word,
    where N = dim * rank:

    - A_k is tower-linear, so P_k(A_k) kills the T-span of the e_t, which
      is K^N.  The q(i) are distinct mod p, hence distinct in K, so K^N is
      the direct sum of the ker (A_k - q(i))^a_k,i, and since the A_k
      commute, K^N is the direct sum of the joint eigenspaces
      E_w = ker B_w, B_w the stack of the (A_k - q(w_k))^a_k,w_k.  So the
      dim_K E_w sum to N.
    - Every entry of B_w has a denominator prime to p (checked on every
      entry and q(i) reduced), so B_w reduces to B_w mod p, and a minor
      that is nonzero mod p is nonzero over K: rank_p B_w <= rank_K B_w,
      so dim ker (B_w mod p) >= dim_K E_w.  ker (B_w mod p) lies in the
      F_p joint generalized eigenspace at w, whose dimension the split mod
      p computes exactly (the reduced A_k commute and are tower-linear, as
      the A_k are), so d_p(w) >= dim_K E_w.
    - The d_p(w) sum to N: the two parity levels that start the split have
      dimensions summing to N, and _split_level checks on every level that
      its parts' dimensions add up to the level's.  So do the dim_K E_w:
      each inequality is an equality.

    The exponents serve only the certificate: any with which it passes
    will do, and the ones mod p are those of the F_p minimal polynomials.

    Any failure returns None: a denominator divisible by p, colliding
    residues of the q(i), a root mod p outside them, F_p parts that do not
    add up to their level, or a failed certificate (an eigenvalue over K
    that only reduces to a q(i), or an exponent mod p below the one over K).
    """
    try:
        reduced = modp.ReducedTower(M.model.l, M.tower)
        ops_p = {k: reduced.matrix(cols) for k, cols in ops.items()}
        dims, exps = _word_dims(M, reduced, reduced.qs, ops_p)
    except ArithmeticError:  # modp.Decline, or the split's own errors
        return None
    qs = [q_of(M.model.l, i).raw for i in range(M.model.l)]
    for k, cols in ops.items():
        for t in range(M.dim):
            if _apply_poly(M.tower, cols, qs, exps[k], [], M.unit_k_vector(t)):
                return None
    return dims


def formal_character(M):
    """Word multiplicities from simultaneous generalized eigenspaces.

    For each word the multiplicity is the field dimension of the simultaneous
    generalized eigenspace at (q(w_1), .., q(w_n)), divided by the tower rank
    and by the word's intrinsic dimension factor; inexact divisions raise.
    The dimensions come from the mod-p split, certified over K (see
    _certified_word_dims); when that declines, the same split runs over K
    (_word_dims with M.tower) and raises its own errors.
    """
    l = M.model.l
    ops = {k: _op_x_plus_xinv(M, k) for k in range(1, M.n + 1)}
    counts = _certified_word_dims(M, ops)
    if counts is None:
        counts = _word_dims(M, M.tower, [q_of(l, i).raw for i in range(l)], ops)[0]
    out = {}
    for word, kdim in counts.items():
        denom = M.rank * _word_d_factor(l, word)
        if kdim % denom:
            raise InexactDivisionError(
                M, None, f"eigenspace dimension {kdim} not divisible by {denom}"
            )
        out[word] = kdim // denom
    ws = WordSum(out)
    total = sum(c * _word_d_factor(l, w) for w, c in ws.terms.items())
    if total != M.dim:
        raise ArithmeticError("character does not account for the dimension")
    return ws


def delta_im(M, i, m):
    """Simultaneous generalized eigenspace of the last m letters at q(i).

    Each parity's mask-0 unit vectors are cut down by generalized_eigs of
    X_n + X_n^-1, .., X_(n-m+1) + X_(n-m+1)^-1 in turn, as T-generators.
    Returns the sub-supermodule over the (n-m, m) parabolic, or None when the
    eigenspace vanishes.
    """
    if m == 0:
        return M
    lam = q_of(M.model.l, i).raw
    spaces = []
    for p in (0, 1):
        vectors = [M.unit_k_vector(t) for t in range(M.dim) if M.parity[t] == p]
        for k in range(M.n, M.n - m, -1):
            if not vectors:
                break
            op = _op_x_plus_xinv(M, k)
            vectors, _ = generalized_eigs(M.tower, op, lam, vectors)
        spaces.extend(vectors)
    if not spaces:
        return None
    mu = (M.n - m, m) if M.n > m else (m,)
    return submodule(M, spaces, mu=mu)


def epsilon_i(M, i):
    """Largest m with a nonzero simultaneous eigenspace in the last m slots.

    That eigenspace is the sum of the joint eigenspaces of the words ending
    in m letters i, so m is the longest trailing run of i in a word of the
    character: the number of times e_drop(., i) applies to
    formal_character(M) before it vanishes.  Raises whatever
    formal_character raises, such as "non-integral eigenvalue" on a module
    outside the integral category.
    """
    ch, eps = e_drop(formal_character(M), i), 0
    while ch.terms:
        ch, eps = e_drop(ch, i), eps + 1
    return eps


# -- type detection and the half tensor ----------------------------------------


def type_of(M):
    """"Q" when an odd self-intertwiner exists, else "M" (irreducible input)."""
    field = M.field
    rank = M.rank
    odd_pairs = [
        (a, b)
        for a in range(M.dim)
        for b in range(M.dim)
        if M.parity[a] != M.parity[b]
    ]
    uidx = {}
    for a, b in odd_pairs:
        for mask in range(rank):
            uidx[(a, b, mask)] = len(uidx)
    if not uidx:
        return "M"
    ech = linalg.Echelon(field)
    gen_list = [("X", k, 1) for k in range(1, M.n + 1)]
    gen_list += [("C", k) for k in range(1, M.n + 1)]
    gen_list += [("T", j) for j in M.t_indices()]
    for key in gen_list:
        odd = key[0] == "C"
        G = M.gen(key)
        equations = {}

        def eq_add(a, b, out_mask, u, raw):
            field.add_into(equations.setdefault((a, b, out_mask), {}), {u: raw})

        # K-entry (x, out) of G(e_y r^mask) is the r^out-coordinate of
        # G[x][y] * r^mask
        for y, head in enumerate(G):
            for mask, col in enumerate(M.tower.translates(head)):
                for kx, raw in col.items():
                    x, out = divmod(kx, rank)
                    # term (J G)[a][y] involves unknowns J[a][x]
                    for a in range(M.dim):
                        if M.parity[a] != M.parity[x]:
                            eq_add(a, y, out, uidx[(a, x, mask)], raw)
                    # term -s (G J)[x][b] involves unknowns J[y][b]
                    neg = raw if odd else field.neg(raw)
                    for b in range(M.dim):
                        if M.parity[y] != M.parity[b]:
                            eq_add(x, b, out, uidx[(y, b, mask)], neg)
        for row in equations.values():
            if row:
                ech.insert(row)
    null_dim = len(uidx) - ech.dim
    if null_dim % rank:
        raise InexactDivisionError(M, None, "intertwiner space dimension inexact")
    return "Q" if null_dim else "M"


def circled_star(M, theta_M, N, theta_N):
    """Irreducible tensor construction.

    With at most one odd involution this is the plain graded tensor product;
    with two, the +sqrt(-1) eigenspace of their product, presented on the
    closed-form paired basis (no elimination over the tower is needed): for
    even basis vectors e_a, u_b and the unit u = e_a (x) u_b, the vectors
    u - sqrt(-1) theta_L theta_R u and theta_R u - sqrt(-1) theta_L u, with
    theta_L = theta_M (x) 1 and theta_R = tensor_theta_right.
    """
    for mod, th in ((M, theta_M), (N, theta_N)):
        if th is not None:
            _check_odd_involution(mod, th)
    R = tensor_product(M, N)
    if theta_M is None or theta_N is None:
        return R
    f, mat_vec = M.field, R.tower.mat_vec
    rt = f.sqrt_minus1.raw
    pos, _ = _product_basis(M.parity, N.parity)
    theta_l = _tensor_one(theta_M, f, R.rank, pos, M.dim, N.dim)
    theta_r = tensor_theta_right(M, N, theta_N)
    units = [
        R.unit_k_vector(pos[(a, b)])
        for a in range(M.dim)
        if M.parity[a] == 0
        for b in range(N.dim)
        if N.parity[b] == 0
    ]
    vectors = []
    for u in units:
        v = dict(u)
        f.submul_into(v, mat_vec(theta_l, mat_vec(theta_r, u)), rt)
        vectors.append(v)
    for u in units:
        v = mat_vec(theta_r, u)
        f.submul_into(v, mat_vec(theta_l, u), rt)
        vectors.append(v)
    return submodule(R, vectors, mu=R.mu)


def _check_odd_involution(M, theta):
    """theta, stored as a generator is: must be odd, square to one, intertwine.

    theta and the generators are tower-linear, so theta^2 - 1 and
    theta G - (-1)^|G| G theta are too, and each vanishes when it kills every
    mask-0 unit vector e_t: both sides are applied to the e_t by mat_vec only.
    """
    if len(theta) != M.dim:
        raise ValueError(f"declared involution has {len(theta)} columns, not {M.dim}")
    f, mat_vec = M.field, M.tower.mat_vec
    one, minus = f.one.raw, (-f.one).raw
    if any(M.k_parity(i) == M.parity[t] for t, col in enumerate(theta) for i in col):
        raise ValueError("declared involution is not odd")
    for t, col in enumerate(theta):
        sq = mat_vec(theta, col)
        f.add_into(sq, {t * M.rank: minus})
        if sq:
            raise ValueError("declared involution does not square to one")
    for key in M.gen_keys():
        G = M.gen(key)
        sign = one if key[0] == "C" else minus
        for t in range(M.dim):
            # theta G e_t = (-1)^|G| G theta e_t
            diff = mat_vec(theta, G[t])
            f.add_into(diff, f.scale(mat_vec(G, theta[t]), sign))
            if diff:
                raise ValueError(f"declared involution fails to intertwine {key}")


def theta_for_end_letter(M_L):
    """Canonical odd involution of the 2-dimensional end-letter module."""
    t = M_L.tower
    rt = t.scalar(M_L.field.sqrt_minus1)
    return _kmat_from_rows(t, [[0, -rt], [rt, 0]])


def ind_theta(M_factor, theta_factor, reps_count):
    """Induced odd involution: identity on cosets, theta on the factor."""
    pos, _ = _product_basis([0] * reps_count, M_factor.parity)
    return _one_tensor(
        theta_factor,
        M_factor.field,
        M_factor.rank,
        pos,
        [0] * reps_count,
        M_factor.dim,
        True,
    )


def tensor_theta_right(M, N, theta_N):
    """(id (x) theta) with the odd-map sign on the left parity."""
    pos, _ = _product_basis(M.parity, N.parity)
    return _one_tensor(theta_N, M.field, M.rank, pos, M.parity, N.dim, True)


# -- the 8-dimensional type-(Q, M) block module ---------------------------------


def build_L_iij(l, i, j, model=None):
    """The 8-dimensional module on the basis {Y_1..Y_4, C_1 Y_1..C_1 Y_4}.

    The recorded action equations pin the actions of the third X, the second T and the third C
    on this basis but leave the remaining generators implicit (they are forced
    by the defining relations, e.g. Y_3 = T_1 Y_1 and the exchange identities
    give the first X a nilpotent part on Y_3, Y_4).  The module is therefore
    materialized as the invariant subspace of the induced module spanned by
    the defining vectors, and every recorded action equation is then asserted, with
    a full relation check on top.
    """
    if type_of_letter(l, i) != "Q" or type_of_letter(l, j) != "M":
        raise ValueError("needs (type, type) = (Q, M)")
    if model is None:
        model = ScalarModel.for_indices(l, [i, j])
    W = build_L_ij_star_L_i(l, i, j, model)
    return _block_iij(l, i, j, W, induce(W))


def _block_iij(l, i, j, W, M3):
    """build_L_iij from W = build_L_ij_star_L_i(l, i, j) and M3 = induce(W)."""
    alg = HeckeClifford(M3.field, 3)
    reps = alg.coset_representatives((2, 1))
    pos, _ = _product_basis([0] * len(reps), W.parity)
    idx_t2 = reps.index((1, 3, 2))
    idx_t1t2 = reps.index((2, 3, 1))
    op = _op_x_plus_xinv(M3, 3)
    lam = q_of(l, i).raw

    def defining_vector(t):
        return _shift(M3.tower, op, lam, M3.unit_k_vector(t))

    ys = [
        defining_vector(pos[(idx_t2, 0)]),
        defining_vector(pos[(idx_t2, 1)]),
        defining_vector(pos[(idx_t1t2, 0)]),
        defining_vector(pos[(idx_t1t2, 1)]),
    ]
    c1 = M3.gen(("C", 1))
    cys = [M3.tower.mat_vec(c1, y) for y in ys]
    M = submodule(M3, ys + cys, mu=(3,))
    bad = verify_relations(M)
    if bad:
        raise ArithmeticError(f"block module fails {bad}")
    _assert_iij_defining_equations(M, l, i, j)
    return M


def _assert_iij_defining_equations(M, l, i, j):
    """The recorded action equations on {Y_k, C_1 Y_k} must hold exactly."""
    t = M.tower
    f = M.field
    a = t.scalar(q_of(l, i) * Fraction(1, 2))
    bpj, bmj = M.model.b(j, 1), M.model.b(j, -1)
    s = t.scalar(f.xi * (q_of(l, j) - q_of(l, i)).inverse())
    rt = t.scalar(f.sqrt_minus1)
    xi_t = t.scalar(f.xi)

    def col_equals(key, c, expected):
        if M.gen(key)[c] != M.t_vector_to_k(expected):
            raise ArithmeticError(f"action-equation mismatch for {key} on basis {c}")

    # Y_3 = T_1 Y_1, Y_4 = T_1 Y_2
    col_equals(("T", 1), 0, {2: t.one})
    col_equals(("T", 1), 1, {3: t.one})
    # X_3 eigenvalues alternate b(j) on Y_1..Y_4
    for c, v in ((0, bpj), (1, bmj), (2, bpj), (3, bmj)):
        col_equals(("X", 3, 1), c, {c: v})
    # T_2 on the Y part
    col_equals(("T", 2), 0, {0: s * (bpj - a), 1: -(s * (bpj - a)) * rt})
    col_equals(("T", 2), 1, {0: s * (a - bmj) * rt, 1: -(s * (a - bmj))})
    cross = s * s * (bpj - a) * (a - bmj)
    col_equals(
        ("T", 2),
        2,
        {
            2: s * (bpj - a),
            3: s * (bpj - a),
            0: cross * (t.one - rt),
            1: cross * (t.one + rt),
        },
    )
    col_equals(
        ("T", 2),
        3,
        {
            2: s * (a - bmj),
            3: -(s * (a - bmj)),
            0: cross * (rt - t.one),
            1: cross * (t.one + rt),
        },
    )
    # C_3 on the Y part
    col_equals(("C", 3), 0, {5: -t.one})
    col_equals(("C", 3), 1, {4: t.one})
    col_equals(("C", 3), 2, {7: rt, 5: -(xi_t * (t.one + rt))})
    col_equals(("C", 3), 3, {6: rt, 4: xi_t * (t.one - rt)})


# -- splitting-retry harness ----------------------------------------------------


def _positive_root(s):
    """Normalize the sign of a candidate square root deterministically.

    The chosen representative is the one whose coefficient of highest
    zeta-degree is positive.
    """
    for c in reversed(s.coefficients()):
        if c > 0:
            return s
        if c < 0:
            return -s
    return s


def discover_square_root(M, vectors):
    """Find a discriminant that splits unevenly on the span and its root.

    The multiplication-by-r operator restricted to the span has trace
    (m+ - m-) * s for the two eigenvalue multiplicities; scanning the possible
    multiplicity differences recovers s exactly when the split is uneven.
    The spans tried are the T-spans of the given vectors and of the
    generalized eigenspaces of the last X + X^-1, each closed under the
    r-translates first so that r maps it to itself.
    """
    field = M.field
    witness_sets = []
    if vectors:
        witness_sets.append(vectors)
    op = _op_x_plus_xinv(M, M.n)
    units = [M.unit_k_vector(t) for t in range(M.dim)]
    for i in range(M.model.l):
        eig, _ = generalized_eigs(M.tower, op, q_of(M.model.l, i).raw, units)
        if eig:
            witness_sets.append(eig)
    for k, d in enumerate(M.tower.discs):
        for vs in witness_sets:
            tracker = linalg.Tracker(field)
            basis = []
            for v in vs:
                for tv in M.tower.translates(v):
                    if tracker.insert(tv, len(basis)) is None:
                        basis.append(tv)
            trace = field.zero
            for s, v in enumerate(basis):
                coords = tracker.express(M.tower.r_translate(v, 1 << k))
                if coords is None:
                    break
                raw = coords.get(s)
                if raw is not None:
                    trace = trace + FieldElem(field, raw)
            else:
                dim = len(basis)
                for tval in range(dim, -dim - 1, -2):
                    if tval == 0:
                        continue
                    cand = trace * Fraction(1, tval)
                    if cand * cand == d:
                        return k, _positive_root(cand)
    raise RuntimeError("no discriminant square root could be discovered")


def with_splitting(model, compute):
    """Run compute(model); on an InexactDivisionError split the ring and retry.

    Each retry splits one discriminant off the tower, so a tower of d
    discriminants allows d retries; a failure with none left to split raises
    RuntimeError.
    """
    splits = []
    while True:
        try:
            return compute(model)
        except InexactDivisionError as e:
            if not model.tower.discs:
                raise RuntimeError(
                    "ring splitting did not stabilize after splitting "
                    f"{', '.join(splits) or 'nothing'}"
                ) from e
            k, root = discover_square_root(e.module, e.vectors)
            splits.append(f"sqrt({model.tower.discs[k]}) = {root}")
            model, _ = model.split(k, root)


# -- the rank 2..4 verification suite -------------------------------------------


def eigen_image_vectors(M, k, i):
    """T-generators (t, w) of the image N of A - q(i), A = X_k + X_k^-1.

    w = (A - q(i)) e_t for each mask-0 unit vector e_t, the nonzero ones;
    A is tower-linear, so N is their T-span.
    """
    op = _op_x_plus_xinv(M, k)
    lam = q_of(M.model.l, i).raw
    out = []
    for t in range(M.dim):
        w = _shift(M.tower, op, lam, M.unit_k_vector(t))
        if w:
            out.append((t, w))
    return out


def invariance_witness(M, image, gen_key):
    """(closed?, witness): whether G keeps N, the T-span of the image.

    image is eigen_image_vectors' list.  N is spanned by the w with their
    r-translates, and G is tower-linear, so G N lies in N exactly when each
    G w does; the witness names the first e_t whose image G pushes out.
    """
    ech = linalg.Echelon(M.field)
    for _, w in image:
        for tw in M.tower.translates(w):
            ech.insert(tw)
    G = M.gen(gen_key)
    for t, w in image:
        out = M.tower.mat_vec(G, w)
        if not ech.contains(out):
            name = f"T{gen_key[1]}" if gen_key[0] == "T" else str(gen_key)
            return False, f"{name} * (eigenvalue-shifted image of e_{t}) not in N"
    return True, None


def _pair_kinds(l):
    """Ordered adjacent pairs grouped by the (type, type) hypothesis."""
    pairs = [(i, j) for i in range(l) for j in (i - 1, i + 1) if 0 <= j < l]
    kind = {(i, j): (type_of_letter(l, i), type_of_letter(l, j)) for i, j in pairs}
    return {
        "not_QQ": [p for p in pairs if kind[p] != ("Q", "Q")],
        "QM": [p for p in pairs if kind[p] == ("Q", "M")],
    }


def relation_suites(l):
    """The s5 and shuffle suites, in one pass over the pairs.

    s5: every rank 2..4 construction and invariance statement, with
    witnesses.  shuffle: ch(Ind M (*) N) = shuffle(ch M, ch N) over the built
    pair library.  Each pair's modules and characters are built once, in one
    with_splitting compute, and serve both suites.  Each suite lists its
    records by section (not-QQ, MM, letter (i, i), QM, l = 2), each in the
    order made, so the MM checks, run on the not-QQ compute's modules, wait
    in checks["MM"] until every not-QQ record is in.

    Every expected character is grothendieck.ch_standard(l, i, j, a, b), the
    irreducible i^a j i^b, at the label the check names: a module's own
    character is matched against it, and a shuffle check shuffles such
    characters (L(i) is the label (j, i, 0, 0) for a neighbour j) or
    characters computed from the factors' matrices.

    Returns {"s5": report, "shuffle": report}, each {"l", "ok", "checks"}.
    """
    checks = {name: {} for name in ("s5", "shuffle", "MM")}

    def record(suite, check, i, j, ok, witness=None):
        # keyed so a ring-splitting retry overwrites its partial records
        checks[suite][(check, i, j)] = {
            "check": check,
            "l": l,
            "i": i,
            "j": j,
            "status": "pass" if ok else "fail",
            "witness": witness,
        }

    def match(suite, check, i, j, got, want):
        record(suite, check, i, j, got == want, repr(got))

    def character(suite, check, i, j, M, a, b):
        # M's character, matched against the irreducible i^a j i^b
        got = formal_character(M)
        match(suite, check, i, j, got, ch_standard(l, i, j, a, b))
        return got

    def invariance(suite, check, i, j, M, k, letter, closed=True):
        # (kept, image): whether T_(k-1) keeps the span of the image of
        # X_k + X_k^-1 - q(letter), recorded as passing when that is what
        # closed says, and the image's vectors
        image = eigen_image_vectors(M, k, letter)
        kept, wit = invariance_witness(M, image, ("T", k - 1))
        record(suite, check, i, j, kept == closed, wit)
        return kept, [w for _, w in image]

    def letter(i):
        # ch L(i): the label (j, i, 0, 0) for a neighbour j
        return ch_standard(l, i - 1 if i else 1, i, 0, 0)

    pairs = _pair_kinds(l)

    for i, j in pairs["not_QQ"]:
        def compute(model, i=i, j=j):
            Li = build_L(l, i, model)
            Lj = build_L(l, j, model)
            M = induce(tensor_product(Lj, Li))
            kept, image = invariance("s5", "rank2-invariance", i, j, M, 2, i)
            if kept:
                N = submodule(M, image, mu=(2,))
                character("s5", "rank2-N-character", i, j, N, 1, 0)
            Lij = build_L_ij(l, i, j, model)
            record("s5", "block-ij-relations", i, j, not verify_relations(Lij))
            chij = character("s5", "block-ij-character", i, j, Lij, 1, 0)
            M3 = induce(tensor_product(Lij, Li))
            ch3 = formal_character(M3)
            if type_of_letter(l, i) == type_of_letter(l, j) == "M":
                qi, qj = q_of(l, i), q_of(l, j)
                cond = qi * qj + qj * qj - 8
                record("MM", "rank3-MM-scalar", i, j, not cond.is_zero(), repr(cond))
                invariance("MM", "rank3-MM-noninvariance", i, j, M3, 3, i, closed=False)
                match("MM", "rank3-MM-character", i, j, ch3, ch_standard(l, i, j, 2, 0))
                character(
                    "MM", "rank3-MM-sigma-character", i, j, sigma_twist(M3), 0, 2
                )
            want = shuffle(letter(j), letter(i))
            match("shuffle", "shuffle-Lj-Li", i, j, formal_character(M), want)
            want3 = shuffle(chij, letter(i))
            if type_of_letter(l, i) == "Q":
                # both factors type Q (j is not, in a not-QQ pair): the
                # plain tensor doubles the half tensor, so its induced
                # character is twice the shuffle
                match("shuffle", "shuffle-Lij-Li-doubled", i, j, ch3, 2 * want3)
            else:
                match("shuffle", "shuffle-Lij-Li", i, j, ch3, want3)

        with_splitting(ScalarModel.for_indices(l, [i, j]), compute)
    checks["s5"].update(checks.pop("MM"))

    for i in range(l):
        def compute(model, i=i):
            Li = build_L(l, i, model)
            if type_of_letter(l, i) == "Q":
                th = theta_for_end_letter(Li)
                pair = circled_star(Li, th, Li, th)
            else:
                pair = tensor_product(Li, Li)
            got = formal_character(induce(pair))
            want = shuffle(letter(i), letter(i))
            match("shuffle", "shuffle-Li-Li", i, i, got, want)

        with_splitting(ScalarModel.for_indices(l, [i]), compute)

    for i, j in pairs["QM"]:
        def compute(model, i=i, j=j):
            W = build_L_ij_star_L_i(l, i, j, model)
            record("s5", "half-tensor-relations", i, j, not verify_relations(W))
            M3 = induce(W)
            _, image = invariance("s5", "rank3-QM-invariance", i, j, M3, 3, i)
            N, Liji = quotient(M3, image, mu=(3,))
            character("s5", "rank3-QM-N-character", i, j, N, 2, 0)
            character("s5", "rank3-QM-quotient-character", i, j, Liji, 1, 1)
            Liij = _block_iij(l, i, j, W, M3)
            record("s5", "block-iij-relations", i, j, True)
            chiij = character("s5", "block-iij-character", i, j, Liij, 2, 0)
            # rank 4
            cond = q_of(l, j) + 2 * q_of(l, i)
            record("s5", "rank4-QM-scalar", i, j, not cond.is_zero(), repr(cond))
            Li = build_L(l, i, model)
            M4 = induce(tensor_product(Liij, Li))
            invariance("s5", "rank4-QM-noninvariance", i, j, M4, 4, i, closed=False)
            ch4 = character("s5", "rank4-QM-character", i, j, M4, 3, 0)
            character("s5", "rank4-QM-sigma-character", i, j, sigma_twist(M4), 0, 3)
            Mm = tensor_product(Liji, Li)
            character("s5", "block-ijii-character", i, j, induce(Mm), 1, 2)
            got = formal_character(M3)
            want = shuffle(ch_standard(l, i, j, 1, 0), letter(i))
            match("shuffle", "shuffle-W-star", i, j, got, want)
            want4 = shuffle(chiij, letter(i))
            match("shuffle", "shuffle-Liij-Li", i, j, ch4, want4)

        with_splitting(ScalarModel.for_indices(l, [i, j]), compute)

    if l == 2:
        def compute(model):
            L01 = build_L01(model)
            record("s5", "L01-relations", 0, 1, not verify_relations(L01))
            character("s5", "L01-character", 0, 1, L01, 1, 0)
            L001 = build_L001(model)
            record("s5", "L001-relations", 0, 1, not verify_relations(L001))
            character("s5", "L001-character", 0, 1, L001, 2, 0)
            ext = _star_L0(L001)
            record("s5", "L001*L0-relations", 0, 1, not verify_relations(ext))
            # the quarter-turn scalar step of the rank-4 irreducibility witness
            f = model.field
            ok = 2 * f.xi != f.from_int(-4)
            record("s5", "rank4-l2-scalar", 0, 1, ok, repr(2 * f.xi))
            M4 = induce(ext)
            invariance("s5", "rank4-l2-noninvariance", 0, 1, M4, 4, 0, closed=False)
            ch4 = character("s5", "block-0010-character", 0, 1, M4, 3, 0)
            character("s5", "block-1000-character", 0, 1, sigma_twist(M4), 0, 3)
            L0 = build_L(2, 0, model)
            th0 = theta_for_end_letter(L0)
            # L(010) as the head of the induced module, then the 4-letter block
            T3 = tensor_product(L01, L0)
            M3 = induce(T3)
            theta3 = ind_theta(T3, tensor_theta_right(L01, L0, th0), 3)
            _, image3 = invariance("s5", "block-010-invariance", 0, 1, M3, 3, 0)
            _, L010 = quotient(M3, image3, mu=(3,), extra_ops={"theta": theta3})
            character("s5", "block-010-character", 0, 1, L010, 1, 1)
            star = circled_star(L010, L010.extra["theta"], L0, th0)
            character("s5", "block-0100-character", 0, 1, induce(star), 1, 2)
            L1 = build_L(2, 1, model)
            star = circled_star(L0, th0, L1, theta_for_end_letter(L1))
            got = formal_character(induce(star))
            want = shuffle(letter(0), letter(1))
            match("shuffle", "shuffle-L0-star-L1", 0, 1, got, want)
            want4 = shuffle(ch_standard(2, 0, 1, 2, 0), letter(0))
            match("shuffle", "shuffle-L001-star-L0", 0, 1, ch4, want4)

        with_splitting(ScalarModel.for_indices(2, []), compute)

    reports = {}
    for name, recs in checks.items():
        out = list(recs.values())
        ok = all(c["status"] == "pass" for c in out)
        reports[name] = {"l": l, "ok": ok, "checks": out}
    return reports


def low_rank_suite(l):
    """Every rank 2..4 construction and invariance statement, with witnesses."""
    return relation_suites(l)["s5"]


def shuffle_compat_suite(l):
    """ch(Ind M (*) N) = shuffle(ch M, ch N) over the built pair library."""
    return relation_suites(l)["shuffle"]
