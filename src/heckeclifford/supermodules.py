"""Z/2-graded exact matrix representations over the scalar tower.

Modules are column-sparse matrices with TowerElem entries, one per generator
X_k^{+-1}, C_k, T_j (T indices restricted to the parabolic shape).  All rank,
kernel and membership computations expand scalars to the base field through
the regular representation, so pivoting only ever happens over the genuine
field; module-level dimensions are field dimensions divided by the tower
rank, and an inexact division is reported so the caller can split the ring
and rebuild.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernels, linalg
from .algebra import HeckeClifford, NormalMonomial
from .grothendieck import WordSum
from .scalars import (
    FieldElem,
    ScalarModel,
    ZeroDivisorError,
    q_of,
)


class InexactDivisionError(ArithmeticError):
    """A field dimension was not divisible by the tower rank.

    Signals that a discriminant is a square in the field and the quotient
    ring splits the space unevenly; carries the data needed to discover the
    square root and retry in the smaller ring.
    """

    def __init__(self, module, vectors, detail):
        super().__init__(detail)
        self.module = module
        self.vectors = vectors


class NotInvariantError(ValueError):
    """A subspace was not closed under a generator it must be closed under."""


def _omat_from_rows(tower, rows):
    """Dense row-major lists (TowerElem/FieldElem/int) to sparse columns."""
    dim = len(rows)
    cols = [dict() for _ in range(dim)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if isinstance(v, int):
                if v == 0:
                    continue
                v = tower.scalar(tower.field.from_int(v))
            elif isinstance(v, FieldElem):
                if v.is_zero():
                    continue
                v = tower.scalar(v)
            if v.is_zero():
                continue
            cols[j][i] = v
    return cols


def _omat_identity(tower, dim):
    return [{i: tower.one} for i in range(dim)]


def _omat_mul(a_cols, b_cols):
    out = []
    for col in b_cols:
        acc = {}
        for j, c in col.items():
            for i, a in a_cols[j].items():
                term = a * c
                cur = acc.get(i)
                s = term if cur is None else cur + term
                if s.is_zero():
                    acc.pop(i, None)
                else:
                    acc[i] = s
        out.append(acc)
    return out


def _omat_addmul(acc_cols, cols, scalar):
    for j, col in enumerate(cols):
        for i, v in col.items():
            term = v * scalar
            cur = acc_cols[j].get(i)
            s = term if cur is None else cur + term
            if s.is_zero():
                acc_cols[j].pop(i, None)
            else:
                acc_cols[j][i] = s
    return acc_cols


def _omat_copy(cols):
    return [dict(c) for c in cols]


class MatrixSupermodule:
    """Matrices of all generators of a parabolic on a graded basis.

    parity is even-block-first; mu is the parabolic composition (the full
    algebra is mu = (n,)).
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
        self.even_dim = sum(1 for p in self.parity if p == 0)
        self.odd_dim = self.dim - self.even_dim
        if any(self.parity[k] > self.parity[k + 1] for k in range(self.dim - 1)):
            raise ValueError("basis must be even-block-first")
        self.gens = gens
        self._expanded = {}
        self._mask_mats = None
        self._rho_cache = {}

    # -- structure ---------------------------------------------------------

    def t_indices(self):
        out = []
        s = 1
        for part in self.mu:
            out.extend(range(s, s + part - 1))
            s += part
        return out

    def gen_keys(self):
        keys = []
        for k in range(1, self.n + 1):
            keys.append(("X", k, 1))
            keys.append(("X", k, -1))
            keys.append(("C", k))
        keys.extend(("T", j) for j in self.t_indices())
        return keys

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

    def expanded(self, key):
        cached = self._expanded.get(key)
        if cached is None:
            cached = expand_cols(self.tower, self.gens[key], self.dim)
            self._expanded[key] = cached
        return cached

    def mask_matrices(self):
        """K-matrices of multiplication by each r-monomial basis element."""
        if self._mask_mats is None:
            mats = []
            for mask in range(self.rank):
                coords = [self.field.zero] * self.rank
                coords[mask] = self.field.one
                x = self.tower.elem(coords)
                rr = self.tower.regular_rows(x)
                cols = [dict() for _ in range(self.k_dim())]
                for t in range(self.dim):
                    for cin in range(self.rank):
                        col = cols[t * self.rank + cin]
                        for rout in range(self.rank):
                            v = rr[rout][cin]
                            if not v.is_zero():
                                col[t * self.rank + rout] = v.raw
                mats.append(cols)
            self._mask_mats = mats
        return self._mask_mats

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

    def unit_k_vector(self, t, mask=0):
        return {t * self.rank + mask: self.field.one.raw}

    # -- algebra-element action ----------------------------------------------

    def rho(self, element):
        """Matrix (sparse object columns) of an algebra element."""
        acc = [dict() for _ in range(self.dim)]
        for mono, coeff in element.terms.items():
            mat = self._rho_mono(mono)
            if isinstance(coeff, FieldElem):
                coeff = self.tower.scalar(coeff)
            _omat_addmul(acc, mat, coeff)
        return acc

    def _rho_mono(self, mono):
        cached = self._rho_cache.get(mono)
        if cached is not None:
            return cached
        cols = _omat_identity(self.tower, self.dim)
        for genkey in mono.generator_sequence():
            cols = _omat_mul(cols, self.gen(genkey))
        self._rho_cache[mono] = cols
        return cols

    def __repr__(self):
        return (
            f"MatrixSupermodule(n={self.n}, mu={self.mu}, dim={self.dim}, "
            f"tower_rank={self.rank})"
        )


def expand_cols(tower, cols, dim):
    """Restriction of scalars: TowerElem columns to raw base-field columns."""
    rank = tower.rank
    out = [dict() for _ in range(dim * rank)]
    rr_cache = {}
    for j, col in enumerate(cols):
        for i, x in col.items():
            key = x.coords
            rr = rr_cache.get(key)
            if rr is None:
                rr = tower.regular_rows(x)
                rr_cache[key] = rr
            for cin in range(rank):
                kcol = out[j * rank + cin]
                for rout in range(rank):
                    v = rr[rout][cin]
                    if not v.is_zero():
                        kcol[i * rank + rout] = v.raw
    return out


# -- relation verification ----------------------------------------------------


def _relation_list(n, t_indices):
    """Names and generator-word residuals of all defining relations."""
    rels = []
    ts = set(t_indices)

    def prod(*keys):
        return ("prod", keys)

    for i in range(1, n + 1):
        rels.append(
            (
                f"X{i} X{i}^-1 = 1",
                [(1, prod(("X", i, 1), ("X", i, -1))), (-1, ("id",))],
            )
        )
        rels.append(
            (
                f"X{i}^-1 X{i} = 1",
                [(1, prod(("X", i, -1), ("X", i, 1))), (-1, ("id",))],
            )
        )
        rels.append(
            (f"C{i}^2 = 1", [(1, prod(("C", i), ("C", i))), (-1, ("id",))])
        )
        for j in range(i + 1, n + 1):
            for s in (1, -1):
                for t in (1, -1):
                    rels.append(
                        (
                            f"X{i}^{s} X{j}^{t} commute",
                            [
                                (1, prod(("X", i, s), ("X", j, t))),
                                (-1, prod(("X", j, t), ("X", i, s))),
                            ],
                        )
                    )
            rels.append(
                (
                    f"C{i} C{j} anticommute",
                    [
                        (1, prod(("C", i), ("C", j))),
                        (1, prod(("C", j), ("C", i))),
                    ],
                )
            )
        for j in range(1, n + 1):
            for s in (1, -1):
                if i == j:
                    rels.append(
                        (
                            f"C{i} X{i}^{s} = X{i}^{-s} C{i}",
                            [
                                (1, prod(("C", i), ("X", i, s))),
                                (-1, prod(("X", i, -s), ("C", i))),
                            ],
                        )
                    )
                else:
                    rels.append(
                        (
                            f"C{i} X{j}^{s} commute",
                            [
                                (1, prod(("C", i), ("X", j, s))),
                                (-1, prod(("X", j, s), ("C", i))),
                            ],
                        )
                    )
    for i in sorted(ts):
        rels.append(
            (
                f"T{i}^2 = xi T{i} + 1",
                [(1, prod(("T", i), ("T", i))), ("-xi", prod(("T", i))), (-1, ("id",))],
            )
        )
        rels.append(
            (
                f"T{i} C{i} = C{i+1} T{i}",
                [
                    (1, prod(("T", i), ("C", i))),
                    (-1, prod(("C", i + 1), ("T", i))),
                ],
            )
        )
        rels.append(
            (
                f"(T{i} + xi C{i}C{i+1}) X{i} T{i} = X{i+1}",
                [
                    (1, prod(("T", i), ("X", i, 1), ("T", i))),
                    ("xi", prod(("C", i), ("C", i + 1), ("X", i, 1), ("T", i))),
                    (-1, prod(("X", i + 1, 1))),
                ],
            )
        )
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            rels.append(
                (
                    f"T{i} C{j} commute",
                    [
                        (1, prod(("T", i), ("C", j))),
                        (-1, prod(("C", j), ("T", i))),
                    ],
                )
            )
            for s in (1, -1):
                rels.append(
                    (
                        f"T{i} X{j}^{s} commute",
                        [
                            (1, prod(("T", i), ("X", j, s))),
                            (-1, prod(("X", j, s), ("T", i))),
                        ],
                    )
                )
        for j in sorted(ts):
            if j > i and abs(i - j) >= 2:
                rels.append(
                    (
                        f"T{i} T{j} commute",
                        [
                            (1, prod(("T", i), ("T", j))),
                            (-1, prod(("T", j), ("T", i))),
                        ],
                    )
                )
        if i + 1 in ts:
            rels.append(
                (
                    f"T{i} T{i+1} T{i} braid",
                    [
                        (1, prod(("T", i), ("T", i + 1), ("T", i))),
                        (-1, prod(("T", i + 1), ("T", i), ("T", i + 1))),
                    ],
                )
            )
    return rels


def verify_relations(M):
    """Report of violated defining relations and parity-structure defects."""
    field = M.field
    red = field.red
    violations = []
    # parity block structure
    for key in M.gen_keys():
        odd = key[0] == "C"
        good = True
        for j, col in enumerate(M.gen(key)):
            pj = M.parity[j]
            if any((M.parity[i] != pj) != odd for i in col):
                good = False
                break
        if not good:
            violations.append(f"parity structure of {key}")
    eye = linalg.mat_identity(M.k_dim(), field.one.raw)

    def coeff_raw(coeff):
        if coeff == "xi":
            return field.xi.raw
        if coeff == "-xi":
            return (-field.xi).raw
        return field.from_int(coeff).raw

    def term_cols(spec):
        if spec[0] == "id":
            return eye
        mats = [M.expanded(k) for k in spec[1]]
        acc = mats[0]
        for mt in mats[1:]:
            acc = linalg.mat_mul(acc, mt, red)
        return acc

    for name, terms in _relation_list(M.n, M.t_indices()):
        total = [dict() for _ in range(M.k_dim())]
        for coeff, spec in terms:
            cols = term_cols(spec)
            if coeff == 1:
                for t, c in enumerate(cols):
                    linalg.vec_add_into(total[t], c)
            else:
                craw = coeff_raw(coeff)
                for t, c in enumerate(cols):
                    linalg.vec_add_into(total[t], linalg.vec_scale(c, craw, red))
        if not linalg.mat_is_zero(total):
            violations.append(name)
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
        ("X", 1, 1): _omat_from_rows(t, block(J, zero, zero, Jinv)),
        ("X", 1, -1): _omat_from_rows(t, block(Jinv, zero, zero, J)),
        ("C", 1): _omat_from_rows(t, block(zero, eye, eye, zero)),
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
    if i in (0, l - 1):
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
    gens = {}
    for key in M.gen_keys():
        GA, GB = M.gen(key), N.gen(key)
        cols = [dict() for _ in range(len(parity))]
        for j, col in enumerate(GA):
            for ii, v in col.items():
                cols[pos[(0, j)]][pos[(0, ii)]] = v
        for j, col in enumerate(GB):
            for ii, v in col.items():
                cols[pos[(1, j)]][pos[(1, ii)]] = v
        gens[key] = cols
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
        ("X", 1, 1): _omat_from_rows(
            t,
            [[bpi, z, z, z], [z, bmi, z, z], [z, z, bmi, z], [z, z, z, bpi]],
        ),
        ("X", 1, -1): _omat_from_rows(
            t,
            [[bmi, z, z, z], [z, bpi, z, z], [z, z, bpi, z], [z, z, z, bmi]],
        ),
        ("X", 2, 1): _omat_from_rows(
            t,
            [[bpj, z, z, z], [z, bmj, z, z], [z, z, bpj, z], [z, z, z, bmj]],
        ),
        ("X", 2, -1): _omat_from_rows(
            t,
            [[bmj, z, z, z], [z, bpj, z, z], [z, z, bmj, z], [z, z, z, bpj]],
        ),
        ("C", 1): _omat_from_rows(
            t, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        ),
        ("C", 2): _omat_from_rows(
            t, [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        ),
        ("T", 1): _omat_from_rows(
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
        ("X", 1, 1): _omat_from_rows(t, [[1, 0], [0, 1]]),
        ("X", 1, -1): _omat_from_rows(t, [[1, 0], [0, 1]]),
        ("X", 2, 1): _omat_from_rows(t, [[-1, 0], [0, -1]]),
        ("X", 2, -1): _omat_from_rows(t, [[-1, 0], [0, -1]]),
        ("C", 1): _omat_from_rows(t, [[0, 1], [1, 0]]),
        ("C", 2): _omat_from_rows(t, [[f.zero, -q2], [q2, f.zero]]),
        ("T", 1): _omat_from_rows(t, [[q, f.zero], [f.zero, q3]]),
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
        ("X", 1, 1): _omat_from_rows(t, x1),
        ("X", 1, -1): _omat_from_rows(t, x1_inv),
        ("X", 2, 1): _omat_from_rows(t, x2),
        ("X", 2, -1): _omat_from_rows(t, x2_inv),
        ("X", 3, 1): _omat_from_rows(t, neg_e8),
        ("X", 3, -1): _omat_from_rows(t, neg_e8),
        ("C", 1): _omat_from_rows(t, cmat(mc1)),
        ("C", 2): _omat_from_rows(t, cmat(mc2)),
        ("C", 3): _omat_from_rows(t, cmat(mc3)),
        ("T", 1): _omat_from_rows(t, t1),
        ("T", 2): _omat_from_rows(t, t2rows),
    }
    return MatrixSupermodule(model, 3, (3,), (0, 0, 0, 0, 1, 1, 1, 1), gens)


def build_L001_star_L0(model=None):
    """The rank-(3,1) extension of the block-(0,0,1) module by a fourth letter."""
    base = build_L001(model)
    t = base.tower
    f = base.field
    one, zero = f.one, f.zero
    eye = [[one if r == c else zero for c in range(8)] for r in range(8)]
    c4 = [[zero] * 8 for _ in range(8)]
    for r in range(4):
        c4[r][4 + r] = -one
        c4[4 + r][r] = -one
    gens = dict(base.gens)
    gens[("X", 4, 1)] = _omat_from_rows(t, eye)
    gens[("X", 4, -1)] = _omat_from_rows(t, eye)
    gens[("C", 4)] = _omat_from_rows(t, c4)
    return MatrixSupermodule(base.model, 4, (3, 1), base.parity, gens)


def build_L_ij_star_L_i(l, i, j, model=None):
    """The 4-dimensional rank-(2,1) realization used in the type-(Q, M) block.

    Basis {X', Y', C1 X', C1 Y'}; the first letter's X-eigenvalue a = +-1 and
    sqrt(-1) enter the third Clifford generator.
    """
    if type_of_letter(l, i) != "Q" or type_of_letter(l, j) != "M":
        raise ValueError("needs (type, type) = (Q, M)")
    if model is None:
        model = ScalarModel.for_indices(l, [i, j])
    t = model.tower
    f = model.field
    a = q_of(l, i) * Fraction(1, 2)  # b_+(i) = b_-(i) = +-1
    at = t.scalar(a)
    bpj, bmj = model.b(j, 1), model.b(j, -1)
    qi, qj = q_of(l, i), q_of(l, j)
    s = t.scalar(f.xi * (qj - qi).inverse())
    rt = t.scalar(f.sqrt_minus1)
    z = t.zero
    aeye = [[at, z, z, z], [z, at, z, z], [z, z, at, z], [z, z, z, at]]
    gens = {
        ("X", 1, 1): _omat_from_rows(t, aeye),
        ("X", 1, -1): _omat_from_rows(t, aeye),
        ("X", 3, 1): _omat_from_rows(t, aeye),
        ("X", 3, -1): _omat_from_rows(t, aeye),
        ("X", 2, 1): _omat_from_rows(
            t, [[bpj, z, z, z], [z, bmj, z, z], [z, z, bpj, z], [z, z, z, bmj]]
        ),
        ("X", 2, -1): _omat_from_rows(
            t, [[bmj, z, z, z], [z, bpj, z, z], [z, z, bmj, z], [z, z, z, bpj]]
        ),
        ("C", 1): _omat_from_rows(
            t, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        ),
        ("C", 2): _omat_from_rows(
            t, [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
        ),
        ("C", 3): _omat_from_rows(
            t,
            [
                [z, z, rt, z],
                [z, z, z, -rt],
                [-rt, z, z, z],
                [z, rt, z, z],
            ],
        ),
        ("T", 1): _omat_from_rows(
            t,
            [
                [(bpj - at) * s, (at - bmj) * s, z, z],
                [(bpj - at) * s, (bmj - at) * s, z, z],
                [z, z, (bpj - at) * s, (bmj - at) * s],
                [z, z, (at - bpj) * s, (bmj - at) * s],
            ],
        ),
    }
    return MatrixSupermodule(model, 3, (2, 1), (0, 0, 1, 1), gens)


# -- tensor, induction, twisting ------------------------------------------------


def tensor_product(M, N):
    """Outer tensor product as a module over the concatenated parabolic."""
    if M.tower is not N.tower:
        raise ValueError("align the scalar models before tensoring")
    t = M.tower
    pairs = [(a, b) for a in range(M.dim) for b in range(N.dim)]
    parity = {p: (M.parity[p[0]] + N.parity[p[1]]) & 1 for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    pos = {p: k for k, p in enumerate(order)}
    m = M.n
    gens = {}
    for key in M.gen_keys():
        G = M.gen(key)
        cols = [dict() for _ in pairs]
        for (a, b), k in pos.items():
            for a2, v in G[a].items():
                cols[k][pos[(a2, b)]] = v
        gens[key] = cols
    for key in N.gen_keys():
        if key[0] == "X":
            new_key = ("X", key[1] + m, key[2])
        elif key[0] == "C":
            new_key = ("C", key[1] + m)
        else:
            new_key = ("T", key[1] + m)
        odd = key[0] == "C"
        G = N.gen(key)
        cols = [dict() for _ in pairs]
        for (a, b), k in pos.items():
            sign = -1 if (odd and M.parity[a]) else 1
            for b2, v in G[b].items():
                cols[k][pos[(a, b2)]] = v if sign == 1 else -v
        gens[new_key] = cols
    return MatrixSupermodule(
        M.model, M.n + N.n, M.mu + N.mu, [parity[p] for p in order], gens
    )


_coset_action_cache = {}


def _coset_action(field, n, mu, genkey, w):
    """Decomposition of (generator * T_w) over minimal coset representatives."""
    key = (id(field), n, mu, genkey, w)
    cached = _coset_action_cache.get(key)
    if cached is None:
        alg = HeckeClifford(field, n)
        tw = alg.monomial_elem(NormalMonomial((0,) * n, (0,) * n, w))
        prod = alg.multiply(alg.gen_elem(genkey), tw)
        cached = alg.coset_decompose(prod, mu)
        _coset_action_cache[key] = cached
    return cached


def induce(M):
    """Induction from the parabolic of shape M.mu to the full algebra."""
    field = M.field
    n = M.n
    alg = HeckeClifford(field, n)
    reps = alg.coset_representatives(M.mu)
    rep_pos = {w: k for k, w in enumerate(reps)}
    pairs = [(k, b) for k in range(len(reps)) for b in range(M.dim)]
    parity = {p: M.parity[p[1]] for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    pos = {p: k for k, p in enumerate(order)}
    gens = {}
    keys = []
    for k in range(1, n + 1):
        keys += [("X", k, 1), ("X", k, -1), ("C", k)]
    keys += [("T", j) for j in range(1, n)]
    for key in keys:
        cols = [dict() for _ in pairs]
        for w, wk in rep_pos.items():
            decomp = _coset_action(field, n, M.mu, key, w)
            for w2, h in decomp.items():
                mat = M.rho(h)
                w2k = rep_pos[w2]
                for b in range(M.dim):
                    col = cols[pos[(wk, b)]]
                    for b2, v in mat[b].items():
                        cur = col.get(pos[(w2k, b2)])
                        s = v if cur is None else cur + v
                        if s.is_zero():
                            col.pop(pos[(w2k, b2)], None)
                        else:
                            col[pos[(w2k, b2)]] = s
        gens[key] = cols
    return MatrixSupermodule(
        M.model, n, (n,), [parity[p] for p in order], gens
    )


def sigma_twist(M):
    """Pullback along the order-reversing automorphism (full modules only)."""
    if M.mu != (M.n,):
        raise ValueError("sigma twist needs the full algebra")
    n = M.n
    f = M.field
    gens = {}
    for k in range(1, n + 1):
        gens[("X", k, 1)] = _omat_copy(M.gen(("X", n + 1 - k, 1)))
        gens[("X", k, -1)] = _omat_copy(M.gen(("X", n + 1 - k, -1)))
        gens[("C", k)] = _omat_copy(M.gen(("C", n + 1 - k)))
    xi = M.tower.scalar(f.xi)
    for j in range(1, n):
        cols = [dict() for _ in range(M.dim)]
        _omat_addmul(cols, M.gen(("T", n - j)), -M.tower.one)
        for d in range(M.dim):
            cur = cols[d].get(d)
            s = xi if cur is None else cur + xi
            if s.is_zero():
                cols[d].pop(d, None)
            else:
                cols[d][d] = s
        gens[("T", j)] = cols
    return MatrixSupermodule(M.model, n, (n,), M.parity, gens)


# -- subspaces over the tower -----------------------------------------------



def _gen_keys(n, mu):
    keys = []
    for k in range(1, n + 1):
        keys.append(("X", k, 1))
        keys.append(("X", k, -1))
        keys.append(("C", k))
    s = 1
    for part in mu:
        keys.extend(("T", j) for j in range(s, s + part - 1))
        s += part
    return keys


def tower_span(M, k_vectors):
    """T-basis of the T-span of the given K-vectors.

    Returns (basis, tracker, echelon): basis is a list of parity-homogeneous
    K-vectors whose r-monomial translates are inserted in the tracker under
    tags (s, mask); raises InexactDivisionError if the span is not free.
    """
    field = M.field
    masks = M.mask_matrices()
    ech = linalg.Echelon(field)
    tracker = linalg.Tracker(field)
    basis = []
    for v in k_vectors:
        if not v:
            continue
        if ech.contains(v):
            continue
        s = len(basis)
        basis.append(v)
        for mask in range(M.rank):
            tv = linalg.mat_vec(masks[mask], v, field.red) if mask else v
            ech.insert(tv)
            tracker.insert(tv, (s, mask))
    if ech.dim != len(basis) * M.rank:
        raise InexactDivisionError(
            M,
            k_vectors,
            f"span has field dimension {ech.dim}, not "
            f"{len(basis)} * {M.rank}; a discriminant must be a square",
        )
    return basis, tracker, ech


def _vector_parity(M, v):
    ps = {M.k_parity(k) for k in v}
    if len(ps) != 1:
        raise ValueError("vector is not parity homogeneous")
    return ps.pop()


def submodule(M, k_vectors, mu=None, gen_keys=None, extra_ops=None):
    """Sub-supermodule on the T-span of the K-vectors (invariance required).

    extra_ops maps names to object-matrix columns on M to be restricted
    alongside the generators; the results land in the output's .extra dict.
    """
    field = M.field
    mu = mu or M.mu
    basis, tracker, _ = tower_span(M, k_vectors)
    if not basis:
        raise ValueError("zero subspace has no module structure")
    pars = [_vector_parity(M, v) for v in basis]
    order = sorted(range(len(basis)), key=lambda s: (pars[s], s))
    pos = {s: k for k, s in enumerate(order)}
    if gen_keys is None:
        gen_keys = _gen_keys(M.n, mu)

    def restrict(G):
        cols = [dict() for _ in basis]
        for s in range(len(basis)):
            w = linalg.mat_vec(G, basis[s], field.red)
            coords = tracker.express(w)
            if coords is None:
                return None
            per_t = {}
            for (tt, mask), raw in coords.items():
                per_t.setdefault(tt, [field.zero] * M.rank)[mask] = FieldElem(
                    field, raw
                )
            col = cols[pos[s]]
            for tt, cs in per_t.items():
                val = M.tower.elem(cs)
                if not val.is_zero():
                    col[pos[tt]] = val
        return cols

    gens = {}
    for key in gen_keys:
        cols = restrict(M.expanded(key))
        if cols is None:
            raise NotInvariantError(f"span not closed under {key}")
        gens[key] = cols
    out = MatrixSupermodule(M.model, M.n, mu, [pars[s] for s in order], gens)
    out.extra = {}
    if extra_ops:
        for name, obj_cols in extra_ops.items():
            cols = restrict(expand_cols(M.tower, obj_cols, M.dim))
            if cols is None:
                raise NotInvariantError(f"span not closed under extra op {name}")
            out.extra[name] = cols
    return out


def quotient(M, k_vectors, mu=None, extra_ops=None):
    """Quotient supermodule by the T-span of the K-vectors."""
    field = M.field
    mu = mu or M.mu
    masks = M.mask_matrices()
    ech = linalg.Echelon(field)
    tracker = linalg.Tracker(field)
    count = 0
    for v in k_vectors:
        if not v:
            continue
        if ech.contains(v):
            continue
        for mask in range(M.rank):
            tv = linalg.mat_vec(masks[mask], v, field.red) if mask else v
            ech.insert(tv)
            tracker.insert(tv, ("n", count, mask))
        count += 1
    n_kdim = ech.dim
    reps = []
    for tt in range(M.dim):
        unit = M.unit_k_vector(tt, 0)
        if ech.contains(unit):
            continue
        reps.append(tt)
        for mask in range(M.rank):
            tv = M.unit_k_vector(tt, mask)
            ech.insert(tv)
            tracker.insert(tv, (tt, mask))
    if ech.dim != M.k_dim():
        raise InexactDivisionError(M, k_vectors, "quotient reps do not close")
    if n_kdim + len(reps) * M.rank != M.k_dim():
        raise InexactDivisionError(
            M, k_vectors, "quotient dimension not divisible by the tower rank"
        )
    pars = [M.parity[tt] for tt in reps]
    order = sorted(range(len(reps)), key=lambda s: (pars[s], s))
    pos = {s: k for k, s in enumerate(order)}
    rep_pos = {tt: s for s, tt in enumerate(reps)}

    def project(G):
        cols = [dict() for _ in reps]
        for s, tt in enumerate(reps):
            w = linalg.mat_vec(G, M.unit_k_vector(tt, 0), field.red)
            coords = tracker.express(w)
            if coords is None:
                return None
            per_t = {}
            for tag, raw in coords.items():
                if tag[0] == "n":
                    continue
                t2, mask = tag
                per_t.setdefault(t2, [field.zero] * M.rank)[mask] = FieldElem(
                    field, raw
                )
            col = cols[pos[s]]
            for t2, cs in per_t.items():
                val = M.tower.elem(cs)
                if not val.is_zero():
                    col[pos[rep_pos[t2]]] = val
        return cols

    gens = {}
    for key in _gen_keys(M.n, mu):
        cols = project(M.expanded(key))
        if cols is None:
            raise NotInvariantError(f"quotient not closed under {key}")
        gens[key] = cols
    out = MatrixSupermodule(M.model, M.n, mu, [pars[s] for s in order], gens)
    out.extra = {}
    if extra_ops:
        for name, obj_cols in extra_ops.items():
            cols = project(expand_cols(M.tower, obj_cols, M.dim))
            if cols is None:
                raise NotInvariantError(f"quotient not closed under {name}")
            out.extra[name] = cols
    return out


# -- generalized eigenspaces and characters -----------------------------------


def _op_x_plus_xinv(M, k):
    """Expanded matrix of X_k + X_k^-1."""
    a = M.expanded(("X", k, 1))
    b = M.expanded(("X", k, -1))
    out = []
    for ca, cb in zip(a, b):
        col = dict(ca)
        linalg.vec_add_into(col, cb)
        out.append(col)
    return out


def _shifted_apply(field, op_cols, lam_raw):
    red = field.red

    def apply(v):
        w = linalg.mat_vec(op_cols, v, red)
        linalg.vec_submul_into(w, v, lam_raw, red)
        return w

    return apply


def generalized_eigs(field, apply_op, basis):
    """Generalized kernel inside span(basis): vectors and chain length.

    Returns (vectors, depth) where depth is the smallest power at which the
    kernel chain of the operator stabilizes (0 when the kernel is trivial).
    Each chain step finds {v : op v in previous kernel} by seeding the
    elimination with the previous kernel's vectors and reading off which
    image combinations fall into their span.
    """
    red = field.red
    images = [apply_op(b) for b in basis]
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
                linalg.vec_add_into(v, linalg.vec_scale(basis[s], c, red))
            v = linalg.vec_primitive(v)
            if v:
                new_vecs.append(v)
        if len(new_vecs) == len(vectors):
            return vectors, depth
        vectors = new_vecs
        depth += 1


def jordan_block_max(M, op_cols, lam):
    """Maximal Jordan block size of the expanded operator at the eigenvalue."""
    basis = [
        M.unit_k_vector(t, mask) for t in range(M.dim) for mask in range(M.rank)
    ]
    _, depth = generalized_eigs(
        M.field, _shifted_apply(M.field, op_cols, lam.raw), basis
    )
    return depth


def _word_d_factor(l, word):
    m = sum(1 for k in word if k in (0, l - 1))
    return 1 << (len(word) - m // 2)


def _divide_by_root(poly, q_raw, red):
    """Synthetic division of poly (coefficients low degree first) by x - q."""
    acc = poly[-1]
    out = [acc]
    for a in reversed(poly[:-1]):
        acc = kernels.felem_add(a, kernels.felem_mul(q_raw, acc, red))
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem


def _probe_multiplicities(field, op_cols, vectors, qs):
    """Root multiplicities of the qs in the minimal polynomial of sum(vectors).

    Inserts v, Av, A^2 v, .. into one Tracker until the first dependency,
    which is the monic minimal polynomial of v.  Returns one multiplicity per
    q, or None when that polynomial has a factor other than the x - q.
    """
    red = field.red
    v = {}
    for b in vectors:
        linalg.vec_add_into(v, b)
    tracker = linalg.Tracker(field)
    degree = 0
    while True:
        dep = tracker.insert(v, degree)
        if dep is not None:
            break
        v = linalg.mat_vec(op_cols, v, red)
        degree += 1
    zero = field.zero.raw
    poly = [dep.get(j, zero) for j in range(degree + 1)]
    mults = []
    for q in qs:
        e = 0
        while len(poly) > 1:
            quot, rem = _divide_by_root(poly, q, red)
            if not kernels.felem_is_zero(rem):
                break
            poly = quot
            e += 1
        mults.append(e)
    return mults if len(poly) == 1 else None


def _apply_factors(field, op_cols, factors, v):
    """prod (A - q)^e v over the (q, e) factors, by mat_vec only."""
    for q, e in factors:
        apply = _shifted_apply(field, op_cols, q)
        for _ in range(e):
            if not v:
                return v
            v = apply(v)
    return v


def _certified_split(field, op_cols, vectors, qs):
    """Generalized eigenspaces of A on span(vectors) from one Krylov probe.

    The probe proposes multiplicities e_i; the split is certified by checking
    that prod_i (A - q_i)^e_i kills every vector exactly.  Then span(vectors)
    is the direct sum of the generalized eigenspaces at the q_i with e_i > 0,
    and each one is the image of the product over the other factors.
    Returns [(i, vectors_i)] in ascending i, or None when the probe finds a
    root outside the qs or the certificate fails.  Requires span(vectors) to
    be A-invariant.
    """
    mults = _probe_multiplicities(field, op_cols, vectors, qs)
    if mults is None:
        return None
    present = [i for i, e in enumerate(mults) if e]
    factors = [(qs[i], mults[i]) for i in present]
    if any(_apply_factors(field, op_cols, factors, b) for b in vectors):
        return None
    if len(present) == 1:
        return [(present[0], vectors)]
    parts = []
    for i in present:
        others = [(qs[j], mults[j]) for j in present if j != i]
        image = linalg.Echelon(field)
        for b in vectors:
            image.insert(_apply_factors(field, op_cols, others, b))
        parts.append((i, [linalg.vec_primitive(r) for r in image.basis()]))
    return parts


def _split_level(field, op_cols, vectors, qs):
    """Split span(vectors) into the generalized eigenspaces of A at the qs.

    Tries the certified split, and otherwise runs one elimination per q until
    the eigenspaces use up len(vectors): eigenspaces at distinct values are
    independent, so the remaining ones are zero.  Returns [(i, vectors_i)]
    for the nonzero eigenspaces in ascending i.  Requires span(vectors) to be
    A-invariant; raises ArithmeticError when the eigenspaces do not exhaust it.
    """
    parts = _certified_split(field, op_cols, vectors, qs)
    if parts is None:
        parts = []
        remaining = len(vectors)
        for i, q in enumerate(qs):
            if not remaining:
                break
            eig, _ = generalized_eigs(
                field, _shifted_apply(field, op_cols, q), vectors
            )
            if eig:
                parts.append((i, eig))
                remaining -= len(eig)
    if sum(len(eig) for _, eig in parts) != len(vectors):
        raise ArithmeticError(
            "non-integral eigenvalue: eigenspaces do not exhaust the module"
        )
    return parts


def formal_character(M):
    """Word multiplicities from simultaneous generalized eigenspaces.

    For each word the multiplicity is the field dimension of the simultaneous
    generalized eigenspace at (q(w_1), .., q(w_n)), divided by the tower rank
    and by the word's intrinsic dimension factor; inexact divisions raise.
    The eigenspaces of X_n + X_n^-1, .., X_1 + X_1^-1 are split off one level
    at a time, which needs each span along the way to be invariant under the
    next operator: this holds for any module, because the X's are even and
    commute.
    """
    l = M.model.l
    field = M.field
    n = M.n
    qs = [q_of(l, i).raw for i in range(l)]
    ops = {k: _op_x_plus_xinv(M, k) for k in range(1, n + 1)}
    counts = {}
    stack = []
    for p in (1, 0):
        basis = [
            M.unit_k_vector(t, mask)
            for t in range(M.dim)
            if M.parity[t] == p
            for mask in range(M.rank)
        ]
        if basis:
            stack.append((n, basis, ()))
    while stack:
        k, vectors, word = stack.pop()
        if k == 0:
            counts[word] = counts.get(word, 0) + len(vectors)
            continue
        parts = _split_level(field, ops[k], vectors, qs)
        stack.extend((k - 1, eig, (i,) + word) for i, eig in reversed(parts))
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

    Returns the sub-supermodule over the (n-m, m) parabolic, or None when the
    eigenspace vanishes.
    """
    l = M.model.l
    field = M.field
    if m == 0:
        return M
    lam = q_of(l, i).raw
    spaces = []
    for p in (0, 1):
        vectors = [
            M.unit_k_vector(t, mask)
            for t in range(M.dim)
            if M.parity[t] == p
            for mask in range(M.rank)
        ]
        for k in range(M.n, M.n - m, -1):
            if not vectors:
                break
            vectors, _ = generalized_eigs(
                field, _shifted_apply(field, _op_x_plus_xinv(M, k), lam), vectors
            )
        spaces.extend(vectors)
    if not spaces:
        return None
    mu = (M.n - m, m) if M.n > m else (m,)
    return submodule(M, spaces, mu=mu)


def epsilon_i(M, i):
    """Largest m with a nonzero simultaneous eigenspace in the last m slots."""
    l = M.model.l
    field = M.field
    lam = q_of(l, i).raw
    eps = 0
    vectors = [
        M.unit_k_vector(t, mask)
        for t in range(M.dim)
        for mask in range(M.rank)
    ]
    for k in range(M.n, 0, -1):
        vectors, _ = generalized_eigs(
            field, _shifted_apply(field, _op_x_plus_xinv(M, k), lam), vectors
        )
        if not vectors:
            break
        eps += 1
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
    rr_cache = {}

    def rr_of(val):
        key = val.coords
        got = rr_cache.get(key)
        if got is None:
            got = M.tower.regular_rows(val)
            rr_cache[key] = got
        return got

    ech = linalg.Echelon(field)
    gen_list = [("X", k, 1) for k in range(1, M.n + 1)]
    gen_list += [("C", k) for k in range(1, M.n + 1)]
    gen_list += [("T", j) for j in M.t_indices()]
    nontrivial = 0
    for key in gen_list:
        sign = -1 if key[0] == "C" else 1
        G = M.gen(key)
        equations = {}

        def eq_add(a, b, out_mask, u, raw):
            eqk = (a, b, out_mask)
            row = equations.setdefault(eqk, {})
            cur = row.get(u)
            from . import kernels

            s = raw if cur is None else kernels.felem_add(cur, raw)
            if kernels.felem_is_zero(s):
                row.pop(u, None)
            else:
                row[u] = s

        for b in range(M.dim):
            for c, val in G[b].items():
                rr = rr_of(val)
                # term (J G)[a][b] involves unknowns J[a][c]
                for a in range(M.dim):
                    if M.parity[a] == M.parity[c]:
                        continue
                    for mask in range(rank):
                        u = uidx[(a, c, mask)]
                        for out in range(rank):
                            v = rr[out][mask]
                            if not v.is_zero():
                                eq_add(a, b, out, u, v.raw)
        for c in range(M.dim):
            for a, val in G[c].items():
                rr = rr_of(val)
                # term -s (G J)[a][b] involves unknowns J[c][b]
                for b in range(M.dim):
                    if M.parity[c] == M.parity[b]:
                        continue
                    for mask in range(rank):
                        u = uidx[(c, b, mask)]
                        for out in range(rank):
                            v = rr[out][mask]
                            if not v.is_zero():
                                w = -v if sign == 1 else v
                                eq_add(a, b, out, u, w.raw)
        for row in equations.values():
            if row:
                ech.insert(row)
                nontrivial += 1
    null_dim = len(uidx) - ech.dim
    if null_dim % rank:
        raise InexactDivisionError(M, None, "intertwiner space dimension inexact")
    return "Q" if null_dim else "M"


def circled_star(M, theta_M, N, theta_N):
    """Irreducible tensor construction.

    With at most one odd involution this is the plain graded tensor product;
    with two, the +sqrt(-1) eigenspace of their product, presented on the
    closed-form paired basis (no elimination over the tower is needed).
    """
    for mod, th in ((M, theta_M), (N, theta_N)):
        if th is not None:
            _check_odd_involution(mod, th)
    R = tensor_product(M, N)
    if theta_M is None or theta_N is None:
        return R
    f = M.field
    rt = f.sqrt_minus1
    pairs = [(a, b) for a in range(M.dim) for b in range(N.dim)]
    parity = {p: (M.parity[p[0]] + N.parity[p[1]]) & 1 for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    pos = {p: k for k, p in enumerate(order)}
    vectors = []
    m_even = [a for a in range(M.dim) if M.parity[a] == 0]
    n_even = [b for b in range(N.dim) if N.parity[b] == 0]
    for a in m_even:
        fa = theta_M[a]  # column a: theta(e_a), odd vector
        for b in n_even:
            zb = theta_N[b]
            # e_a (x) u_b - sqrt(-1) theta(e_a) (x) theta(u_b)
            coords = {pos[(a, b)]: R.tower.one}
            for a2, va in fa.items():
                for b2, vb in zb.items():
                    val = -(va * vb * rt)
                    key = pos[(a2, b2)]
                    cur = coords.get(key)
                    s = val if cur is None else cur + val
                    if not s.is_zero():
                        coords[key] = s
                    else:
                        coords.pop(key, None)
            vectors.append(R.t_vector_to_k(coords))
    for a in m_even:
        fa = theta_M[a]
        for b in n_even:
            zb = theta_N[b]
            # e_a (x) theta(u_b) - sqrt(-1) theta(e_a) (x) u_b
            coords = {}
            for b2, vb in zb.items():
                coords[pos[(a, b2)]] = vb
            for a2, va in fa.items():
                val = -(va * rt)
                key = pos[(a2, b)]
                cur = coords.get(key)
                s = val if cur is None else cur + val
                if not s.is_zero():
                    coords[key] = s
                else:
                    coords.pop(key, None)
            vectors.append(R.t_vector_to_k(coords))
    return submodule(R, vectors, mu=R.mu)


def _check_odd_involution(M, theta):
    """theta: sparse object columns; must be odd, square to one, intertwine."""
    for j, col in enumerate(theta):
        for i in col:
            if M.parity[i] == M.parity[j]:
                raise ValueError("declared involution is not odd")
    sq = _omat_mul(theta, theta)
    eye = _omat_identity(M.tower, M.dim)
    for j in range(M.dim):
        if set(sq[j]) != set(eye[j]) or any(
            sq[j][i] != eye[j][i] for i in sq[j]
        ):
            raise ValueError("declared involution does not square to one")
    for key in M.gen_keys():
        sign = -1 if key[0] == "C" else 1
        lhs = _omat_mul(theta, M.gen(key))
        rhs = _omat_mul(M.gen(key), theta)
        for j in range(M.dim):
            items = dict(lhs[j])
            for i, v in rhs[j].items():
                w = v if sign == -1 else -v
                cur = items.get(i)
                s = w if cur is None else cur + w
                if s.is_zero():
                    items.pop(i, None)
                else:
                    items[i] = s
            if items:
                raise ValueError(f"declared involution fails to intertwine {key}")


def theta_for_end_letter(M_L):
    """Canonical odd involution of the 2-dimensional end-letter module."""
    t = M_L.tower
    rt = t.scalar(M_L.field.sqrt_minus1)
    return [{1: rt}, {0: -rt}]


def ind_theta(M_factor, theta_factor, reps_count):
    """Induced odd involution: identity on cosets, theta on the factor."""
    dim_f = M_factor.dim
    pairs = [(k, b) for k in range(reps_count) for b in range(dim_f)]
    parity = {p: M_factor.parity[p[1]] for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    pos = {p: k for k, p in enumerate(order)}
    cols = [dict() for _ in pairs]
    for (k, b), idx in pos.items():
        for b2, v in theta_factor[b].items():
            cols[idx][pos[(k, b2)]] = v
    return cols


def tensor_theta_right(M, N, theta_N):
    """(id (x) theta) with the odd-map sign on the left parity."""
    pairs = [(a, b) for a in range(M.dim) for b in range(N.dim)]
    parity = {p: (M.parity[p[0]] + N.parity[p[1]]) & 1 for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    pos = {p: k for k, p in enumerate(order)}
    cols = [dict() for _ in pairs]
    for (a, b), idx in pos.items():
        sign = -1 if M.parity[a] else 1
        for b2, v in theta_N[b].items():
            cols[idx][pos[(a, b2)]] = v if sign == 1 else -v
    return cols


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
    M3 = induce(W)
    f = M3.field
    alg = HeckeClifford(f, 3)
    reps = alg.coset_representatives((2, 1))
    pairs = [(k, b) for k in range(len(reps)) for b in range(W.dim)]
    parity = {p: W.parity[p[1]] for p in pairs}
    order = sorted(pairs, key=lambda p: (parity[p], p))
    pos = {p: k for k, p in enumerate(order)}
    idx_t2 = reps.index((1, 3, 2))
    idx_t1t2 = reps.index((2, 3, 1))
    op = _op_x_plus_xinv(M3, 3)
    lam = q_of(l, i).raw

    def defining_vector(t):
        v = M3.unit_k_vector(t, 0)
        w = linalg.mat_vec(op, v, f.red)
        linalg.vec_submul_into(w, v, lam, f.red)
        return w

    ys = [
        defining_vector(pos[(idx_t2, 0)]),
        defining_vector(pos[(idx_t2, 1)]),
        defining_vector(pos[(idx_t1t2, 0)]),
        defining_vector(pos[(idx_t1t2, 1)]),
    ]
    c1 = M3.expanded(("C", 1))
    cys = [linalg.mat_vec(c1, y, f.red) for y in ys]
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
        col = M.gen(key)[c]
        exp = {k: v for k, v in expected.items() if not v.is_zero()}
        if set(col) != set(exp) or any(col[k] != exp[k] for k in col):
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


def discover_square_root(M, vectors):
    """Find a discriminant that splits unevenly on the span and its root.

    The multiplication-by-r operator restricted to the span has trace
    (m+ - m-) * s for the two eigenvalue multiplicities; scanning the possible
    multiplicity differences recovers s exactly when the split is uneven.
    """
    from .scalars import _positive_root

    field = M.field
    witness_sets = []
    if vectors:
        witness_sets.append(vectors)
    lam_list = [q_of(M.model.l, i) for i in range(M.model.l)]
    for i, lam in enumerate(lam_list):
        eig, _ = generalized_eigs(
            field,
            _shifted_apply(field, _op_x_plus_xinv(M, M.n), lam.raw),
            [M.unit_k_vector(t, m) for t in range(M.dim) for m in range(M.rank)],
        )
        if eig:
            witness_sets.append(eig)
    for k in range(len(M.tower.discs)):
        d = M.tower.discs[k]
        R = M.mask_matrices()[1 << k]
        for vs in witness_sets:
            tracker = linalg.Tracker(field)
            basis = []
            for v in vs:
                if tracker.insert(v, len(basis)) is None:
                    basis.append(v)
            trace = field.zero
            for s, v in enumerate(basis):
                w = linalg.mat_vec(R, v, field.red)
                coords = tracker.express(w)
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


def with_splitting(make, compute, attempts=4):
    """Run compute(model), splitting the scalar ring on demand and retrying."""
    model = make()
    for _ in range(attempts):
        try:
            return compute(model)
        except ZeroDivisorError as e:
            model, _ = model.split(e.disc_index, e.root)
        except InexactDivisionError as e:
            k, root = discover_square_root(e.module, e.vectors)
            model, _ = model.split(k, root)
    raise RuntimeError("ring splitting did not stabilize")


# -- the rank 2..4 verification suite -------------------------------------------


def eigen_image_vectors(M, k, i):
    """Spanning K-vectors of the image of (X_k + X_k^-1 - q(i))."""
    op = _op_x_plus_xinv(M, k)
    lam = q_of(M.model.l, i).raw
    out = []
    for t in range(M.dim):
        for mask in range(M.rank):
            v = M.unit_k_vector(t, mask)
            w = linalg.mat_vec(op, v, M.field.red)
            linalg.vec_submul_into(w, v, lam, M.field.red)
            if w:
                out.append((t, mask, w))
    return out


def invariance_witness(M, image, gen_key):
    """(closed?, witness): first image vector pushed outside the span."""
    ech = linalg.Echelon(M.field)
    for _, _, w in image:
        ech.insert(w)
    G = M.expanded(gen_key)
    for t, mask, w in image:
        out = linalg.mat_vec(G, w, M.field.red)
        if not ech.contains(out):
            name = f"T{gen_key[1]}" if gen_key[0] == "T" else str(gen_key)
            return False, f"{name} * (eigenvalue-shifted image of e_{t}) not in N"
    return True, None


def _pair_kinds(l):
    """Ordered adjacent pairs grouped by the (type, type) hypothesis."""
    out = {"not_QQ": [], "MM": [], "QM": []}
    for i in range(l):
        for j in (i - 1, i + 1):
            if not 0 <= j <= l - 1:
                continue
            ti, tj = type_of_letter(l, i), type_of_letter(l, j)
            if (ti, tj) != ("Q", "Q"):
                out["not_QQ"].append((i, j))
            if (ti, tj) == ("M", "M"):
                out["MM"].append((i, j))
            if (ti, tj) == ("Q", "M"):
                out["QM"].append((i, j))
    return out


def low_rank_suite(l):
    """Every rank 2..4 construction and invariance statement, with witnesses."""
    checks = {}

    def record(check, i, j, ok, witness=None):
        # keyed so a ring-splitting retry overwrites its partial records
        checks[(check, i, j)] = {
            "check": check,
            "l": l,
            "i": i,
            "j": j,
            "status": "pass" if ok else "fail",
            "witness": witness,
        }

    pairs = _pair_kinds(l)

    for i, j in pairs["not_QQ"]:
        def compute(model, i=i, j=j):
            Li = build_L(l, i, model)
            Lj = build_L(l, j, model)
            M = induce(tensor_product(Lj, Li))
            image = eigen_image_vectors(M, 2, i)
            ok_inv, wit = invariance_witness(M, image, ("T", 1))
            record("rank2-invariance", i, j, ok_inv, wit)
            if ok_inv:
                N = submodule(M, [w for _, _, w in image], mu=(2,))
                chn = formal_character(N)
                record(
                    "rank2-N-character",
                    i,
                    j,
                    chn == WordSum.word((i, j)),
                    repr(chn),
                )
            Lij = build_L_ij(l, i, j, model)
            record("block-ij-relations", i, j, not verify_relations(Lij))
            chij = formal_character(Lij)
            record("block-ij-character", i, j, chij == WordSum.word((i, j)), repr(chij))

        with_splitting(lambda i=i, j=j: ScalarModel.for_indices(l, [i, j]), compute)

    for i, j in pairs["MM"]:
        def compute(model, i=i, j=j):
            qi, qj = q_of(l, i), q_of(l, j)
            cond = qi * qj + qj * qj - 8
            record("rank3-MM-scalar", i, j, not cond.is_zero(), repr(cond))
            Li = build_L(l, i, model)
            Lij = build_L_ij(l, i, j, model)
            M3 = induce(tensor_product(Lij, Li))
            image = eigen_image_vectors(M3, 3, i)
            closed, wit = invariance_witness(M3, image, ("T", 2))
            record("rank3-MM-noninvariance", i, j, not closed, wit)
            ch = formal_character(M3)
            expect = WordSum({(i, i, j): 2, (i, j, i): 1})
            record("rank3-MM-character", i, j, ch == expect, repr(ch))
            chs = formal_character(sigma_twist(M3))
            record(
                "rank3-MM-sigma-character",
                i,
                j,
                chs == expect.reversed_words(),
                repr(chs),
            )

        with_splitting(lambda i=i, j=j: ScalarModel.for_indices(l, [i, j]), compute)

    for i, j in pairs["QM"]:
        def compute(model, i=i, j=j):
            W = build_L_ij_star_L_i(l, i, j, model)
            record("half-tensor-relations", i, j, not verify_relations(W))
            M3 = induce(W)
            image = eigen_image_vectors(M3, 3, i)
            ok_inv, wit = invariance_witness(M3, image, ("T", 2))
            record("rank3-QM-invariance", i, j, ok_inv, wit)
            vecs = [w for _, _, w in image]
            N = submodule(M3, vecs, mu=(3,))
            chn = formal_character(N)
            record(
                "rank3-QM-N-character",
                i,
                j,
                chn == WordSum.word((i, i, j), 2),
                repr(chn),
            )
            Liji = quotient(M3, vecs, mu=(3,))
            chq = formal_character(Liji)
            record(
                "rank3-QM-quotient-character",
                i,
                j,
                chq == WordSum.word((i, j, i)),
                repr(chq),
            )
            Liij = build_L_iij(l, i, j, model)
            record("block-iij-relations", i, j, True)
            chiij = formal_character(Liij)
            record(
                "block-iij-character",
                i,
                j,
                chiij == WordSum.word((i, i, j), 2),
                repr(chiij),
            )
            # rank 4
            qi, qj = q_of(l, i), q_of(l, j)
            cond = qj + 2 * qi
            record("rank4-QM-scalar", i, j, not cond.is_zero(), repr(cond))
            Li = build_L(l, i, model)
            M4 = induce(tensor_product(Liij, Li))
            image4 = eigen_image_vectors(M4, 4, i)
            closed, wit = invariance_witness(M4, image4, ("T", 3))
            record("rank4-QM-noninvariance", i, j, not closed, wit)
            ch4 = formal_character(M4)
            expect4 = WordSum({(i, i, i, j): 6, (i, i, j, i): 2})
            record("rank4-QM-character", i, j, ch4 == expect4, repr(ch4))
            chs4 = formal_character(sigma_twist(M4))
            record(
                "rank4-QM-sigma-character",
                i,
                j,
                chs4 == expect4.reversed_words(),
                repr(chs4),
            )
            Mijii = induce(tensor_product(Liji, Li))
            chm = formal_character(Mijii)
            expectm = WordSum({(i, j, i, i): 2, (i, i, j, i): 2})
            record("block-ijii-character", i, j, chm == expectm, repr(chm))

        with_splitting(lambda i=i, j=j: ScalarModel.for_indices(l, [i, j]), compute)

    if l == 2:
        def compute(model):
            L01 = build_L01(model)
            record("L01-relations", 0, 1, not verify_relations(L01))
            ch01 = formal_character(L01)
            record("L01-character", 0, 1, ch01 == WordSum.word((0, 1)), repr(ch01))
            L001 = build_L001(model)
            record("L001-relations", 0, 1, not verify_relations(L001))
            ch001 = formal_character(L001)
            record(
                "L001-character", 0, 1, ch001 == WordSum.word((0, 0, 1), 2), repr(ch001)
            )
            ext = build_L001_star_L0(model)
            record("L001*L0-relations", 0, 1, not verify_relations(ext))
            # the quarter-turn scalar step of the rank-4 irreducibility witness
            f = model.field
            record(
                "rank4-l2-scalar",
                0,
                1,
                2 * f.xi != f.from_int(-4),
                repr(2 * f.xi),
            )
            M4 = induce(ext)
            image4 = eigen_image_vectors(M4, 4, 0)
            closed, wit = invariance_witness(M4, image4, ("T", 3))
            record("rank4-l2-noninvariance", 0, 1, not closed, wit)
            ch4 = formal_character(M4)
            expect4 = WordSum({(0, 0, 0, 1): 6, (0, 0, 1, 0): 2})
            record("block-0010-character", 0, 1, ch4 == expect4, repr(ch4))
            chs4 = formal_character(sigma_twist(M4))
            record(
                "block-1000-character",
                0,
                1,
                chs4 == expect4.reversed_words(),
                repr(chs4),
            )
            # L(010) as the head of the induced module, then the 4-letter block
            L0 = build_L(2, 0, model)
            th0 = theta_for_end_letter(L0)
            M3 = induce(tensor_product(L01, L0))
            theta3 = ind_theta(
                tensor_product(L01, L0),
                tensor_theta_right(L01, L0, th0),
                3,
            )
            image3 = eigen_image_vectors(M3, 3, 0)
            ok_inv, wit = invariance_witness(M3, image3, ("T", 2))
            record("block-010-invariance", 0, 1, ok_inv, wit)
            L010 = quotient(
                M3, [w for _, _, w in image3], mu=(3,), extra_ops={"theta": theta3}
            )
            ch010 = formal_character(L010)
            record(
                "block-010-character", 0, 1, ch010 == WordSum.word((0, 1, 0)), repr(ch010)
            )
            star = circled_star(L010, L010.extra["theta"], L0, th0)
            M0100 = induce(star)
            ch0100 = formal_character(M0100)
            expect0100 = WordSum({(0, 1, 0, 0): 2, (0, 0, 1, 0): 2})
            record("block-0100-character", 0, 1, ch0100 == expect0100, repr(ch0100))

        with_splitting(lambda: ScalarModel.for_indices(2, []), compute)

    out = list(checks.values())
    ok = all(c["status"] == "pass" for c in out)
    return {"l": l, "ok": ok, "checks": out}


def shuffle_compat_suite(l):
    """ch(Ind M (*) N) = shuffle(ch M, ch N) over the built pair library."""
    from .grothendieck import shuffle

    checks = {}

    def record(name, i, j, ok, detail=None):
        checks[(name, i, j)] = {
            "check": name,
            "l": l,
            "i": i,
            "j": j,
            "status": "pass" if ok else "fail",
            "witness": detail,
        }

    pairs = _pair_kinds(l)
    for i, j in pairs["not_QQ"]:
        def compute(model, i=i, j=j):
            Li, Lj = build_L(l, i, model), build_L(l, j, model)
            M = induce(tensor_product(Lj, Li))
            got = formal_character(M)
            want = shuffle(WordSum.word((j,)), WordSum.word((i,)))
            record("shuffle-Lj-Li", i, j, got == want, repr(got))
            ti, tj = type_of_letter(l, i), type_of_letter(l, j)
            lij_q = (ti == "Q") != (tj == "Q")
            Lij = build_L_ij(l, i, j, model)
            M3 = induce(tensor_product(Lij, Li))
            got3 = formal_character(M3)
            want3 = shuffle(formal_character(Lij), WordSum.word((i,)))
            if lij_q and ti == "Q":
                # both factors type Q: the plain tensor doubles the half
                # tensor, so its induced character is twice the shuffle
                record(
                    "shuffle-Lij-Li-doubled", i, j, got3 == 2 * want3, repr(got3)
                )
            else:
                record("shuffle-Lij-Li", i, j, got3 == want3, repr(got3))

        with_splitting(lambda i=i, j=j: ScalarModel.for_indices(l, [i, j]), compute)

    for i in range(l):
        def compute(model, i=i):
            Li = build_L(l, i, model)
            if type_of_letter(l, i) == "Q":
                th = theta_for_end_letter(Li)
                pair = circled_star(Li, th, Li, th)
            else:
                pair = tensor_product(Li, Li)
            M = induce(pair)
            got = formal_character(M)
            want = shuffle(WordSum.word((i,)), WordSum.word((i,)))
            record("shuffle-Li-Li", i, i, got == want, repr(got))

        with_splitting(lambda i=i: ScalarModel.for_indices(l, [i]), compute)

    for i, j in pairs["QM"]:
        def compute(model, i=i, j=j):
            W = build_L_ij_star_L_i(l, i, j, model)
            M3 = induce(W)
            got = formal_character(M3)
            want = shuffle(WordSum.word((i, j)), WordSum.word((i,)))
            record("shuffle-W-star", i, j, got == want, repr(got))
            Liij = build_L_iij(l, i, j, model)
            Li = build_L(l, i, model)
            M4 = induce(tensor_product(Liij, Li))
            got4 = formal_character(M4)
            want4 = shuffle(formal_character(Liij), WordSum.word((i,)))
            record("shuffle-Liij-Li", i, j, got4 == want4, repr(got4))

        with_splitting(lambda i=i, j=j: ScalarModel.for_indices(l, [i, j]), compute)

    if l == 2:
        def compute(model):
            L0 = build_L(2, 0, model)
            L1 = build_L(2, 1, model)
            th0, th1 = theta_for_end_letter(L0), theta_for_end_letter(L1)
            star = circled_star(L0, th0, L1, th1)
            M = induce(star)
            got = formal_character(M)
            want = shuffle(WordSum.word((0,)), WordSum.word((1,)))
            record("shuffle-L0-star-L1", 0, 1, got == want, repr(got))
            ext = build_L001_star_L0(model)
            M4 = induce(ext)
            got4 = formal_character(M4)
            want4 = shuffle(WordSum.word((0, 0, 1), 2), WordSum.word((0,)))
            record("shuffle-L001-star-L0", 0, 1, got4 == want4, repr(got4))

        with_splitting(lambda: ScalarModel.for_indices(2, []), compute)

    out = list(checks.values())
    ok = all(c["status"] == "pass" for c in out)
    return {"l": l, "ok": ok, "checks": out}


def induced_matrices(M):
    """Generator matrices of the induced module (alias of induce)."""
    return induce(M)
