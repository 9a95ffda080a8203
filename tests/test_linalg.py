"""Sparse exact linear algebra over the cyclotomic field and over F_p."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from heckeclifford import kernels, linalg, modp
from heckeclifford.scalars import CycField


def _rand_vec(rng, field, n, density=0.5):
    v = {}
    for i in range(n):
        if rng.random() < density:
            nums = [rng.randint(-4, 4) for _ in range(field.degree)]
            if any(nums):
                v[i] = field.elem(nums, rng.randint(1, 3)).raw
    return v


def _dense_rank(rows):
    """Rank over Q by Fraction Gaussian elimination (the dense oracle)."""
    dense = [[Fraction(x) for x in row] for row in rows]
    m = len(dense)
    n = len(dense[0]) if dense else 0
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if dense[r][col]:
                piv = r
                break
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        for r in range(m):
            if r != rank and dense[r][col]:
                f = dense[r][col] / dense[rank][col]
                for c2 in range(n):
                    dense[r][c2] -= f * dense[rank][c2]
        rank += 1
    return rank


def test_echelon_rank_matches_dense_oracle():
    # rational entries only, so Fraction elimination gives the exact rank
    rng = random.Random(3)
    field = CycField.for_l(2)
    for _ in range(10):
        n, m = 6, 4
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        vs = [{i: field.from_int(x).raw for i, x in enumerate(row) if x} for row in rows]
        assert linalg.rank_of(field, vs) == _dense_rank(rows)


def _zeta_vec(field, row, j):
    """The integer row as a sparse vector, scaled by zeta^j."""
    v = {i: field.from_int(x).raw for i, x in enumerate(row) if x}
    return linalg.vec_scale(v, field.zeta_pow(j).raw, field.red)


def _combine(field, coeffs, vectors):
    acc = {}
    for tag, c in coeffs.items():
        linalg.vec_add_into(acc, linalg.vec_scale(vectors[tag], c, field.red))
    return acc


_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


@st.composite
def _family(draw):
    """Small integer rows and queries, each with a power of zeta to scale by."""
    l = draw(st.integers(2, 3))
    n = draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cs = draw(st.lists(_ENTRY, min_size=len(rows), max_size=len(rows)))
            q = [sum(c * r[i] for c, r in zip(cs, rows)) for i in range(n)]
        else:
            q = draw(row)
        queries.append(q)
    k = len(rows) + len(queries)
    js = draw(st.lists(st.integers(0, 4 * l - 1), min_size=k, max_size=k))
    return l, rows, queries, js


@given(_family())
def test_elimination_matches_dense_oracle(family):
    # scaling a vector by a unit zeta^j moves neither ranks nor spans, and an
    # integer matrix has the same rank over Q(zeta_4l) as over Q
    l, rows, queries, js = family
    field = CycField.for_l(l)
    vs = [_zeta_vec(field, r, j) for r, j in zip(rows, js)]
    qs = [_zeta_vec(field, q, j) for q, j in zip(queries, js[len(rows):])]
    rank = _dense_rank(rows)
    ech, tracker = linalg.Echelon(field), linalg.Tracker(field)
    for t, v in enumerate(vs):
        ech.insert(v)
        tracker.insert(v, t)
    assert linalg.rank_of(field, vs) == rank
    assert ech.dim == tracker.dim == len(tracker.tags) == rank
    for q_row, q in zip(queries, qs):
        inside = _dense_rank(rows + [q_row]) == rank
        assert ech.contains(q) == tracker.contains(q) == inside
        coords = tracker.express(q)
        if inside:
            assert _combine(field, coords, vs) == q
        else:
            assert coords is None
    deps = linalg.nullspace_combinations(field, list(enumerate(vs)))
    assert len(deps) == len(vs) - rank
    for dep in deps:
        assert dep and not _combine(field, dep, vs)


class MinIndexOracle:
    """The elimination before cheapest pivots, kept as the oracle.

    Each new row pivots on its smallest index, and a reduction stops at the
    first index without a pivot.  insert(v, tag) has Tracker's semantics (the
    dependency, or None when the rank grew) and so Echelon's too.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}
        self.tags = []

    @property
    def dim(self):
        return len(self.pivots)

    def _reduce(self, v, combo):
        """Reduce v in place; the first index without a pivot, or None at zero."""
        red = self.field.red
        while v:
            p = min(v)
            if p not in self.pivots:
                return p
            row, cmb = self.pivots[p]
            c = v.pop(p)
            linalg.vec_submul_into(v, row, c, red)
            linalg.vec_submul_into(combo, cmb, c, red)
        return None

    def insert(self, v, tag):
        v, combo = dict(v), {tag: self.field.one.raw}
        p = self._reduce(v, combo)
        if p is None:
            return combo
        inv, red = self.field.raw_inverse(v.pop(p)), self.field.red
        self.pivots[p] = (linalg.vec_scale(v, inv, red), linalg.vec_scale(combo, inv, red))
        self.tags.append(tag)
        return None

    def contains(self, v):
        return self._reduce(dict(v), {}) is None

    def express(self, v):
        combo = {}
        if self._reduce(dict(v), combo) is not None:
            return None
        return {k: kernels.felem_neg(c) for k, c in combo.items()}


@st.composite
def _field_family(draw):
    """Vectors over Q(zeta_4l), l = 2..4, whose span the coordinate sum kills.

    Entries are general field elements with denominators, every vector is
    scaled by a power of zeta, some vectors are combinations of earlier ones,
    and the queries mix in-span combinations with free vectors.  Since the
    coordinate sum kills the span, adding 1 to one coordinate of an in-span
    query certainly moves it outside.
    """
    l = draw(st.integers(2, 4))
    field = CycField.for_l(l)
    num = st.integers(-3, 3)
    elem = st.builds(
        lambda nums, den: field.elem(nums, den).raw,
        st.lists(num, min_size=field.degree, max_size=field.degree),
        st.integers(1, 4),
    )
    n = draw(st.integers(2, 6))

    def zeta_scaled(v):
        """v times a drawn power of zeta."""
        j = draw(st.integers(0, 4 * l - 1))
        return linalg.vec_scale(v, field.zeta_pow(j).raw, field.red)

    def free(close):
        """A drawn vector; with close, its last entry zeroes the coordinate sum."""
        v = {}
        for k in range(n - 1):
            if draw(st.booleans()):
                x = draw(elem)
                if x != field.zero.raw:
                    v[k] = x
        if close:
            total = {}
            for x in v.values():
                linalg.vec_add_into(total, {0: x})
            if total:
                v[n - 1] = kernels.felem_neg(total[0])
        return zeta_scaled(v)

    def combination(vs):
        acc = {}
        for w in draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3)):
            linalg.vec_add_into(acc, linalg.vec_scale(w, draw(elem), field.red))
        return zeta_scaled(acc)

    vs = []
    for _ in range(draw(st.integers(1, 7))):
        vs.append(combination(vs) if vs and draw(st.booleans()) else free(True))
    queries = [free(False) for _ in range(draw(st.integers(0, 2)))]
    inside = [combination(vs) for _ in range(draw(st.integers(1, 3)))]
    return field, n, vs, queries + inside, inside


def _build(field, vs):
    ech, tracker = linalg.Echelon(field), linalg.Tracker(field)
    for t, v in enumerate(vs):
        ech.insert(v)
        tracker.insert(v, t)
    return ech, tracker


@given(_field_family())
def test_cheapest_pivots_match_the_min_index_oracle(family):
    field, n, vs, queries, inside = family
    oracle = MinIndexOracle(field)
    grew = [oracle.insert(v, t) is None for t, v in enumerate(vs)]
    ech, tracker = _build(field, vs)
    assert linalg.rank_of(field, vs) == sum(grew) == oracle.dim
    assert ech.dim == tracker.dim == oracle.dim
    assert tracker.tags == oracle.tags
    for q in queries:
        assert ech.contains(q) == tracker.contains(q) == oracle.contains(q)
        assert tracker.express(q) == oracle.express(q)
    want = MinIndexOracle(field)
    deps = [want.insert(v, t) for t, v in enumerate(vs)]
    got = linalg.nullspace_combinations(field, list(enumerate(vs)))
    assert got == [dep for dep in deps if dep is not None]
    # negative control: one changed coefficient leaves the span for both
    for q in inside:
        assert tracker.contains(q) and oracle.contains(q)
        for k in range(n):
            bad = dict(q)
            linalg.vec_add_into(bad, {k: field.one.raw})
            assert not ech.contains(bad) and not tracker.contains(bad)
            assert not oracle.contains(bad)
            assert tracker.express(bad) is None and oracle.express(bad) is None


@given(_field_family(), st.randoms(use_true_random=False))
def test_pivots_do_not_depend_on_key_order(family, rng):
    field, _, vs, queries, _ = family

    def shuffled(v):
        keys = list(v)
        rng.shuffle(keys)
        return {k: v[k] for k in keys}

    vs2 = [shuffled(v) for v in vs]
    ech, tracker = _build(field, vs)
    ech2, tracker2 = _build(field, vs2)
    for a, b in ((ech, ech2), (tracker, tracker2)):
        assert list(a.pivots) == list(b.pivots)
        assert a.pivots == b.pivots
    for q in queries:
        q2 = shuffled(q)
        assert ech.contains(q) == ech2.contains(q2)
        assert tracker.express(q) == tracker2.express(q2)
    assert linalg.nullspace_combinations(field, list(enumerate(vs))) == (
        linalg.nullspace_combinations(field, list(enumerate(vs2)))
    )


def _dense_rank_mod(rows, p):
    """Rank mod p by dense Gaussian elimination (the F_p oracle)."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _residue_vec(row, p):
    return {i: x % p for i, x in enumerate(row) if x % p}


def _combine_mod(p, coeffs, vectors):
    acc = {}
    for tag, c in coeffs.items():
        for i, x in vectors[tag].items():
            acc[i] = (acc.get(i, 0) + c * x) % p
    return {i: x for i, x in acc.items() if x}


@st.composite
def _residue_family(draw):
    """Residue rows, some combinations of earlier ones, and queries, mod p.

    Small primes make chance dependencies mod p common.
    """
    p = draw(st.sampled_from([2, 3, 5, 13, modp.prime_and_root(2)[0]]))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(1, p - 1))
    row = st.lists(entry, min_size=n, max_size=n)

    def combination(rows):
        cs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
        return [sum(c * r[i] for c, r in zip(cs, rows)) % p for i in range(n)]

    rows = [draw(row)]
    for _ in range(draw(st.integers(0, 6))):
        rows.append(combination(rows) if draw(st.booleans()) else draw(row))
    queries = [
        combination(rows) if draw(st.booleans()) else draw(row)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return p, rows, queries


@given(_residue_family())
def test_elimination_over_a_prime_field_matches_dense_oracle(family):
    p, rows, queries = family
    field = modp.PrimeField(p)
    vs = [_residue_vec(r, p) for r in rows]
    rank = _dense_rank_mod(rows, p)
    ech, tracker = _build(field, vs)
    assert linalg.rank_of(field, vs) == ech.dim == tracker.dim == rank
    for q_row in queries:
        q = _residue_vec(q_row, p)
        inside = _dense_rank_mod(rows + [q_row], p) == rank
        assert ech.contains(q) == tracker.contains(q) == inside
        coords = tracker.express(q)
        if inside:
            assert all(0 < c < p for c in coords.values())
            assert _combine_mod(p, coords, vs) == q
        else:
            assert coords is None
    deps = linalg.nullspace_combinations(field, list(enumerate(vs)))
    assert len(deps) == len(vs) - rank
    for dep in deps:
        assert dep and all(0 < c < p for c in dep.values())
        assert not _combine_mod(p, dep, vs)


def _least_prime_residues(l):
    """Reduction of Q(zeta_4l) at the least prime p = 1 mod 4l.

    At so small a p the rank of a p-integral family drops mod p more often
    than at the prime of modp.prime_and_root.
    """
    m = 4 * l
    p = next(q for q in range(m + 1, 1000, m) if modp.is_prime(q))
    omega = next(
        w
        for w in range(2, p)
        if pow(w, m, p) == 1 and all(pow(w, m // r, p) != 1 for r in (2, 3) if m % r == 0)
    )
    return modp.Residues(l, p, omega)


def _reduce(res, v):
    return {i: r for i, x in v.items() if (r := res.of(x))}


@given(_field_family())
def test_rank_mod_p_never_exceeds_the_rank_over_k(family):
    field, _, vs, _, _ = family
    rank = linalg.rank_of(field, vs)
    for res in (modp.Residues.for_l(field.l), _least_prime_residues(field.l)):
        reduced = [_reduce(res, v) for v in vs]
        assert linalg.rank_of(modp.PrimeField(res.p), reduced) <= rank


@given(_family())
def test_rank_mod_p_equals_the_dense_rank_over_k(family):
    # integer rows of entries at most 3 in absolute value and at most six
    # rows: every minor is below p, so no rank drops mod p
    l, rows, _, js = family
    field = CycField.for_l(l)
    res = modp.Residues.for_l(l)
    vs = [_reduce(res, _zeta_vec(field, r, j)) for r, j in zip(rows, js)]
    assert linalg.rank_of(modp.PrimeField(res.p), vs) == _dense_rank(rows)


def test_monomial_pivot_beats_smaller_index():
    field = CycField.for_l(3)
    z = field.q  # zeta
    general = (1 + z).raw
    mono = (3 * z * z).raw
    ech = linalg.Echelon(field)
    ech.insert({0: general, 4: mono, 2: (2 + z).raw})
    assert list(ech.pivots) == [4]
    # the first row clears indices 4 and 0 of this vector, and its residual
    # pivots on the monomial at 3 rather than at index 1 or 2
    ech.insert({0: general, 1: (1 - z * z).raw, 3: (5 * z).raw, 4: mono})
    assert list(ech.pivots) == [4, 3]
    assert sorted(ech.pivots[3][0]) == [1, 2]
    # no monomial left: the smaller height wins over the smaller index, and
    # equal costs go to the smaller index
    ech = linalg.Echelon(field)
    ech.insert({0: (7 + 5 * z).raw, 2: (1 + z).raw, 3: (1 - z).raw})
    assert list(ech.pivots) == [2]


def test_echelon_membership():
    field = CycField.for_l(3)
    rng = random.Random(5)
    basis = [_rand_vec(rng, field, 8) for _ in range(3)]
    e = linalg.Echelon(field)
    for v in basis:
        e.insert(v)
    # random combination is in the span
    comb = {}
    for v in basis:
        c = field.elem([rng.randint(-3, 3) for _ in range(field.degree)], 1).raw
        linalg.vec_add_into(comb, linalg.vec_scale(v, c, field.red))
    assert e.contains(comb)


def test_tracker_express_roundtrip():
    field = CycField.for_l(3)
    rng = random.Random(9)
    vs = [_rand_vec(rng, field, 10, 0.7) for _ in range(5)]
    t = linalg.Tracker(field)
    for i, v in enumerate(vs):
        t.insert(v, i)
    # build a known combination and recover its coordinates
    coeffs = {
        i: field.elem([rng.randint(-2, 2) for _ in range(field.degree)], 1).raw
        for i in (0, 2, 4)
    }
    target = {}
    for i, c in coeffs.items():
        linalg.vec_add_into(target, linalg.vec_scale(vs[i], c, field.red))
    got = t.express(target)
    assert got is not None
    recon = {}
    for i, c in got.items():
        linalg.vec_add_into(recon, linalg.vec_scale(vs[i], c, field.red))
    diff = dict(target)
    linalg.vec_submul_into(diff, recon, field.one.raw, field.red)
    assert not diff


def test_nullspace_combinations():
    field = CycField.for_l(2)
    v1 = {0: field.one.raw, 1: field.from_int(2).raw}
    v2 = {1: field.one.raw}
    v3 = {0: field.from_int(3).raw, 1: field.from_int(4).raw}  # 3*v1 - 2*v2
    deps = linalg.nullspace_combinations(field, [(0, v1), (1, v2), (2, v3)])
    assert len(deps) == 1
    dep = deps[0]
    # reconstruct: sum dep[i] * v_i == 0
    acc = {}
    for i, c in dep.items():
        linalg.vec_add_into(acc, linalg.vec_scale([v1, v2, v3][i], c, field.red))
    assert not acc


def test_mat_mul_identity():
    field = CycField.for_l(2)
    rng = random.Random(1)
    a = [_rand_vec(rng, field, 5, 0.6) for _ in range(5)]
    eye = [{k: field.one.raw} for k in range(5)]
    assert linalg.mat_mul(a, eye, field.red) == a
    assert linalg.mat_mul(eye, a, field.red) == a
