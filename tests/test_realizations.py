"""Path realization: generation, rotations, star strings, dominant cuts."""

import json

import pytest
from hypothesis import given, strategies as st

from heckeclifford.cartan import Weight, cartan_matrix, pairing, weight_of_c
from heckeclifford.cli import _graph_json, main
from heckeclifford.crystal import NEG_INF, BiCrystal, BiElem, TensorCrystal
from heckeclifford.realizations import (
    ConsistencyFailure,
    PathCrystal,
    PathFamily,
    blambda_by_cut,
    blambda_eps,
    blambda_f,
    blambda_member,
    blambda_phi,
    generate_binfty,
    generate_blambda,
    graphs_equal,
    path_crystal,
    weighted_string_sum,
    splitting_strictness_report,
    star_commutation_report,
    trim,
)


def test_vacuum_basics():
    for l in (2, 3, 4):
        root = PathFamily.vacuum(l)
        for i in range(l):
            assert root.eps(i) == 0
            assert root.eps_star(i) == 0
        assert root.wt().is_zero()
        for i in range(l):
            assert root.f(i).e(i) == root


def test_depth_counts():
    for l in (2, 3, 4):
        assert len(generate_binfty(l, 0).nodes) == 1
        assert len(generate_binfty(l, 1).nodes) == 1 + l


def test_depth2_matches_rotated_oracle():
    # an independent generation from a different primary rotation must give
    # an isomorphic graph; compare via canonical relabeling along BFS
    l = 2
    g = generate_binfty(l, 2)

    class Rotated(PathFamily):
        pass

    # oracle: generate abstractly with rotation-1 paths as the node key
    seen = {}
    edges = set()
    root = PathFamily.vacuum(l)
    seen[root.paths[1]] = 0
    frontier = [root]
    order = [root]
    for _ in range(2):
        new = []
        for fam in frontier:
            for i in range(l):
                child = fam.f(i)
                if child.paths[1] not in seen:
                    seen[child.paths[1]] = len(seen)
                    new.append(child)
                    order.append(child)
                edges.add((seen[fam.paths[1]], seen[child.paths[1]], i))
        frontier = new
    assert len(seen) == len(g.nodes)
    got = {(s, d, c) for s, d, c in g.edges}
    assert got == edges  # BFS discovery order coincides color-ascending


def test_unique_weight_zero_node():
    for l in (2, 3):
        g = generate_binfty(l, 5)
        zero_nodes = [f for f in g.nodes if f.wt().is_zero()]
        assert len(zero_nodes) == 1 and zero_nodes[0] == PathFamily.vacuum(l)


def test_eps_star_examples():
    l = 3
    root = PathFamily.vacuum(l)
    for i in range(l):
        child = root.f(i)
        assert child.eps_star(i) == 1
        for j in range(l):
            if j != i:
                assert child.eps_star(j) == 0


def test_rotation_consistency_checks_run():
    g = generate_binfty(3, 5)
    for fam in g.nodes:
        fam.check_rotations()


def test_psi_strictness_sample():
    g = generate_binfty(3, 4)
    for fam in g.nodes:
        assert splitting_strictness_report(fam, 3) == []


def test_strictness_holds_on_every_node_at_l4():
    # the graph the benchmark's crystal-l4 workload reports on
    g = generate_binfty(4, 7)
    assert len(g.nodes) == 1755
    for fam in g.nodes:
        assert splitting_strictness_report(fam, 4) == [], fam.paths


def test_star_commutation():
    for l in (2, 3):
        g = generate_binfty(l, 5)
        assert star_commutation_report(g) == []


def test_every_nonvacuum_node_has_positive_star():
    for l in (2, 3):
        g = generate_binfty(l, 5)
        for fam in g.nodes[1:]:
            assert any(fam.eps_star(i) > 0 for i in range(l))


def test_axioms_on_generated_nodes():
    for l in (2, 3):
        g = generate_binfty(l, 5)
        ids = {f: k for k, f in enumerate(g.nodes)}
        edge_set = {(s, c): d for s, d, c in g.edges}
        for fam in g.nodes:
            nid = ids[fam]
            for i in range(l):
                assert fam.phi(i) == fam.eps(i) + pairing(i, fam.wt())
                target = edge_set.get((nid, i))
                if target is not None:
                    child = g.nodes[target]
                    assert child.eps(i) == fam.eps(i) + 1
                    assert child.phi(i) == fam.phi(i) - 1
                    assert child.e(i) == fam


class WindowOracle:
    """List-based string window: the reference for PathCrystal's one-pass record.

    For the color i it folds b_n (x) .. (x) b_1, n = len(a) + extra * l, with
    the tensor rule into suffix lists (index 0 is the empty suffix, -inf),
    then descends from n to find where f and e act.  It shares no code with
    PathCrystal beyond the Cartan matrix and trim.
    """

    def __init__(self, l, start, extra=2):
        self.l = l
        self.start = start
        self.extra = extra
        self._cd = cartan_matrix(l)

    def color_at(self, k):
        return (self.start + k - 1) % self.l

    def window(self, a, i):
        n = len(a) + self.extra * self.l
        eps = [NEG_INF] * (n + 1)
        phi = [NEG_INF] * (n + 1)
        wt_i = [0] * (n + 1)
        row = self._cd.a[i]
        for k in range(1, n + 1):
            c = self.color_at(k)
            ak = a[k - 1] if k <= len(a) else 0
            w_factor = -ak * row[c]
            if c == i:
                e_f, p_f = ak, -ak
            else:
                e_f, p_f = NEG_INF, NEG_INF
            eps[k] = max(e_f, eps[k - 1] - w_factor)
            phi[k] = max(p_f + wt_i[k - 1], phi[k - 1])
            wt_i[k] = wt_i[k - 1] + w_factor
        return n, eps, phi

    def position(self, a, i, strict):
        """Largest k with k == 1 or phi(b_k) beating eps(b_{k-1} .. b_1)."""
        n, eps, _ = self.window(a, i)
        for k in range(n, 0, -1):
            ak = a[k - 1] if k <= len(a) else 0
            p_f = -ak if self.color_at(k) == i else NEG_INF
            if k == 1 or (p_f > eps[k - 1] if strict else p_f >= eps[k - 1]):
                return k
        raise AssertionError("unreachable: k == 1 always qualifies")

    def record(self, a, i):
        _, eps, phi = self.window(a, i)
        return eps[-1], phi[-1], self.position(a, i, True), self.position(a, i, False)

    def eps(self, a, i):
        return self.window(a, i)[1][-1]

    def phi(self, a, i):
        return self.window(a, i)[2][-1]

    def f(self, a, i):
        k = self.position(a, i, True)
        if self.color_at(k) != i:
            raise ConsistencyFailure("lowering fell on a wrong color")
        out = list(a) + [0] * (k - len(a))
        out[k - 1] += 1
        return trim(out)

    def e(self, a, i):
        if self.eps(a, i) <= 0:
            return None
        k = self.position(a, i, False)
        ak = a[k - 1] if k <= len(a) else 0
        if self.color_at(k) != i or ak == 0:
            raise ConsistencyFailure("raising fell on a wrong position")
        out = list(a)
        out[k - 1] -= 1
        return trim(out)


def outcome(op, a, i):
    """The value of op(a, i), or the marker "raises" for a ConsistencyFailure."""
    try:
        return op(a, i)
    except ConsistencyFailure:
        return "raises"


def test_window_stability():
    # extending the truncation window never changes string data, and the
    # one-pass record agrees with both widths
    pc = PathCrystal(3, 0)
    p = (2, 0, 1, 1)
    narrow, wide = WindowOracle(3, 0, extra=2), WindowOracle(3, 0, extra=3)
    for i in range(3):
        assert wide.eps(p, i) == narrow.eps(p, i) == pc.eps(p, i)
        assert wide.phi(p, i) == narrow.phi(p, i) == pc.phi(p, i)
        assert wide.f(p, i) == narrow.f(p, i) == pc.f(p, i)
        assert wide.e(p, i) == narrow.e(p, i) == pc.e(p, i)


def lowered(l, start, word):
    """The path reached from the vacuum of one rotation by a lowering word."""
    pc = PathCrystal(l, start)
    a = ()
    for i in word:
        a = pc.f(a, i)
    return a


@st.composite
def path_cases(draw):
    l = draw(st.integers(2, 5))
    raw = trim(draw(st.lists(st.integers(0, 3), max_size=3 * l)))
    word = draw(st.lists(st.integers(0, l - 1), max_size=8))
    return l, raw, word, draw(st.randoms(use_true_random=False))


@given(path_cases())
def test_string_record_matches_window_oracle(case):
    l, raw, word, rng = case
    for start in range(l):
        oracle = WindowOracle(l, start)
        reached = lowered(l, start, word)
        for a, is_reached in ((raw, False), (reached, True)):
            for i in range(l):
                pc = PathCrystal(l, start)
                assert pc._string(a, i) == oracle.record(a, i)
                for name in ("eps", "phi", "f", "e"):
                    assert outcome(getattr(pc, name), a, i) == outcome(
                        getattr(oracle, name), a, i
                    )
                eps, phi = pc.eps(a, i), pc.phi(a, i)
                assert phi - eps == pairing(i, pc.wt(a))
                down = pc.f(a, i)
                assert pc.e(down, i) == a
                up = outcome(pc.e, a, i)
                if is_reached:
                    assert up != "raises"  # a path of the realization
                if up not in (None, "raises"):
                    assert pc.f(up, i) == a
        # one instance serving interleaved queries answers like fresh ones
        queries = [(a, i, name) for a in (raw, reached) for i in range(l)
                   for name in ("eps", "phi", "f", "e")]
        rng.shuffle(queries)
        shared = PathCrystal(l, start)
        for a, i, name in queries:
            fresh = PathCrystal(l, start)
            assert outcome(getattr(shared, name), a, i) == outcome(
                getattr(fresh, name), a, i
            )


def reachable(l, start, depth):
    """Every path of one rotation reached from the vacuum by at most depth lowerings."""
    pc = PathCrystal(l, start)
    seen, frontier = {()}, [()]
    for _ in range(depth):
        frontier = {pc.f(a, i) for a in frontier for i in range(l)} - seen
        seen |= frontier
    return sorted(seen)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_trailing_window_positions_match_oracle(l):
    # _string folds the zero factors past the path in one step: only the two
    # of color i act.  Where eps is 0, e_pos is on the second of them, and
    # f_pos is on the first when eps was still negative over the path
    narrow, wide = 0, 0
    for start in range(l):
        pc = PathCrystal(l, start)
        oracles = WindowOracle(l, start, extra=2), WindowOracle(l, start, extra=3)
        for a in reachable(l, start, 4):
            for i in range(l):
                if pc.eps(a, i) != 0:
                    continue
                k0 = len(a) + 1 + (i - pc.color_at(len(a) + 1)) % l
                eps, phi, f_pos, e_pos = record = pc._string(a, i)
                assert record == oracles[0].record(a, i)
                assert e_pos == k0 + l
                # the wider window moves e_pos to its third trailing
                # position of color i, where e does not act (eps is 0)
                assert oracles[1].record(a, i) == (eps, phi, f_pos, k0 + 2 * l)
                for oracle in oracles:
                    for name in ("f", "e"):
                        assert outcome(getattr(pc, name), a, i) == outcome(
                            getattr(oracle, name), a, i
                        )
                if f_pos == k0:
                    wide += 1
                else:
                    assert f_pos <= len(a)
                    narrow += 1
    assert wide and narrow  # both branches of the fold are exercised


@given(path_cases(), st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True))
def test_tensor_crystal_matches_fresh_instances(case, ns):
    # one TensorCrystal(path, b_i) serving shuffled (b, j) queries answers
    # like fresh instances; elements share their left factor, so a slot that
    # keyed on the left factor alone would serve a stale right weight
    l, raw, word, rng = case
    start, i = rng.randrange(l), rng.randrange(l)
    tails = (raw, lowered(l, start, word))

    def pair_crystal():
        return TensorCrystal(PathCrystal(l, start), BiCrystal(l, i))

    elems = [(tail, BiElem(i, n)) for tail in tails for n in ns]
    queries = [(b, j, name) for b in elems for j in range(l)
               for name in ("eps", "phi", "f", "e", "wt")]
    shuffled = list(queries)
    rng.shuffle(shuffled)
    shared = pair_crystal()
    for b, j, name in queries + shuffled:
        if name == "wt":
            assert shared.wt(b) == pair_crystal().wt(b)
            continue
        assert outcome(getattr(shared, name), b, j) == outcome(
            getattr(pair_crystal(), name), b, j
        ), (b, j, name)


def tensor_strictness_oracle(fam, l):
    """The strictness report through the generic tensor rule.

    For each color i it builds TensorCrystal(tail, b_i) from fresh crystals
    and compares its eps, phi and f with the path operators of the rotation
    starting at i, message for message like splitting_strictness_report.
    """
    bad = []
    for i in range(l):
        p = fam.paths[i]
        a1 = p[0] if p else 0
        tail = trim(p[1:])
        pair_crystal = TensorCrystal(PathCrystal(l, (i + 1) % l), BiCrystal(l, i))
        pair = (tail, BiElem(i, -a1))
        rot = PathCrystal(l, i)
        for j in range(l):
            if pair_crystal.eps(pair, j) != rot.eps(p, j):
                bad.append(f"eps mismatch at color {j} under splitting {i}")
            if pair_crystal.phi(pair, j) != rot.phi(p, j):
                bad.append(f"phi mismatch at color {j} under splitting {i}")
            fp = rot.f(p, j)
            fpair = pair_crystal.f(pair, j)
            if fpair is None:
                bad.append(f"tensor lowering died at color {j}, split {i}")
                continue
            tail2, b2 = fpair
            glued = trim((-b2.n,) + tuple(tail2))
            if glued != fp:
                bad.append(f"lowering mismatch at color {j} under splitting {i}")
    return bad


@pytest.mark.parametrize("l, depth", [(2, 6), (3, 6), (4, 6), (5, 5)])
def test_strictness_report_matches_tensor_oracle(l, depth):
    for fam in generate_binfty(l, depth).nodes:
        assert splitting_strictness_report(fam, l) == tensor_strictness_oracle(fam, l)


@st.composite
def unreachable_families(draw):
    l = draw(st.integers(2, 5))
    paths = [trim(draw(st.lists(st.integers(0, 3), max_size=2 * l))) for _ in range(l)]
    return l, PathFamily(l, paths)


@given(unreachable_families())
def test_strictness_report_matches_tensor_oracle_off_the_crystal(case):
    # trimmed tuples that need not be paths of the realization, nor one
    # element in all rotations: the records and the tensor rule must still
    # agree message for message, and an operator that fell on a wrong color
    # would have to raise on both sides
    l, fam = case
    assert outcome(splitting_strictness_report, fam, l) == outcome(
        tensor_strictness_oracle, fam, l
    )


def test_string_passes_per_path(monkeypatch):
    # one all-colors pass per (path, rotation): generation expands each node
    # once in each of the l rotations, the graph report reads one record
    # per node, and the strictness check two per (node, rotation)
    l, depth = 4, 7
    expanded = len(generate_binfty(l, depth - 1).nodes)
    passes = [0]
    fold = PathCrystal._fold

    def counted(self, a):
        passes[0] += 1
        return fold(self, a)

    path_crystal.cache_clear()
    monkeypatch.setattr(PathCrystal, "_fold", counted)
    g = generate_binfty(l, depth)
    assert passes[0] <= l * expanded == 3228
    passes[0] = 0
    _graph_json(g)
    assert passes[0] <= len(g.nodes) == 1755
    passes[0] = 0
    for fam in g.nodes:
        splitting_strictness_report(fam, l)
    assert passes[0] <= 2 * l * len(g.nodes) == 14040


@pytest.mark.parametrize(
    "corrupt, kinds",
    [
        (None, set()),
        ("eps", {"eps mismatch"}),
        ("phi", {"phi mismatch", "lowering mismatch"}),
    ],
)
def test_strictness_report_catches_corrupted_string(monkeypatch, tmp_path, corrupt, kinds):
    # negative control: a string value off by one on color 1 (and, through
    # phi, the tensor rule's choice of lowering) must show in the report
    # and in the crystal part of the `all` report, failing the CLI;
    # unpatched, the same checks find nothing.  The corruption is in the
    # all-colors record, which eps, phi, f and the report all read
    if corrupt is not None:
        field = ("eps", "phi").index(corrupt)
        honest = PathCrystal._records

        def corrupted(self, a):
            records = [list(r) for r in honest(self, a)]
            records[1][field] += 1
            return tuple(map(tuple, records))

        monkeypatch.setattr(PathCrystal, "_records", corrupted)
    g = generate_binfty(3, 4)
    issues = [m for fam in g.nodes for m in splitting_strictness_report(fam, 3)]
    assert {m.split(" at color")[0] for m in issues} == kinds
    out = tmp_path / "all.json"
    code = main(["all", "--l", "2", "--depth", "3", "--out", str(out)])
    crystal_issues = json.loads(out.read_text())["parts"]["crystal"]["issues"]
    if corrupt is None:
        assert crystal_issues == []
    else:
        assert crystal_issues and code == 1


def test_blambda_membership_and_expulsion():
    l = 3
    lam = Weight.fundamental(l, 0)
    root = PathFamily.vacuum(l)
    assert blambda_member(root, lam)
    # lowering with a color whose star bound is 0 expels the result
    assert blambda_f(root, lam, 1) is None
    assert blambda_f(root, lam, 0) is not None


def test_blambda_phi_of_vacuum_is_lambda():
    for l in (2, 3):
        for i in range(l):
            lam = Weight.fundamental(l, i)
            root = PathFamily.vacuum(l)
            for j in range(l):
                assert blambda_phi(root, lam, j) == (1 if j == i else 0)


def test_blambda_string_from_top():
    # the 0-string from the top of the fundamental cut has length 1
    l = 2
    lam = Weight.fundamental(2, 0)
    root = PathFamily.vacuum(2)
    one_down = blambda_f(root, lam, 0)
    assert one_down is not None
    assert blambda_f(one_down, lam, 0) is None


def test_weighted_string_sum_equals_degree():
    for l in (2, 3):
        lams = [
            Weight.fundamental(l, 0),
            Weight.fundamental(l, l - 1),
            Weight.fundamental(l, 0) + Weight.fundamental(l, l - 1),
        ]
        for lam in lams:
            g = generate_blambda(l, lam, 4)
            for fam in g.nodes:
                assert weighted_string_sum(fam, lam) == weight_of_c(lam)


def test_cut_equals_closure():
    for l in (2, 3):
        for lam in (
            Weight.fundamental(l, 0),
            Weight.fundamental(l, 0) + Weight.fundamental(l, l - 1),
        ):
            g1 = generate_blambda(l, lam, 5)
            g2 = blambda_by_cut(l, lam, 5)
            assert graphs_equal(g1, g2)


def test_blambda_eps_nonnegative_strings():
    l = 2
    lam = Weight.fundamental(l, 0) + Weight.fundamental(l, 1)
    g = generate_blambda(l, lam, 5)
    for fam in g.nodes:
        for i in range(l):
            assert blambda_eps(fam, lam, i) >= 0
            assert blambda_phi(fam, lam, i) >= 0


def test_trim():
    assert trim((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert trim(()) == ()


def test_path_function_wrappers():
    pc = PathCrystal(3, 0)
    assert pc.eps((), 1) == 0
    p = pc.f((), 0)
    assert p == (1,)
    assert pc.e(p, 0) == ()
    assert pc.e((), 0) is None
    assert pc.phi(p, 0) == pc.eps(p, 0) - 2
    assert pc.wt(p).alpha == (-1, 0, 0)


def test_blambda_axioms_along_edges():
    # string bookkeeping of the cut follows the ambient crystal axioms
    from heckeclifford.realizations import blambda_e

    for l in (2, 3):
        lam = Weight.fundamental(l, 0) + Weight.fundamental(l, l - 1)
        g = generate_blambda(l, lam, 6)
        for src, dst, color in g.edges:
            p, q = g.nodes[src], g.nodes[dst]
            assert blambda_eps(q, lam, color) == blambda_eps(p, lam, color) + 1
            assert blambda_phi(q, lam, color) == blambda_phi(p, lam, color) - 1
            assert blambda_e(q, lam, color) == p
            wdiff = (lam + p.wt()) - (lam + q.wt())
            assert wdiff == Weight.root(l, color)


def test_rotation_mismatch_detected():
    # corrupt one rotation by hand: intrinsic data disagrees and is rejected
    fam = PathFamily.vacuum(3).f(0)
    broken = PathFamily(3, (fam.paths[0], (5,), fam.paths[2]))
    with pytest.raises(ConsistencyFailure):
        broken.check_rotations()
