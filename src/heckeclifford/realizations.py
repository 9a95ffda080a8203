"""Bounded-depth path realization of the highest-weight-free crystal and its
dominant-weight cuts.

An element is a finitely supported sequence (a_1, a_2, ...) encoding the
semi-infinite tensor product ... (x) b_{c_2}(-a_2) (x) b_{c_1}(-a_1) with the
cyclic color pattern c_k = start + k - 1 mod l, rightmost factor first.
Elements are carried simultaneously in all l rotations of the color pattern;
the first coordinate of the rotation starting at color i records the star
string length for i.  Breakdowns of the rotation matching abort generation.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import Weight, cartan_matrix, pairing
from .crystal import NEG_INF


class ConsistencyFailure(RuntimeError):
    """Two reduced words reached one element in some rotation but not all."""


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


class PathCrystal:
    """One rotation of the path realization; elements are trimmed tuples."""

    def __init__(self, l, start):
        self.l = l
        self.start = start
        a = cartan_matrix(l).a
        # per color c, its Cartan neighbours j with the entry A[j][c]
        self._neighbours = tuple(
            tuple((j, a[j][c]) for j in range(l) if j != c and a[j][c])
            for c in range(l)
        )
        # the last (a, records): every query on one path shares one pass;
        # a single slot never grows with the crystal
        self._last = (None, None)

    def colors(self):
        return range(self.l)

    def color_at(self, k):
        """Color of coordinate k (1-based)."""
        return (self.start + k - 1) % self.l

    def vacuum(self):
        return ()

    def wt(self, a):
        # coordinates s, s + l, .. all carry the color start + s
        l = self.l
        alpha = [0] * l
        for s in range(min(l, len(a))):
            alpha[(self.start + s) % l] = -sum(a[s::l])
        return Weight(l, (0,) * l, tuple(alpha))

    def _records(self, a):
        """The records of _fold(a), from the slot when a was the last path."""
        last = self._last
        if last[0] == a:
            return last[1]
        records = self._fold(a)
        self._last = (a, records)
        return records

    def _fold(self, a):
        """String data of every color in one pass: per color i the record
        (eps, phi, f_pos, e_pos, wt), wt = <h_i, wt a>.

        One forward pass of the signature rule over the stable truncation
        b_N (x) .. (x) b_1, N = len(a) + 2l, folding each factor onto the
        suffix b_{k-1} (x) .. (x) b_1 with the tensor rule, for all colors at
        once.  eps and phi are the string values of the whole truncation;
        f_pos is the largest k with k == 1 or phi(b_k) > eps(suffix k-1), and
        e_pos the largest with >=, the positions where f and e act.

        For a color j != c, b_c(-a_k) has eps = phi = -inf, so folding it
        only adds a_k A[j][c] to eps and subtracts it from wt: a nonzero
        coordinate moves its own color and its Cartan neighbours
        (_neighbours[c]), a zero one its own color only.

        The loop runs over the path's own coordinates only.  Past n = len(a)
        every factor is b_c(0), and for the color i only the two of color i
        act: k0 = n + 1 + ((i - c) mod l), c the color at n + 1, and k0 + l.
        Folding b_i(0) at k0 moves f_pos there if eps < 0 and e_pos if
        eps <= 0, then sets eps to max(eps, 0) and phi to max(phi, wt).  At
        k0 + l it finds eps >= 0 and phi >= wt, so it only moves e_pos, when
        eps is 0.
        """
        l = self.l
        neighbours = self._neighbours
        eps = [NEG_INF] * l
        phi = [NEG_INF] * l
        wt = [0] * l
        f_pos = [1] * l
        e_pos = [1] * l
        c = self.start
        for k, ak in enumerate(a, 1):
            e = eps[c]
            if -ak > e:
                f_pos[c] = k
            if -ak >= e:
                e_pos[c] = k
            eps[c] = max(ak, e + 2 * ak)
            w = wt[c] - ak
            if w >= phi[c]:
                phi[c] = w
            wt[c] = w - ak
            if ak:
                for j, ajc in neighbours[c]:
                    eps[j] += ak * ajc
                    wt[j] -= ak * ajc
            c += 1
            if c == l:
                c = 0
        for i in range(l):
            if eps[i] <= 0:
                k0 = len(a) + 1 + (i - c) % l
                if eps[i] < 0:
                    f_pos[i], eps[i] = k0, 0
                e_pos[i] = k0 + l
        return tuple(zip(eps, map(max, phi, wt), f_pos, e_pos, wt))

    def _string(self, a, i):
        """String data of the color i: (eps, phi, f_pos, e_pos)."""
        return self._records(a)[i][:4]

    def eps(self, a, i):
        return self._records(a)[i][0]

    def phi(self, a, i):
        return self._records(a)[i][1]

    def _f_pos(self, a, i):
        """The coordinate that f(a, i) raises by one."""
        k = self._records(a)[i][2]
        if self.color_at(k) != i:
            raise ConsistencyFailure("lowering fell on a wrong color")
        return k

    def f(self, a, i):
        k = self._f_pos(a, i)
        out = list(a) + [0] * (k - len(a))
        out[k - 1] += 1
        return trim(out)

    def e(self, a, i):
        eps, _, _, k, _ = self._records(a)[i]
        if eps <= 0:
            return None
        if self.color_at(k) != i or k > len(a) or a[k - 1] == 0:
            raise ConsistencyFailure("raising fell on a wrong position")
        out = list(a)
        out[k - 1] -= 1
        return trim(out)


@lru_cache(maxsize=None)
def path_crystal(l, start):
    """The one PathCrystal of a rotation, whose slot serves every caller:
    a family's lowerings, the graph report and the strictness check."""
    return PathCrystal(l, start)


class PathFamily:
    """One element carried in every rotation simultaneously."""

    __slots__ = ("l", "paths")

    def __init__(self, l, paths):
        self.l = l
        self.paths = tuple(paths)

    @staticmethod
    def vacuum(l):
        return PathFamily(l, ((),) * l)

    def __eq__(self, other):
        return isinstance(other, PathFamily) and self.paths == other.paths

    def __hash__(self):
        return hash(self.paths)

    def key(self):
        return self.paths[0]

    def f(self, i):
        return PathFamily(
            self.l, [path_crystal(self.l, s).f(p, i) for s, p in enumerate(self.paths)]
        )

    def e(self, i):
        outs = [path_crystal(self.l, s).e(p, i) for s, p in enumerate(self.paths)]
        nones = sum(1 for o in outs if o is None)
        if nones == self.l:
            return None
        if nones:
            raise ConsistencyFailure("rotations disagree about a raising")
        return PathFamily(self.l, outs)

    def eps(self, i):
        return path_crystal(self.l, 0).eps(self.paths[0], i)

    def phi(self, i):
        return path_crystal(self.l, 0).phi(self.paths[0], i)

    def wt(self):
        return path_crystal(self.l, 0).wt(self.paths[0])

    def eps_star(self, i):
        """First coordinate of the rotation that starts at color i."""
        p = self.paths[i]
        return p[0] if p else 0

    def check_rotations(self):
        """Intrinsic data must agree across all rotations."""
        w0 = self.wt()
        for s in range(1, self.l):
            pc = path_crystal(self.l, s)
            if pc.wt(self.paths[s]) != w0:
                raise ConsistencyFailure("rotations disagree about the weight")
            for i in range(self.l):
                if pc.eps(self.paths[s], i) != self.eps(i):
                    raise ConsistencyFailure("rotations disagree about eps")

    def __repr__(self):
        return f"PathFamily{self.paths[0]}"


class CrystalGraph:
    """Deterministically numbered crystal graph from a lowering-closure."""

    def __init__(self, l):
        self.l = l
        self.nodes = []
        self.index = {}
        self.edges = []

    def node_id(self, fam):
        return self.index.get(fam.key())

    def add_node(self, fam):
        nid = len(self.nodes)
        self.nodes.append(fam)
        self.index[fam.key()] = nid
        return nid


def _closure(l, depth, lower):
    """BFS closure of the vacuum under lower(fam, i), for every color i.

    Nodes are discovered colors-ascending; lower returns None where there is
    no child.  Every edge into a known node is cross-checked in all rotations,
    and a mismatch raises ConsistencyFailure.
    """
    g = CrystalGraph(l)
    root = PathFamily.vacuum(l)
    g.add_node(root)
    frontier = [root]
    for _ in range(depth):
        new_frontier = []
        for fam in frontier:
            src = g.node_id(fam)
            for i in range(l):
                child = lower(fam, i)
                if child is None:
                    continue
                nid = g.node_id(child)
                if nid is None:
                    nid = g.add_node(child)
                    new_frontier.append(child)
                elif g.nodes[nid].paths != child.paths:
                    raise ConsistencyFailure(
                        f"two words reach {child.key()} with different rotations"
                    )
                g.edges.append((src, nid, i))
        frontier = new_frontier
    return g


def generate_binfty(l, depth):
    """Closure of the vacuum under all lowerings up to the given depth."""
    return _closure(l, depth, lambda fam, i: fam.f(i))


def splitting_strictness_report(fam, l):
    """The first-coordinate splitting must commute with every lowering.

    For each color i, the element p equals tail (x) b_i(-a_1) in the
    rotation starting at i, tail = trim(p[1:]) in the rotation starting at
    i + 1.  The tensor rule applied to that pair, on the string records of
    the tail, must agree with the path operators, both for the result of
    every lowering and for the string data.  The tail's phi is an integer,
    so the rule lowers b_i(-a_1) only under the color i.
    """
    bad = []
    cd = cartan_matrix(l)
    for i in range(l):
        p = fam.paths[i]
        a1 = p[0] if p else 0
        tail = trim(p[1:])
        rot = path_crystal(l, i)
        tail_crystal = path_crystal(l, (i + 1) % l)
        records, tail_records = rot._records(p), tail_crystal._records(tail)
        for j in range(l):
            eps, phi = records[j][:2]
            eps_t, phi_t, _, _, wt_t = tail_records[j]
            # b_i(-a_1) has eps = a_1, phi = -a_1 on color i, -inf elsewhere
            eps_b, phi_b = (a1, -a1) if j == i else (NEG_INF, NEG_INF)
            if max(eps_t, eps_b - wt_t) != eps:
                bad.append(f"eps mismatch at color {j} under splitting {i}")
            if max(phi_t - a1 * cd.a[j][i], phi_b) != phi:
                bad.append(f"phi mismatch at color {j} under splitting {i}")
            # p and (a_1,) + tail are one vector, so the two lowerings agree
            # exactly when they raise the same coordinate
            k = rot._f_pos(p, j)
            k_pair = 1 + tail_crystal._f_pos(tail, j) if phi_t > eps_b else 1
            if k_pair != k:
                bad.append(f"lowering mismatch at color {j} under splitting {i}")
    return bad


def star_commutation_report(graph):
    """Star string lengths along edges: unchanged off-color, +0/+1 on-color."""
    bad = []
    for src, dst, color in graph.edges:
        p, q = graph.nodes[src], graph.nodes[dst]
        for i in range(graph.l):
            before, after = p.eps_star(i), q.eps_star(i)
            if i != color:
                if after != before:
                    bad.append(f"edge {src}->{dst} color {color} moved eps*_{i}")
            elif after not in (before, before + 1):
                bad.append(f"edge {src}->{dst} color {color} jumped eps*_{i}")
    return bad


# -- dominant-weight cuts -------------------------------------------------------


def blambda_member(fam, lam):
    """Membership through the star-string bound eps*_i <= lambda(h_i)."""
    return all(fam.eps_star(i) <= pairing(i, lam) for i in range(fam.l))


def blambda_f(fam, lam, i):
    child = fam.f(i)
    return child if blambda_member(child, lam) else None


def blambda_e(fam, lam, i):
    parent = fam.e(i)
    if parent is not None and not blambda_member(parent, lam):
        raise ConsistencyFailure("raising left the cut")
    return parent


def blambda_phi(fam, lam, i):
    """String length in the cut, by formula and by measurement (must agree)."""
    formula = fam.eps(i) + pairing(i, lam + fam.wt())
    cur, measured = fam, 0
    while True:
        nxt = blambda_f(cur, lam, i)
        if nxt is None:
            break
        cur = nxt
        measured += 1
        if measured > formula + 4:
            break
    if measured != formula:
        raise ConsistencyFailure(
            f"phi mismatch: formula {formula}, measured {measured}"
        )
    return formula


def blambda_eps(fam, lam, i):
    """Measured raising string length; equals the ambient string length."""
    cur, measured = fam, 0
    while True:
        nxt = blambda_e(cur, lam, i)
        if nxt is None:
            break
        cur = nxt
        measured += 1
    if measured != fam.eps(i):
        raise ConsistencyFailure("eps mismatch between cut and ambient")
    return measured


def weighted_string_sum(fam, lam):
    """Weighted sum of measured phi - eps, ends counted once, middles twice.

    Uses measured string lengths (each internally cross-checked against the
    formula), so the identity with the defining polynomial's degree is a
    genuine computation rather than a lattice triviality.
    """
    l = fam.l
    cd = cartan_matrix(l)
    total = 0
    for i in range(l):
        phi = blambda_phi(fam, lam, i)
        eps = blambda_eps(fam, lam, i)
        total += cd.c[i] * (phi - eps)
    return total


def generate_blambda(l, lam, depth):
    """Lowering-closure of the vacuum inside the cut."""
    if not blambda_member(PathFamily.vacuum(l), lam):
        raise ValueError("the vacuum must lie in the cut")
    return _closure(l, depth, lambda fam, i: blambda_f(fam, lam, i))


def blambda_by_cut(l, lam, depth):
    """The cut of the free graph: member nodes, edges between members."""
    free = generate_binfty(l, depth)
    g = CrystalGraph(l)
    keep = {}
    for nid, fam in enumerate(free.nodes):
        if blambda_member(fam, lam):
            keep[nid] = g.add_node(fam)
    for src, dst, color in free.edges:
        if src in keep and dst in keep:
            g.edges.append((keep[src], keep[dst], color))
    return g


def graphs_equal(g1, g2):
    """Same node keys and the same colored edges under key matching."""
    if {f.key() for f in g1.nodes} != {f.key() for f in g2.nodes}:
        return False
    def norm(g):
        return {
            (g.nodes[s].key(), g.nodes[d].key(), c) for s, d, c in g.edges
        }
    return norm(g1) == norm(g2)

