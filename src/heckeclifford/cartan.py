"""Affine Cartan data indexed by {0, .., l-1}, weights, and the defining
polynomial of the finite-dimensional quotient.

The Cartan matrix is the twisted affine one whose two end nodes carry the -2
entries toward the chain (for l = 2 both off-diagonal entries are -2, the
rank-1 untwisted case).  Weights live in the free lattice on the fundamental
weights and the simple roots; only pairings against coroots are ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .scalars import CycField, q_of


class CartanData:
    def __init__(self, l):
        if l < 2:
            raise ValueError("need l >= 2")
        self.l = l
        a = [[0] * l for _ in range(l)]
        for i in range(l):
            a[i][i] = 2
        for i in range(l):
            for j in range(l):
                if abs(i - j) == 1:
                    a[i][j] = -2 if i in (0, l - 1) else -1
        self.a = tuple(tuple(row) for row in a)
        self.c = tuple(1 if i in (0, l - 1) else 2 for i in range(l))

    def entry(self, i, j):
        return self.a[i][j]

    def __repr__(self):
        return f"CartanData(l={self.l})"


@lru_cache(maxsize=None)
def cartan_matrix(l):
    return CartanData(l)


@dataclass(frozen=True)
class Weight:
    """Integer vector in the free lattice on {Lambda_i} union {alpha_i}."""

    l: int
    lam: tuple
    alpha: tuple

    @staticmethod
    def zero(l):
        return Weight(l, (0,) * l, (0,) * l)

    @staticmethod
    def fundamental(l, i):
        lam = [0] * l
        lam[i] = 1
        return Weight(l, tuple(lam), (0,) * l)

    @staticmethod
    def root(l, i):
        alpha = [0] * l
        alpha[i] = 1
        return Weight(l, (0,) * l, tuple(alpha))

    def __add__(self, other):
        if self.l != other.l:
            raise ValueError("mixed ranks")
        return Weight(
            self.l,
            tuple(x + y for x, y in zip(self.lam, other.lam)),
            tuple(x + y for x, y in zip(self.alpha, other.alpha)),
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        return Weight(
            self.l,
            tuple(k * x for x in self.lam),
            tuple(k * x for x in self.alpha),
        )

    def is_zero(self):
        return not any(self.lam) and not any(self.alpha)


def pairing(i, w):
    """<h_i, w> for a Weight w."""
    cd = cartan_matrix(w.l)
    return w.lam[i] + sum(map(mul, cd.a[i], w.alpha))


def weight_of_c(w):
    """<c, w> against the canonical central element c."""
    cd = cartan_matrix(w.l)
    return sum(ci * pairing(i, w) for i, ci in enumerate(cd.c))


def parse_weight(l, text):
    """Parse "k0,k1,..,k_{l-1}" as the dominant weight sum k_i * Lambda_i."""
    try:
        lam = tuple(int(p) for p in text.split(","))
    except ValueError:
        lam = ()
    if len(lam) != l:
        raise ValueError(f"expected {l} comma-separated integers, got {text!r}")
    if any(k < 0 for k in lam):
        raise ValueError(f"a dominant weight has no negative entry, got {text!r}")
    return Weight(l, lam, (0,) * l)


def f_lambda(lam_weight):
    """Coefficients of (X-1)^a0 (X+1)^a_{l-1} prod (X^2 - q(i)X + 1)^a_i.

    Input is a dominant weight with no alpha part; output is the list of
    FieldElem coefficients, low degree first, of the monic polynomial whose
    degree is the pairing of the weight against the canonical central element.
    """
    l = lam_weight.l
    if any(lam_weight.alpha):
        raise ValueError("weight must be a combination of fundamental weights")
    if any(k < 0 for k in lam_weight.lam):
        raise ValueError("weight must be dominant")
    f = CycField.for_l(l)
    poly = [f.one]

    def mul(p, q):
        out = [f.zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return out

    for _ in range(lam_weight.lam[0]):
        poly = mul(poly, [-f.one, f.one])
    for _ in range(lam_weight.lam[l - 1]):
        poly = mul(poly, [f.one, f.one])
    for i in range(1, l - 1):
        factor = [f.one, -q_of(l, i), f.one]
        for _ in range(lam_weight.lam[i]):
            poly = mul(poly, factor)
    return poly
