"""Generic crystal framework: elementary crystals, the tensor rule, and an
axiom verifier.

A crystal object exposes colors(), wt(b), eps(b, i), phi(b, i), e(b, i) and
f(b, i); the zero element is None throughout, and minus infinity is the float
sentinel NEG_INF (never an integer), with saturating arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import Weight, pairing

NEG_INF = float("-inf")


@dataclass(frozen=True)
class BiElem:
    i: int
    n: int


@dataclass(frozen=True)
class TLambdaElem:
    lam: Weight


class BiCrystal:
    """The elementary rank-one crystal with elements b_i(n), n in Z."""

    def __init__(self, l, i):
        self.l = l
        self.i = i

    def colors(self):
        return range(self.l)

    def elem(self, n):
        return BiElem(self.i, n)

    def wt(self, b):
        alpha = [0] * self.l
        alpha[self.i] = b.n
        return Weight(self.l, (0,) * self.l, tuple(alpha))

    def eps(self, b, j):
        return -b.n if j == self.i else NEG_INF

    def phi(self, b, j):
        return b.n if j == self.i else NEG_INF

    def e(self, b, j):
        if b is None or j != self.i:
            return None
        return BiElem(self.i, b.n + 1)

    def f(self, b, j):
        if b is None or j != self.i:
            return None
        return BiElem(self.i, b.n - 1)


class TLambdaCrystal:
    """The one-element crystal of weight lambda with minus-infinite strings."""

    def __init__(self, lam):
        self.lam = lam
        self.l = lam.l

    def colors(self):
        return range(self.l)

    def elem(self):
        return TLambdaElem(self.lam)

    def wt(self, b):
        return b.lam

    def eps(self, b, j):
        return NEG_INF

    def phi(self, b, j):
        return NEG_INF

    def e(self, b, j):
        return None

    def f(self, b, j):
        return None


class TensorCrystal:
    """Tensor product with the max/case rule; elements are (left, right)."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.l = left.l
        # the last (b, left weight, right weight): eps and phi of one element
        # over all colors share its factor weights; one slot never grows
        self._last = (None, None, None)

    def colors(self):
        return range(self.l)

    def _weights(self, b):
        last = self._last
        if last[0] == b:
            return last[1], last[2]
        wts = self.left.wt(b[0]), self.right.wt(b[1])
        self._last = (b,) + wts
        return wts

    def wt(self, b):
        left, right = self._weights(b)
        return left + right

    def eps(self, b, i):
        wt_i = pairing(i, self._weights(b)[0])
        return max(self.left.eps(b[0], i), self.right.eps(b[1], i) - wt_i)

    def phi(self, b, i):
        wt_i = pairing(i, self._weights(b)[1])
        return max(self.left.phi(b[0], i) + wt_i, self.right.phi(b[1], i))

    def e(self, b, i):
        if b is None:
            return None
        if self.left.phi(b[0], i) >= self.right.eps(b[1], i):
            a = self.left.e(b[0], i)
            return None if a is None else (a, b[1])
        c = self.right.e(b[1], i)
        return None if c is None else (b[0], c)

    def f(self, b, i):
        if b is None:
            return None
        if self.left.phi(b[0], i) > self.right.eps(b[1], i):
            a = self.left.f(b[0], i)
            return None if a is None else (a, b[1])
        c = self.right.f(b[1], i)
        return None if c is None else (b[0], c)


def verify_axioms(crystal, elements, boundary=()):
    """Pointwise crystal-axiom report over a finite element set.

    Images under e and f must stay in the sampled set unless the source is
    marked as boundary; violations are returned as strings, empty means pass.
    """
    elements = list(elements)
    index = set(elements)
    boundary = set(boundary)
    bad = []
    for b in elements:
        for i in crystal.colors():
            eps = crystal.eps(b, i)
            phi = crystal.phi(b, i)
            # (2) phi = eps + <h_i, wt>
            if eps == NEG_INF or phi == NEG_INF:
                if not (eps == NEG_INF and phi == NEG_INF):
                    bad.append(f"axiom 2 (mixed -inf) at {b}, color {i}")
            elif phi != eps + pairing(i, crystal.wt(b)):
                bad.append(f"axiom 2 at {b}, color {i}")
            # (6) phi = -inf kills both operators
            if phi == NEG_INF:
                if crystal.e(b, i) is not None or crystal.f(b, i) is not None:
                    bad.append(f"axiom 6 at {b}, color {i}")
            eb = crystal.e(b, i)
            if eb is not None:
                if eb in index:
                    if crystal.eps(eb, i) != eps - 1:
                        bad.append(f"axiom 3 (eps) at {b}, color {i}")
                    if crystal.phi(eb, i) != phi + 1:
                        bad.append(f"axiom 3 (phi) at {b}, color {i}")
                    wdiff = crystal.wt(eb) - crystal.wt(b)
                    if wdiff != Weight.root(crystal.l, i):
                        bad.append(f"axiom 3 (wt) at {b}, color {i}")
                    # (5) duality
                    if crystal.f(eb, i) != b:
                        bad.append(f"axiom 5 (fe) at {b}, color {i}")
                elif b not in boundary:
                    bad.append(f"closure under e at {b}, color {i}")
            fb = crystal.f(b, i)
            if fb is not None:
                if fb in index:
                    if crystal.eps(fb, i) != eps + 1:
                        bad.append(f"axiom 4 (eps) at {b}, color {i}")
                    if crystal.phi(fb, i) != phi - 1:
                        bad.append(f"axiom 4 (phi) at {b}, color {i}")
                    wdiff = crystal.wt(b) - crystal.wt(fb)
                    if wdiff != Weight.root(crystal.l, i):
                        bad.append(f"axiom 4 (wt) at {b}, color {i}")
                    if crystal.e(fb, i) != b:
                        bad.append(f"axiom 5 (ef) at {b}, color {i}")
                elif b not in boundary:
                    bad.append(f"closure under f at {b}, color {i}")
    return bad
