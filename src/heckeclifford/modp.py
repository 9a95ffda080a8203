"""The prime, the reduction mod p and F_p arithmetic of the mod-p characters.

The fast path of supermodules.formal_character runs the exact engine's
eigenspace split over F_p instead of Q(zeta_4l), after the multimodular
method (W. Stein, Modular Forms: A Computational Approach, ch. 7).  p is the
largest prime below 2^31 with p = 1 mod 4l, so F_p holds a primitive 4l-th
root of unity omega, a root of the 4l-th cyclotomic polynomial mod p;
zeta -> omega is then a ring map from the elements of Q(zeta_4l) whose
denominator is prime to p onto F_p.

A residue is an int in [0, p), a vector a dict {index: nonzero residue}, a
matrix a column-major list of such dicts, as in linalg.  PrimeField gives
linalg's elimination and the split their F_p vector operations, and
ReducedTower the reduced tower data, on which Tower's own r-translate and
mat_vec loops run.  Nothing here proves anything over Q(zeta_4l):
formal_character turns the F_p dimensions into exact ones with one
annihilation certificate per operator (see _certified_word_dims).  A
reduction that cannot be made raises Decline.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import CycField, Tower, q_of

PRIME_BOUND = 1 << 31


class Decline(ArithmeticError):
    """The mod-p split cannot vouch for this module; use the exact engine."""


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751 (bases 2, 3, 5, 7)."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def prime_and_root(l):
    """(p, omega): the largest prime p < 2^31 with p = 1 mod 4l, omega of order 4l.

    omega = g^((p-1)/4l) for the least g >= 2 whose power has order exactly
    4l, that is omega^(4l/r) != 1 for each prime r dividing 4l.
    """
    m = 4 * l
    p = (PRIME_BOUND - 2) // m * m + 1
    while not is_prime(p):
        p -= m
    primes = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
    g = 2
    while True:
        omega = pow(g, (p - 1) // m, p)
        if all(pow(omega, m // r, p) != 1 for r in primes):
            return p, omega
        g += 1


class Residues:
    """Reduction mod p of Q(zeta_4l), zeta -> omega, and the residues of the q(i).

    for_l(l) keeps one instance per l.
    """

    def __init__(self, l, p, omega):
        self.p = p
        self.omega = omega
        self.powers = [pow(omega, j, p) for j in range(CycField.for_l(l).degree)]
        self.qs = [self.of(q_of(l, i).raw) for i in range(l)]

    @staticmethod
    @lru_cache(maxsize=None)
    def for_l(l):
        return Residues(l, *prime_and_root(l))

    def of(self, raw):
        """Residue of a raw field element; Decline when p divides its denominator."""
        nums, den = raw
        p = self.p
        if den % p == 0:
            raise Decline(f"denominator {den} divisible by p = {p}")
        s = 0
        for c, w in zip(nums, self.powers):
            if c:
                s += c * w
        if den != 1:
            s *= pow(den, -1, p)
        return s % p


class PrimeField:
    """F_p with the vector operations of linalg's field protocol, on int loops.

    Elements are ints in [0, p), vectors and matrices as in linalg; every
    vector operation reduces mod p and drops zeros, and pivots go to the
    smallest index.
    """

    zero_raw, one_raw = 0, 1

    def __init__(self, p):
        self.p = p

    def raw_inverse(self, a):
        return pow(a, -1, self.p)

    def pivot(self, v):
        return min(v)

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def scale(self, v, c):
        p = self.p
        return {i: x * c % p for i, x in v.items()} if c else {}

    def add_into(self, v, w):
        self.submul_into(v, w, -1)

    def submul_into(self, v, w, c):
        """v -= c*w in place."""
        p = self.p
        for i, x in w.items():
            y = (v.get(i, 0) - c * x) % p
            if y:
                v[i] = y
            else:
                v.pop(i, None)

    def mat_vec(self, cols, v):
        p = self.p
        out = {}
        for j, c in v.items():
            for i, a in cols[j].items():
                out[i] = out.get(i, 0) + a * c
        return {i: y for i, x in out.items() if (y := x % p)}

    def primitive(self, v):
        return v


class ReducedTower:
    """A scalars.Tower reduced mod p, for the eigenspace split over F_p.

    The split reads field, rank, translates and mat_vec off it as off a
    Tower, and qs, the residues of the q(i), which must be distinct, else it
    could not tell their eigenspaces apart.  The r-translates and mat_vec
    are Tower's own, run on PrimeField and the residues disc_raws of the
    per-mask discriminants.  The r-translate loop has no zero test, so a
    vanishing disc residue raises Decline.
    For towers of the d_i this cannot happen once the q(i) are distinct mod
    p: d_i = q(i)^2/4 - 1 = 0 means q(i) = +-2 = q(0) or q(l-1) mod p.
    matrix reduces the mask-0 columns of a tower-linear map.
    """

    def __init__(self, l, tower):
        self.residues = residues = Residues.for_l(l)
        if len(set(residues.qs)) != len(residues.qs):
            raise Decline("the q(i) collide mod p")
        self.qs = residues.qs
        self.field = PrimeField(residues.p)
        self.rank = tower.rank
        self.disc_raws = [residues.of(d) for d in tower.disc_raws]
        if 0 in self.disc_raws:
            raise Decline("a discriminant vanishes mod p")

    r_translate = Tower.r_translate
    translates = Tower.translates
    mat_vec = Tower.mat_vec

    def matrix(self, cols):
        """Residues of mask-0 columns; Decline when p divides a denominator."""
        of = self.residues.of
        return [{i: r for i, x in col.items() if (r := of(x))} for col in cols]
