"""Joint generalized eigenspace dimensions over a prime field F_p.

The fast path of supermodules.formal_character splits a module into the
joint generalized eigenspaces of the operators A_k = X_k + X_k^-1 in F_p
integer arithmetic, after the multimodular method (W. Stein, Modular Forms:
A Computational Approach, ch. 7).  p is the largest prime below 2^31 with
p = 1 mod 4l, so F_p holds a primitive 4l-th root of unity omega, a root of
the 4l-th cyclotomic polynomial mod p; zeta -> omega is then a ring map from
the elements of Q(zeta_4l) whose denominator is prime to p onto F_p.

A residue is an int in [0, p), a vector a dict {index: nonzero residue}, a
matrix a column-major list of such dicts, as in linalg.  Nothing here proves
anything over Q(zeta_4l): formal_character turns these dimensions into exact
ones with one annihilation certificate per operator (see its docstring).
Every way the reduction or the split can fail raises Decline.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import CycField, q_of

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

    The q(i) must have distinct residues, else the split could not tell
    their eigenspaces apart; for_l(l) keeps one instance per l.
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

    def matrix(self, cols):
        out = []
        for col in cols:
            red = {}
            for i, x in col.items():
                r = self.of(x)
                if r:
                    red[i] = r
            out.append(red)
        return out


def _mod(v, p):
    out = {}
    for i, x in v.items():
        x %= p
        if x:
            out[i] = x
    return out


def _mat_vec(cols, v, p):
    out = {}
    for j, c in v.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * c
    return _mod(out, p)


def _apply(cols, qs, mults, v, p):
    """prod_i (A - qs[i])^mults[i] v."""
    for q, e in zip(qs, mults):
        for _ in range(e):
            if not v:
                return v
            w = {}
            for j, c in v.items():
                for i, a in cols[j].items():
                    w[i] = w.get(i, 0) + a * c
                w[j] = w.get(j, 0) - q * c
            v = _mod(w, p)
    return v


def _eliminate(pivots, v, p, combo=None):
    """Reduce v (consumed) against the pivot rows, and combo alongside it.

    pivots maps a pivot index to (row, cmb): the row scaled to 1 there and
    stored without that entry, cmb its combination of the inserted vectors.
    Each row is zero at the earlier pivots, so one pass in order clears
    them all.  Returns the reduced residual, empty when v was dependent.
    """
    for piv, (row, cmb) in pivots.items():
        if not v:
            break
        c = v.pop(piv, 0) % p
        if c:
            for i, x in row.items():
                v[i] = v.get(i, 0) - c * x
            if combo is not None:
                for t, x in cmb.items():
                    combo[t] = combo.get(t, 0) - c * x
    return _mod(v, p)


def _add_pivot(pivots, v, p, combo=None):
    """Store the nonzero reduced residual v (consumed) as a pivot row."""
    piv = min(v)
    inv = pow(v.pop(piv), -1, p)
    cmb = None if combo is None else {t: x * inv % p for t, x in combo.items() if x % p}
    pivots[piv] = ({i: x * inv % p for i, x in v.items()}, cmb)


def _min_poly_of(cols, v, p):
    """Monic minimal polynomial of v under A mod p, low degree first (Krylov)."""
    pivots = {}
    degree = 0
    while True:
        combo = {degree: 1}
        r = _eliminate(pivots, dict(v), p, combo)
        if not r:
            return [combo.get(j, 0) % p for j in range(degree + 1)]
        _add_pivot(pivots, r, p, combo)
        v = _mat_vec(cols, v, p)
        degree += 1


def _root_mults(poly, qs, p):
    """Multiplicity of each qs[i] in poly; Decline when a root is no q(i)."""
    mults = [0] * len(qs)
    for i, q in enumerate(qs):
        while len(poly) > 1:
            acc = poly[-1]
            quot = [acc]
            for a in reversed(poly[:-1]):
                acc = (a + q * acc) % p
                quot.append(acc)
            if quot.pop():
                break
            quot.reverse()
            poly = quot
            mults[i] += 1
    if len(poly) > 1:
        raise Decline("a root of the minimal polynomial mod p is no q(i)")
    return mults


def _level_mults(cols, gens, qs, p):
    """Multiplicities of the qs in the minimal polynomial of A on the T-span of gens.

    Probes the sum of the gens, then the residual of every gen that the
    product so far does not kill, as supermodules._min_poly does over K.
    """
    mults = [0] * len(qs)
    total = {}
    for g in gens:
        for i, x in g.items():
            total[i] = total.get(i, 0) + x
    for b in [_mod(total, p)] + gens:
        r = _apply(cols, qs, mults, b, p)
        if r:
            for i, e in enumerate(_root_mults(_min_poly_of(cols, r, p), qs, p)):
                mults[i] += e
    return mults


def _translates(v, discs, p):
    """The r-translates v r^mask mod p, mask = 1 .. rank - 1.

    As supermodules._r_translate: discs[m] is the residue of the
    discriminant product of the mask m, rank = len(discs), and the entry at
    t * rank + a moves to t * rank + (a ^ mask), times discs[a & mask] when
    that mask is not 0.
    """
    low = len(discs) - 1
    out = []
    for mask in range(1, len(discs)):
        w = {}
        for k, x in v.items():
            common = k & low & mask
            if common:
                x = x * discs[common] % p
                if not x:
                    continue
            w[k ^ mask] = x
        out.append(w)
    return out


def _image(cols, qs, mults, gens, discs, p):
    """T-generators and F_p-dimension of f(A) on the T-span of gens, f as in _apply."""
    pivots = {}
    out = []
    for g in gens:
        w = _apply(cols, qs, mults, g, p)
        r = _eliminate(pivots, dict(w), p)
        if r:
            _add_pivot(pivots, r, p)
            out.append(w)
            for tw in _translates(w, discs, p):
                r = _eliminate(pivots, tw, p)
                if r:
                    _add_pivot(pivots, r, p)
    return out, len(pivots)


def word_dims(residues, ops, dim, parity, tower):
    """F_p word dimensions and exponents of the joint generalized eigenspaces.

    ops maps k = 1..n to the reduced K-matrix of A_k.  Splits level by level
    as supermodules._split_level does, from the mask-0 unit vectors of each
    parity down through A_n, .., A_1.  Returns (dims, exps): dims[word] is
    the F_p-dimension of the joint generalized eigenspace at the residues of
    (q(w_1), .., q(w_n)), and exps[k][i] is the largest multiplicity of q(i)
    in the minimal polynomial of A_k mod p on a level-k part, so that
    (A_k - q(i))^exps[k][i] kills A_k's generalized eigenspace at q(i) mod p.
    Raises Decline when the q(i) collide mod p, when a root is no q(i), or
    when the dimensions do not add up to dim * rank.
    """
    p, qs, rank = residues.p, residues.qs, tower.rank
    if len(set(qs)) != len(qs):
        raise Decline("the q(i) collide mod p")
    discs = [1] + [residues.of(tower.disc_of_mask(m).raw) for m in range(1, rank)]
    exps = {k: [0] * len(qs) for k in ops}
    dims = {}
    stack = []
    for par in (1, 0):
        gens = [{t * rank: 1} for t in range(dim) if parity[t] == par]
        if gens:
            stack.append((len(ops), gens, len(gens) * rank, ()))
    while stack:
        k, gens, kdim, word = stack.pop()
        if k == 0:
            dims[word] = dims.get(word, 0) + kdim
            continue
        cols = ops[k]
        mults = _level_mults(cols, gens, qs, p)
        exps[k] = [max(a, b) for a, b in zip(exps[k], mults)]
        present = [i for i, e in enumerate(mults) if e]
        if len(present) == 1:
            parts = [(present[0], gens, kdim)]
        else:
            parts = []
            for i in present:
                others = list(mults)
                others[i] = 0
                parts.append((i, *_image(cols, qs, others, gens, discs, p)))
        stack.extend((k - 1, g, d, (i,) + word) for i, g, d in reversed(parts))
    if sum(dims.values()) != dim * rank:
        raise Decline("the mod-p eigenspaces do not add up to the module")
    return dims, exps
