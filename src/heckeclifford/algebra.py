"""The affine Hecke-Clifford superalgebra as a rewriting system.

Elements are linear combinations of PBW monomials T_w X^alpha C^beta with w a
permutation (stored in one-line notation; the canonical reduced word is the
lexicographically smallest one), alpha a Laurent exponent vector and beta a
Clifford mask.  Products are computed by folding the right factor one
generator at a time into the left factor's normal form: an X or C merges into
X^alpha C^beta on the right, and T_i crosses it by the exchange identities of
the one table `_exchange`, so only those and the defining relations are ever
applied.  With the T's on the left, the decomposition over a parabolic is
read off the monomials: T_w = T_w0 T_u for w0 the minimal coset
representative of w.

Generators are written ("X", j, s) with s in {+1, -1}, ("C", j), ("T", i),
all 1-based as in the algebra's presentation.
"""

from __future__ import annotations

from functools import lru_cache

def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_length(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_inverse(w):
    inv = [0] * len(w)
    for p, v in enumerate(w):
        inv[v - 1] = p + 1
    return tuple(inv)


def perm_compose(u, v):
    """(u o v)(k) = u(v(k))."""
    return tuple(u[v[k] - 1] for k in range(len(u)))


def perm_right_mult_s(w, i):
    """w * s_i: swap the entries at positions i, i+1 (1-based)."""
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def t_indices(mu):
    """T indices available inside the parabolic of shape mu."""
    out = []
    s = 1
    for part in mu:
        out.extend(range(s, s + part - 1))
        s += part
    return out


@lru_cache(maxsize=None)
def reduced_word(w):
    """Lexicographically smallest reduced word, via greedy left descents."""
    word = []
    cur = w
    ident = perm_identity(len(w))
    inv = perm_inverse(cur)
    while cur != ident:
        for i in range(1, len(w)):
            if inv[i - 1] > inv[i]:  # i is a left descent
                word.append(i)
                # cur = s_i o cur ; in one-line: swap the values i, i+1
                cur = tuple(i + 1 if v == i else i if v == i + 1 else v for v in cur)
                inv = perm_inverse(cur)
                break
    return tuple(word)


def _exchange(i, gen):
    """gen * T_i for gen = X_j^(+-1) or C_j, as (coeff, word) terms.

    coeff is 1, "xi" or "-xi"; a word is a generator sequence applied left to
    right, starting with T_i where the identity does.
    """
    s = gen[2] if gen[0] == "X" else 1
    ci, cj, t = ("C", i), ("C", i + 1), ("T", i)
    xa, xb = ("X", i, s), ("X", i + 1, s)
    table = {
        # C_i T_i = T_i C_{i+1} + xi C_i - xi C_{i+1}
        ("C", 0, 1): [(1, (t, cj)), ("xi", (ci,)), ("-xi", (cj,))],
        # C_{i+1} T_i = T_i C_i
        ("C", 1, 1): [(1, (t, ci))],
        # X_i T_i = T_i X_{i+1} - xi X_{i+1} + xi C_i C_{i+1} X_{i+1}
        ("X", 0, 1): [(1, (t, xb)), ("-xi", (xb,)), ("xi", (ci, cj, xb))],
        # X_i^-1 T_i = T_i X_{i+1}^-1 + xi X_i^-1 - xi X_i^-1 C_i C_{i+1}
        ("X", 0, -1): [(1, (t, xb)), ("xi", (xa,)), ("-xi", (xa, ci, cj))],
        # X_{i+1} T_i = T_i X_i + xi X_{i+1} + xi C_i C_{i+1} X_i
        ("X", 1, 1): [(1, (t, xa)), ("xi", (xb,)), ("xi", (ci, cj, xa))],
        # X_{i+1}^-1 T_i = T_i X_i^-1 - xi X_i^-1 - xi X_{i+1}^-1 C_i C_{i+1}
        ("X", 1, -1): [(1, (t, xa)), ("-xi", (xa,)), ("-xi", (xb, ci, cj))],
    }
    # g T_i = T_i g for g off i and i+1
    return table.get((gen[0], gen[1] - i, s), [(1, (t, gen))])


def _add_terms(out, terms, scale=None):
    """Add scale * terms into the term dict out in place, dropping zeros."""
    for m, c in terms.items():
        if scale is not None:
            c = scale * c
        cur = out.get(m)
        if cur is not None:
            c = cur + c
        if c.is_zero():
            out.pop(m, None)
        else:
            out[m] = c
    return out


class NormalMonomial:
    """Immutable PBW monomial T_w X^alpha C^beta, built from (alpha, beta, w).

    The T's stand on the left, so the coset decomposition over a parabolic
    is read off each monomial (HeckeClifford.coset_decompose).
    """

    __slots__ = ("alpha", "beta", "w")

    def __init__(self, alpha, beta, w):
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self.w = tuple(w)

    @property
    def key(self):
        return (self.w, self.alpha, self.beta)

    def __eq__(self, other):
        return (
            isinstance(other, NormalMonomial)
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.w == other.w
        )

    def __hash__(self):
        return hash((self.w, self.alpha, self.beta))

    def reduced_word(self):
        return reduced_word(self.w)

    def split_last(self):
        """(m', g) with self = m' g for g the last X or C factor; None if none."""
        for j in range(len(self.beta), 0, -1):
            if self.beta[j - 1]:
                beta = list(self.beta)
                beta[j - 1] = 0
                return NormalMonomial(self.alpha, beta, self.w), ("C", j)
        for j in range(len(self.alpha), 0, -1):
            a = self.alpha[j - 1]
            if a:
                s = 1 if a > 0 else -1
                alpha = list(self.alpha)
                alpha[j - 1] -= s
                return NormalMonomial(alpha, self.beta, self.w), ("X", j, s)
        return None

    def generator_sequence(self):
        seq = [("T", i) for i in self.reduced_word()]
        for j, a in enumerate(self.alpha, start=1):
            s = 1 if a > 0 else -1
            seq.extend([("X", j, s)] * abs(a))
        for j, b in enumerate(self.beta, start=1):
            if b:
                seq.append(("C", j))
        return seq

    def __repr__(self):
        parts = [f"T{i}" for i in self.reduced_word()]
        for j, a in enumerate(self.alpha, start=1):
            if a:
                parts.append(f"X{j}" if a == 1 else f"X{j}^{a}")
        for j, b in enumerate(self.beta, start=1):
            if b:
                parts.append(f"C{j}")
        return "*".join(parts) if parts else "1"


class HElement:
    """Finite linear combination of normal monomials of a fixed rank."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def __add__(self, other):
        self._check(other)
        return HElement(self.algebra, _add_terms(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, int):
            c = self.algebra.field.from_int(c)
        return HElement(self.algebra, _add_terms({}, self.terms, c))

    def __eq__(self, other):
        if not isinstance(other, HElement):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("rank or field mismatch")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c!r})*{m!r}" for m, c in sorted(self.terms.items(), key=lambda t: t[0].key)]
        return " + ".join(bits)


class HeckeClifford:
    """Rewriting context for the rank-n algebra over Q(zeta_4l)."""

    _registry = {}

    def __new__(cls, field, n):
        key = (field, n)
        inst = cls._registry.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst.field = field
            inst.n = n
            inst._gen_cache = {}
            inst._coset_cache = {}
            cls._registry[key] = inst
        return inst

    # -- element constructors ------------------------------------------------

    def zero(self):
        return HElement(self, {})

    def one(self):
        return self.monomial_elem(self.identity_monomial())

    def identity_monomial(self):
        z = (0,) * self.n
        return NormalMonomial(z, z, perm_identity(self.n))

    def monomial_elem(self, m, coeff=None):
        if coeff is None:
            coeff = self.field.one
        return HElement(self, {m: coeff})

    def x(self, j, s=1):
        alpha = [0] * self.n
        alpha[j - 1] = s
        return self.monomial_elem(
            NormalMonomial(alpha, (0,) * self.n, perm_identity(self.n))
        )

    def c(self, j):
        beta = [0] * self.n
        beta[j - 1] = 1
        return self.monomial_elem(
            NormalMonomial((0,) * self.n, beta, perm_identity(self.n))
        )

    def t(self, i):
        if not 1 <= i <= self.n - 1:
            raise ValueError("T index out of range")
        return self.monomial_elem(
            NormalMonomial((0,) * self.n, (0,) * self.n, perm_right_mult_s(perm_identity(self.n), i))
        )

    def gen_elem(self, gen):
        if gen[0] == "X":
            return self.x(gen[1], gen[2])
        if gen[0] == "C":
            return self.c(gen[1])
        return self.t(gen[1])

    # -- multiplication ------------------------------------------------------

    def multiply(self, a, b):
        out = {}
        for m, c in b.terms.items():
            cur = a
            for gen in m.generator_sequence():
                cur = self.mul_gen(cur, gen)
            _add_terms(out, cur.terms, c)
        return HElement(self, out)

    def mul_gen(self, h, gen):
        out = {}
        for m, c in h.terms.items():
            _add_terms(out, self._mono_times_gen(m, gen), c)
        return HElement(self, out)

    def _mono_times_gen(self, m, gen):
        """Normal form of (monomial * generator) with FieldElem coefficients."""
        key = (m, gen)
        cached = self._gen_cache.get(key)
        if cached is None:
            cached = self._gen_cache[key] = self._rewrite(m, gen)
        return cached

    def _rewrite(self, m, gen):
        one, xi = self.field.one, self.field.xi
        kind, j = gen[0], gen[1]
        if kind == "C":  # merges into C^b, anticommuting past higher-index C's
            beta = list(m.beta)
            coeff = -one if sum(beta[j:]) & 1 else one
            beta[j - 1] ^= 1
            return {NormalMonomial(m.alpha, beta, m.w): coeff}
        if kind == "X":  # merges into X^a; C_j flips the exponent direction
            alpha = list(m.alpha)
            alpha[j - 1] += -gen[2] if m.beta[j - 1] else gen[2]
            return {NormalMonomial(alpha, m.beta, m.w): one}
        last = m.split_last()
        if last is None:  # m = T_w
            w2 = perm_right_mult_s(m.w, j)
            if m.w[j - 1] < m.w[j]:  # ascent: length grows
                return {NormalMonomial(m.alpha, m.beta, w2): one}
            # T_w T_j = xi T_w + T_{w s_j}
            return {m: xi, NormalMonomial(m.alpha, m.beta, w2): one}
        # m T_j = m' (g T_j) for the last X or C factor g of m
        base, g = last
        out = {}
        for coeff, word in _exchange(j, g):
            cur = HElement(self, {base: one})
            for h in word:
                cur = self.mul_gen(cur, h)
            scale = None if coeff == 1 else xi if coeff == "xi" else -xi
            _add_terms(out, cur.terms, scale)
        return out

    # -- automorphisms ---------------------------------------------------------

    def sigma(self, h):
        """X_j -> X_{n+1-j}, C_j -> C_{n+1-j}, T_i -> -T_{n-i} + xi."""
        n = self.n
        out = self.zero()
        for m, c in h.terms.items():
            cur = self.one()
            for gen in m.generator_sequence():
                if gen[0] == "X":
                    img = self.x(n + 1 - gen[1], gen[2])
                elif gen[0] == "C":
                    img = self.c(n + 1 - gen[1])
                else:
                    img = self.t(n - gen[1]).scale(-1) + self.one().scale(self.field.xi)
                cur = self.multiply(cur, img)
            out = out + cur.scale(c)
        return out

    def tau(self, h):
        """Antiautomorphism: X, C fixed, T_i -> T_i + xi C_i C_{i+1}."""
        out = self.zero()
        for m, c in h.terms.items():
            cur = self.one()
            for gen in reversed(m.generator_sequence()):
                if gen[0] == "X":
                    img = self.x(gen[1], gen[2])
                elif gen[0] == "C":
                    img = self.c(gen[1])
                else:
                    i = gen[1]
                    img = self.t(i) + self.multiply(
                        self.c(i), self.c(i + 1)
                    ).scale(self.field.xi)
                cur = self.multiply(cur, img)
            out = out + cur.scale(c)
        return out

    # -- parabolic / coset structure -------------------------------------------

    def block_of(self, mu, p):
        s = 1
        for b, part in enumerate(mu):
            if s <= p < s + part:
                return b
            s += part
        raise ValueError("position out of range")

    def in_parabolic(self, mu, w):
        return all(
            self.block_of(mu, p + 1) == self.block_of(mu, v)
            for p, v in enumerate(w)
        )

    def min_coset_rep(self, mu, w):
        """Minimal length representative of w S_mu and the remainder in S_mu."""
        n = self.n
        w0 = [0] * n
        s = 1
        for part in mu:
            vals = sorted(w[p - 1] for p in range(s, s + part))
            for k, v in enumerate(vals):
                w0[s - 1 + k] = v
            s += part
        w0 = tuple(w0)
        u = perm_compose(perm_inverse(w0), w)
        return w0, u

    def coset_representatives(self, mu):
        """All minimal-length left coset representatives, sorted by length."""
        import itertools

        reps = []
        for w in itertools.permutations(range(1, self.n + 1)):
            w0, u = self.min_coset_rep(mu, w)
            if w == w0:
                reps.append(w)
        reps.sort(key=lambda w: (perm_length(w), w))
        return reps

    def coset_decompose(self, h, mu):
        """Write h = sum_w T_w h_w with h_w in the parabolic of shape mu.

        Returns {w: HElement} keyed by the minimal-length representatives.
        A monomial T_v X^a C^b, with v = w u split by min_coset_rep, is
        T_w (T_u X^a C^b) because the lengths add, so h_w collects the
        T_u X^a C^b of the monomials whose v lies in w S_mu; the h_w are
        unique because the monomials are a basis.
        """
        blocks = {}
        for m, c in h.terms.items():
            w, u = self.min_coset_rep(mu, m.w)
            blocks.setdefault(w, {})[NormalMonomial(m.alpha, m.beta, u)] = c
        return {w: HElement(self, terms) for w, terms in blocks.items()}

    def coset_action(self, mu, gen, w):
        """coset_decompose(gen * T_w, mu), cached per (mu, gen, w)."""
        key = (mu, gen, w)
        cached = self._coset_cache.get(key)
        if cached is None:
            z = (0,) * self.n
            tw = self.monomial_elem(NormalMonomial(z, z, w))
            prod = self.multiply(self.gen_elem(gen), tw)
            cached = self._coset_cache[key] = self.coset_decompose(prod, mu)
        return cached
