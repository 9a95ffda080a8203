"""Word-level shadow of the induction/restriction ring.

Formal characters are integer combinations of words over the index set
{0, .., l-1}; induction acts by the shuffle product and restriction by
deconcatenation.  The verified Serre-type operator identities act through
letter-dropping operators on a library of known irreducible characters.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .cartan import cartan_matrix


class IntegralityViolation(ArithmeticError):
    """A divided power produced a non-integer coefficient."""


class WordSum:
    """Finite integer combination of words (tuples over the index set)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    @staticmethod
    def word(w, coeff=1):
        return WordSum({tuple(w): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return WordSum(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return WordSum(out)

    def __rmul__(self, k):
        if isinstance(k, int):
            return WordSum({w: k * c for w, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, WordSum):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def coefficient_sum(self):
        return sum(self.terms.values())

    def reversed_words(self):
        return WordSum({tuple(reversed(w)): c for w, c in self.terms.items()})

    def to_json(self):
        return [
            {"word": list(w), "coeff": c}
            for w, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(items):
        out = {}
        for it in items:
            w = tuple(it["word"])
            out[w] = out.get(w, 0) + it["coeff"]
        return WordSum(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            word = ",".join(map(str, w)) if w else "()"
            bits.append(f"{c}[{word}]")
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _shuffle_words(u, v):
    """Multiset of shuffles of two words, as a word->multiplicity dict."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in _shuffle_words(u[1:], v).items():
        k = (u[0],) + w
        out[k] = out.get(k, 0) + c
    for w, c in _shuffle_words(u, v[1:]).items():
        k = (v[0],) + w
        out[k] = out.get(k, 0) + c
    return out


def shuffle(u, v):
    """Bilinear extension of the word shuffle product."""
    out = {}
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            for w, m in _shuffle_words(wu, wv).items():
                out[w] = out.get(w, 0) + cu * cv * m
    return WordSum(out)


def e_drop(u, i):
    """Delete one trailing letter i; words not ending in i are killed."""
    out = {}
    for w, c in u.terms.items():
        if w and w[-1] == i:
            k = w[:-1]
            out[k] = out.get(k, 0) + c
    return WordSum(out)


def e_star_drop(u, i):
    """Delete one leading letter i."""
    out = {}
    for w, c in u.terms.items():
        if w and w[0] == i:
            k = w[1:]
            out[k] = out.get(k, 0) + c
    return WordSum(out)


def divided(u, i, r):
    """e_drop iterated r times, divided by r!."""
    cur = u
    for _ in range(r):
        cur = e_drop(cur, i)
    f = factorial(r)
    out = {}
    for w, c in cur.terms.items():
        if c % f:
            raise IntegralityViolation(
                f"coefficient {c} not divisible by {r}! on {w}"
            )
        out[w] = c // f
    return WordSum(out)


def ch_standard(l, i, j, a, b):
    """Character of the irreducible labelled by the word i^a j i^b.

    For a + b up to -<h_i, alpha_j> this is a!b! times the single word; at
    a + b one above that bound the two-term boundary formula applies.
    """
    if abs(i - j) != 1:
        raise ValueError("indices must be adjacent")
    k = -cartan_matrix(l).entry(i, j)
    if a < 0 or b < 0 or a + b > k + 1:
        raise ValueError(f"(a, b) = ({a}, {b}) out of range for -a_ij = {k}")
    if a + b <= k:
        w = (i,) * a + (j,) + (i,) * b
        return WordSum.word(w, factorial(a) * factorial(b))
    # boundary a + b = k + 1: two-term character
    if b >= 1:
        a2, b2 = a, b - 1
    else:
        a2, b2 = a - 1, 0
    w1 = (i,) * a2 + (j,) + (i,) * (b2 + 1)
    w2 = (i,) * (a2 + 1) + (j,) + (i,) * b2
    return WordSum.word(w1, factorial(a2) * factorial(b2 + 1)) + WordSum.word(
        w2, factorial(a2 + 1) * factorial(b2)
    )


def ses_check(l, i, j, a, b):
    """Shuffling one more letter i matches the two adjacent characters."""
    k = -cartan_matrix(l).entry(i, j)
    if a + b >= k:
        raise ValueError("a + b must be below -a_ij")
    lhs = shuffle(ch_standard(l, i, j, a, b), WordSum.word((i,)))
    rhs = ch_standard(l, i, j, a + 1, b) + ch_standard(l, i, j, a, b + 1)
    return lhs == rhs


def block_library(l, i, j):
    """Known irreducible characters in the blocks (i j), (i i j), (i i i j).

    The (i..i j)-content lists come from the boundary characters; entries for
    mirrored orderings are obtained by word reversal (the order-reversing
    algebra automorphism reverses characters).
    """
    k = -cartan_matrix(l).entry(i, j)
    lib = {"ij": [], "iij": [], "iiij": []}
    lib["ij"] = [ch_standard(l, i, j, 1, 0), ch_standard(l, i, j, 0, 1)]
    if k == 1:
        # two irreducibles of content i^2 j; the (1,1) and (0,2) labels agree
        # with (2,0) and its reversal
        lib["iij"] = [ch_standard(l, i, j, 2, 0), ch_standard(l, i, j, 0, 2)]
    else:
        lib["iij"] = [
            ch_standard(l, i, j, 2, 0),
            ch_standard(l, i, j, 1, 1),
            ch_standard(l, i, j, 0, 2),
        ]
        lib["iiij"] = [
            ch_standard(l, i, j, 3, 0),
            ch_standard(l, i, j, 2, 1),
            ch_standard(l, i, j, 1, 2),
            ch_standard(l, i, j, 0, 3),
        ]
    return lib


def character_library(l):
    """All boundary/regular characters for every adjacent ordered pair."""
    out = []
    for i in range(l):
        for j in (i - 1, i + 1):
            if not 0 <= j <= l - 1:
                continue
            k = -cartan_matrix(l).entry(i, j)
            for a in range(k + 2):
                for b in range(k + 2 - a):
                    out.append(((i, j, a, b), ch_standard(l, i, j, a, b)))
    return out


def _apply_ops(u, ops):
    for i in ops:
        u = e_drop(u, i)
    return u


def serre_verify(l, rng=None):
    """Check the Serre-type operator identities on the character library.

    For each ordered adjacent pair the applicable identity (quadratic for a
    middle first index, cubic for an end first index) must kill every known
    irreducible character of the matching block; distant pairs must commute
    on arbitrary words.  Returns a JSON-able report with a global "ok".
    """
    import random

    rng = rng or random.Random(2024)
    cd = cartan_matrix(l)
    checks = []
    ok = True
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            if abs(i - j) > 1:
                # distant pairs: deletions commute on induced characters
                # (shuffles of singletons); on bare words the claim is false
                for _ in range(100 // max(1, l * (l - 1) - 2 * (l - 1))):
                    n = rng.randint(2, 5)
                    letters = [rng.randrange(l) for _ in range(n)]
                    u = WordSum.word(())
                    for k in letters:
                        u = shuffle(u, WordSum.word((k,)))
                    good = _apply_ops(u, (j, i)) == _apply_ops(u, (i, j))
                    ok &= good
                    if not good:
                        checks.append(
                            {
                                "check": "commute",
                                "i": i,
                                "j": j,
                                "word": letters,
                                "status": "fail",
                            }
                        )
                continue
            lib = block_library(l, i, j)
            span = lib["ij"] + lib["iij"] + lib["iiij"]
            if cd.entry(i, j) == -1:
                # e_i^2 e_j + e_j e_i^2 = 2 e_i e_j e_i
                name = "serre-quadratic"

                def identity(ch):
                    return (
                        _apply_ops(ch, (j, i, i))
                        + _apply_ops(ch, (i, i, j))
                        - 2 * _apply_ops(ch, (i, j, i))
                    )

            else:
                # e_i^3 e_j + 3 e_i e_j e_i^2 = 3 e_i^2 e_j e_i + e_j e_i^3
                name = "serre-cubic"

                def identity(ch):
                    return (
                        _apply_ops(ch, (j, i, i, i))
                        + 3 * _apply_ops(ch, (i, i, j, i))
                        - 3 * _apply_ops(ch, (i, j, i, i))
                        - _apply_ops(ch, (i, i, i, j))
                    )

            for ch in span:
                good = identity(ch).is_zero()
                ok &= good
                checks.append(
                    {
                        "check": name,
                        "i": i,
                        "j": j,
                        "character": ch.to_json(),
                        "status": "pass" if good else "fail",
                    }
                )
    return {"l": l, "ok": ok, "checks": checks}


def divided_power_integrality(l, library):
    """Trailing divided powers are integral across library, the (label,
    character) pairs of character_library(l)."""
    failures = []
    for label, ch in library:
        for letter in range(l):
            for r in (2, 3):
                try:
                    divided(ch, letter, r)
                except IntegralityViolation as e:
                    failures.append({"label": label, "letter": letter, "r": r, "err": str(e)})
    return failures
