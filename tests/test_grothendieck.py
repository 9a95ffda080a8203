"""Shuffle calculus, drop operators, character formulas, Serre identities."""

import itertools
import random

import pytest

from heckeclifford import grothendieck
from heckeclifford.grothendieck import (
    IntegralityViolation,
    WordSum,
    block_library,
    ch_standard,
    character_library,
    divided,
    divided_power_integrality,
    e_drop,
    e_star_drop,
    serre_verify,
    ses_check,
    shuffle,
)


def _brute_shuffles(u, v):
    """Oracle: enumerate shuffles by choosing positions for u inside u+v."""
    m, n = len(u), len(v)
    out = {}
    for pos in itertools.combinations(range(m + n), m):
        w = [None] * (m + n)
        for k, p in enumerate(pos):
            w[p] = u[k]
        rest = iter(v)
        for k in range(m + n):
            if w[k] is None:
                w[k] = next(rest)
        w = tuple(w)
        out[w] = out.get(w, 0) + 1
    return out


def test_shuffle_examples():
    # [i][j] = [i,j] + [j,i]
    assert shuffle(WordSum.word((0,)), WordSum.word((1,))) == WordSum(
        {(0, 1): 1, (1, 0): 1}
    )
    # [i,j][i] = 2[i,i,j] + [i,j,i]
    assert shuffle(WordSum.word((0, 1)), WordSum.word((0,))) == WordSum(
        {(0, 0, 1): 2, (0, 1, 0): 1}
    )
    # unit
    u = WordSum({(0, 1): 3, (2,): -1})
    assert shuffle(u, WordSum.word(())) == u


def test_shuffle_matches_brute_force_oracle():
    rng = random.Random(1)
    for _ in range(30):
        u = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        got = shuffle(WordSum.word(u), WordSum.word(v))
        assert got.terms == _brute_shuffles(u, v)


def test_shuffle_commutative_associative_random():
    rng = random.Random(2)
    for _ in range(300):
        words = []
        for _ in range(3):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            words.append(WordSum.word(w, rng.randint(-2, 3) or 1))
        a, b, c = words
        assert shuffle(a, b) == shuffle(b, a)
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_deconcatenation_coassociativity():
    # splitting off a trailing letter then a leading one commutes with the
    # opposite order
    rng = random.Random(3)
    for _ in range(60):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(2, 5)))
        u = WordSum.word(w, rng.randint(1, 4))
        for i in range(3):
            for j in range(3):
                assert e_drop(e_star_drop(u, j), i) == e_star_drop(e_drop(u, i), j)


def test_drop_examples():
    assert e_drop(WordSum.word((0, 1)), 1) == WordSum.word((0,))
    assert e_drop(WordSum.word((0, 1)), 0).is_zero()
    assert e_star_drop(WordSum.word((0, 1)), 0) == WordSum.word((1,))


def test_divided_spec_example():
    ch = WordSum({(1, 0, 0, 0): 6, (0, 1, 0, 0): 2})
    got = divided(ch, 0, 2)
    assert got == WordSum({(1, 0): 3, (0, 1): 1})


def test_divided_integrality_violation():
    with pytest.raises(IntegralityViolation):
        divided(WordSum.word((0, 0), 3), 0, 2)


def test_ch_standard_basic():
    # single letters and simple words
    assert ch_standard(4, 1, 2, 0, 0) == WordSum.word((2,))
    assert ch_standard(4, 1, 2, 1, 0) == WordSum.word((1, 2))
    # middle pair boundary (k = 1): two-term characters
    assert ch_standard(4, 1, 2, 2, 0) == WordSum({(1, 2, 1): 1, (1, 1, 2): 2})
    assert ch_standard(4, 1, 2, 0, 2) == WordSum({(2, 1, 1): 2, (1, 2, 1): 1})
    # end pair (k = 2): interior values
    assert ch_standard(4, 0, 1, 2, 0) == WordSum.word((0, 0, 1), 2)
    assert ch_standard(4, 0, 1, 1, 1) == WordSum.word((0, 1, 0))


def test_ch_standard_four_letter_lists():
    # boundary content i^3 j for an end pair: the four-item lists
    ch1 = ch_standard(3, 0, 1, 3, 0)
    assert ch1 == WordSum({(0, 0, 0, 1): 6, (0, 0, 1, 0): 2})
    assert ch_standard(3, 0, 1, 2, 1) == ch1
    assert ch_standard(3, 0, 1, 1, 2) == WordSum(
        {(0, 1, 0, 0): 2, (0, 0, 1, 0): 2}
    )
    assert ch_standard(3, 0, 1, 0, 3) == WordSum(
        {(1, 0, 0, 0): 6, (0, 1, 0, 0): 2}
    )


def test_ch_standard_range_errors():
    with pytest.raises(ValueError):
        ch_standard(4, 1, 3, 1, 0)
    with pytest.raises(ValueError):
        ch_standard(4, 1, 2, 2, 1)  # beyond boundary for a middle pair


def test_ses_check_all_legal():
    for l in range(2, 6):
        for i in range(l):
            for j in (i - 1, i + 1):
                if not 0 <= j < l:
                    continue
                from heckeclifford.cartan import cartan_matrix

                k = -cartan_matrix(l).entry(i, j)
                for a in range(k):
                    for b in range(k - a):
                        assert ses_check(l, i, j, a, b), (l, i, j, a, b)


def test_ses_example_counts():
    # shuffling a singleton multiplies length-n coefficient sums by n+1
    u = ch_standard(4, 0, 1, 1, 1)
    s = shuffle(u, WordSum.word((0,)))
    assert s.coefficient_sum() == 4 * u.coefficient_sum()


def test_serre_verify_all_l():
    for l in (2, 3, 4, 5):
        rep = serre_verify(l)
        assert rep["ok"], rep


def test_serre_negative_control():
    # the quadratic identity must NOT kill a generic word sum
    from heckeclifford.grothendieck import _apply_ops

    u = WordSum.word((1, 1, 2), 1)  # pretend character with wrong multiplicity
    val = (
        _apply_ops(u, (2, 1, 1))
        + _apply_ops(u, (1, 1, 2))
        - 2 * _apply_ops(u, (1, 2, 1))
    )
    assert not val.is_zero()


def test_divided_power_integrality_library():
    for l in (2, 3, 4, 5):
        assert divided_power_integrality(l, character_library(l)) == []


def test_divided_power_integrality_reports_a_non_integral_entry(non_integral_library):
    failures = divided_power_integrality(3, grothendieck.character_library(3))
    assert len(failures) == 1
    err = failures[0].pop("err")
    assert failures == [non_integral_library]
    assert "2!" in err


def test_block_library_mirrors():
    lib = block_library(5, 1, 2)
    assert len(lib["iij"]) == 2  # middle pair
    lib_end = block_library(5, 0, 1)
    assert len(lib_end["iiij"]) == 4


def test_wordsum_json_roundtrip():
    u = WordSum({(0, 1): 2, (1, 0, 0): -1})
    assert WordSum.from_json(u.to_json()) == u
