"""Acceptance criteria.

One test per criterion; every check is exact (zero tolerance).  Each test
prints a single PASS/FAIL line so the suite doubles as a report when run with
pytest -s.
"""

import hashlib
import json

import pytest

from heckeclifford import supermodules
from heckeclifford.cartan import Weight, cartan_matrix, f_lambda, weight_of_c
from heckeclifford.cli import main
from heckeclifford.grothendieck import (
    character_library,
    divided,
    serre_verify,
    ses_check,
)
from heckeclifford.realizations import (
    PathFamily,
    blambda_by_cut,
    generate_binfty,
    generate_blambda,
    graphs_equal,
    weighted_string_sum,
    splitting_strictness_report,
    star_commutation_report,
)
from heckeclifford.scalars import (
    CycField,
    ScalarModel,
    q_of,
    adjacent_pair_vanishing,
)
from heckeclifford.supermodules import (
    build_L001,
    build_L01,
    build_L_ij,
    build_L_iij,
    relation_suites,
    type_of_letter,
    verify_relations,
)


def report(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_scalar_identities():
    ok = True
    for l in range(2, 7):
        f = CycField.for_l(l)
        for i in range(l):
            for j in range(l):
                if abs(i - j) > 1:
                    continue
                model = ScalarModel.for_indices(l, [i, j])
                t = model.tower
                a = model.b(i, 1)
                b = model.b(j, 1)
                val = adjacent_pair_vanishing(
                    a, b, t.scalar(f.xi), t.scalar(q_of(l, i)), t.scalar(q_of(l, j))
                )
                ok &= val.is_zero()
        for i in range(l - 1):
            j = i + 1
            qi, qj = q_of(l, i), q_of(l, j)
            val = f.xi * f.xi * (qi * qj - 4) * ((qj - qi) ** 2).inverse()
            ok &= val == f.one
    report(1, "scalar-identities", ok)


def test_criterion_2_relation_verification():
    ok = not verify_relations(build_L01())
    ok &= not verify_relations(build_L001())
    for l in range(2, 6):
        for i in range(l):
            for j in (i - 1, i + 1):
                if not 0 <= j <= l - 1:
                    continue
                ti, tj = type_of_letter(l, i), type_of_letter(l, j)
                if (ti, tj) != ("Q", "Q"):
                    ok &= not verify_relations(build_L_ij(l, i, j))
                if (ti, tj) == ("Q", "M"):
                    # the builder itself verifies relations and the action equations
                    build_L_iij(l, i, j)
    report(2, "relation-verification", ok)


@pytest.fixture(scope="module")
def s5_reports():
    # one joint pass per l: {"s5": report, "shuffle": report}
    return {l: relation_suites(l) for l in (2, 3, 4, 5)}


def test_criterion_3_low_rank_replication(s5_reports):
    ok = True
    needed = {
        "rank2-invariance",
        "rank3-QM-invariance",
        "rank3-MM-noninvariance",
        "rank4-QM-noninvariance",
        "rank3-MM-scalar",
        "rank4-QM-scalar",
    }
    for l in (3, 4, 5):
        rep = s5_reports[l]["s5"]
        ok &= rep["ok"]
        seen = {c["check"] for c in rep["checks"]}
        # scalar conditions and invariance statements must actually be covered
        ok &= {"rank2-invariance", "rank3-QM-invariance", "rank4-QM-scalar"} <= seen
        if l >= 4:
            ok &= "rank3-MM-noninvariance" in seen
        for c in rep["checks"]:
            if c["check"] in needed:
                ok &= c["status"] == "pass"
    rep2 = s5_reports[2]["s5"]
    ok &= rep2["ok"]
    for c in rep2["checks"]:
        if c["check"] in ("rank4-l2-noninvariance", "rank4-l2-scalar"):
            ok &= c["status"] == "pass"
    report(3, "low-rank-replication", ok)


# sha256 of json.dumps(low_rank_suite(l), sort_keys=True), recorded at commit
# 08d0d2a, before characters and induction moved to T-generators
LOW_RANK_DIGESTS = {
    2: "0df483dcb06c3990f014813fe0133f6db89e7ec482ebf8ff02e8db178ca870b4",
    3: "b9c009b0fd341c74e573a965084880bb92bb35a4e667a21b0cd6e44d01713bd3",
    4: "27b7f6314efc4a8bb44a869dbb9984a1e173ba7bfcd76da916eb5d2b0df0787b",
    5: "ef5d4e1888f126fd50abac0e85f0f659e64981bda9291ba0c3e1e62774b8457d",
}


# sha256 of json.dumps(shuffle_compat_suite(l), sort_keys=True), recorded at
# commit fb54f07, before the two suites became one pass over the pairs
SHUFFLE_DIGESTS = {
    2: "9bbd5d16946df68ea83d8419e402df0f60124d170114c93cffbce2f73c5946f7",
    3: "f2cfe481e235a83277303b53433a667035e2519837b2a132e03b01610462e9c7",
    4: "acc34f8d98fc507aa55c8a7ad9076aee495c299542333e034bebf1ca37b8b643",
    5: "d3a233a94804959eda25d4653a8fcd9b65cf0eda90d0ea7fdb7a0969385ff6ba",
}


def test_low_rank_reports_are_byte_stable(s5_reports):
    for l, want in LOW_RANK_DIGESTS.items():
        text = json.dumps(s5_reports[l]["s5"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, l


def test_shuffle_reports_are_byte_stable(s5_reports):
    for l, want in SHUFFLE_DIGESTS.items():
        text = json.dumps(s5_reports[l]["shuffle"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, l


# sha256 of the stdout of `relations --suite all --l <l>`, recorded at commit
# 49f3237, before the MM checks moved into the not-QQ pairs' compute (l = 6..12),
# and at 47bcb32, before the expected characters came from ch_standard
# (l = 13..24, no character declining mod p)
RELATIONS_DIGESTS = {
    6: "e048916e2198fa09354934dd29404ea19d3f5592a1f1e5b2f31b908d5c18a61f",
    7: "beca8816de997324a1f7f9fc07365ea52bc8b8350b92e83ce8e5da01e16446a4",
    8: "85c85223d76f1e7f35a0a8b9ea95ab973eaba71a5fd288a3f81989fe870a89da",
    9: "a87e93ae4b9c2f14f169557a89bc052e2c1b4ff8a7b938f7359019883d37a0da",
    10: "853ae0b8a00cac5095bb5167ee75a24bdfd84f946a6ec1b48eb328154db82db0",
    11: "f8578320f35934659e1eff898556d3c7526fdbcf2a7e4c1f6249b13a9da4ce95",
    12: "1054088c6b98bb649448b8822eb2f9afc5f384f1570f557a2eb002edb12420f0",
    13: "59b843b4f097a4ecf66e2dbea1cbb36452fe5f7869d718079579ffdbd6915754",
    14: "94143b9c76265fe5a8cb3e7018fc95a8d68a8a5767e018d974eee03cf18baa2f",
    15: "0f0f395e3b9886621bd0abd37984c499d91164a4865977057165096de2266293",
    16: "8bfd473f188129b76b12ceec2cd6bbda44dda248baa1fca758790f61a88f90cf",
    17: "70a2167308a6e17985d73789ee44d1946ae5e38ead61446b70c94b7340925bc8",
    18: "6f714970c48c7ae30e84c9882361ff5694b1de553e383684799ebe5ad67b90aa",
    19: "3f3dfc12c8ea8d33e300eb554e2eee46b725b4f363cc3cfd04b9364d5155b55f",
    20: "9bd7924e735b9849baddfb75205f3b0b77d372ba25c6d8ef3cf1ac039fb09aa0",
    21: "b5d53ce298041ec3409e6d77541747544844c7214e673bd06b417817636f85b7",
    22: "0c4531446634254a58f655141b790382bde867c4806b8dd34401c5afcc5efc37",
    23: "e1b815da55e0b6aaddeb721861d32e9778eb075ccf03349106e70477825ae27b",
    24: "d7140faf5cb58472eba52dc65bb914fdef802d157755b742d2f43ca6eb7a0e75",
}


@pytest.mark.parametrize("l", [6, 7])
def test_large_l_relations_reports_are_byte_stable(l, capsys, monkeypatch):
    """The l = 6, 7 reports match their digests, and no character declines mod p.

    l = 8..24 take 1 to 15 s each, so check them by hand before a fast path
    or a change to the suites lands, each against its digest above:

        PYTHONPATH=src python -m heckeclifford.cli relations --suite all --l 8 | sha256sum
    """
    declined = []
    certified = supermodules._certified_word_dims

    def counted(M, ops):
        got = certified(M, ops)
        if got is None:
            declined.append(M)
        return got

    monkeypatch.setattr(supermodules, "_certified_word_dims", counted)
    assert main(["relations", "--suite", "all", "--l", str(l)]) == 0
    out = capsys.readouterr().out
    # a decline falls back to the exact engine: name the module, do not re-pin
    assert declined == []
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_DIGESTS[l]


# sha256 of the stdout of each command, recorded at commit 96c7840, before
# serre_verify read one Serre relation off the Cartan matrix, and (relations)
# at 0d2dafb, before a single --suite became a pick from the joint pass
REPORT_DIGESTS = {
    ("serre", "--l", "2"): "64973318d26d8eb9b9b2a2fdf1fe65bd7ea3f7db2f9eafc188f8a76d74d4fbb9",
    ("serre", "--l", "3"): "696f8a8352bb7838e8630a5299ec36ba0e436e70a16bad33d0c02f04f5fa5e81",
    ("serre", "--l", "4"): "5acfa40cee811a62ec09fb73d7e674f78b602d187a899b815f74a9fb5eb9e188",
    ("serre", "--l", "5"): "71c6278356be46a7da30ef875c33636a81c36f2fc88886dedd39b009431ad229",
    ("serre", "--l", "6"): "d867f8673ad15037cdf5585236c951f9c8a89dc87c2ab285fc1dc881c42c7e8a",
    ("serre", "--l", "7"): "b2109e8d1923fcf010035388cd79d36193423e0b657cf8d3ad2dbd7ebc8514e5",
    ("serre", "--l", "8"): "eb970e075fcb31cdcb5ca66fea6ee107a88f22eded8585f0739645735fc69dde",
    ("serre", "--l", "9"): "46a40a8a7b09031a34b7d08ce2c690af8f65a08328228a2194adca045e567304",
    ("serre", "--l", "10"): "03d1a2e00e5c1c9651432af3297cd3fcb28db173f4922b4bf47bcabdd1ada27b",
    ("serre", "--l", "11"): "51fbc641c916e739187c44726cc0d237a1fbbc189a373bafe044112763380538",
    ("serre", "--l", "12"): "559fd7350457f0099471085322e71f1bdf748941e80d6a71331ca9a98f93fc54",
    ("char", "--l", "3"): "375e8334a3761b1ddd7744af96faf83c2172ff2d1d540cd9b3b3490d724867f6",
    ("all", "--l", "2", "--depth", "3"): "3c60ba23329872aadb47a71c411c5eb659613d204903239fcc2fecc7539e6260",
    ("relations", "--l", "2", "--suite", "s5"): "f72d5ce47625451573638d48c3739bd0ba38aa0a324199c524e7fd60017a9a63",
    ("relations", "--l", "2", "--suite", "shuffle"): "1a6dcb80010d95ac4bd4f932042f912455be605aaf5aa7d3d26bd361dbac633a",
    ("relations", "--l", "2", "--suite", "all"): "dd49e42a7112926ab7c86e77290bada909b12a6199815e9b575f37ba538ea362",
    ("relations", "--l", "3", "--suite", "s5"): "bc2040e4baaed725cc8d4a4edb9eb920e552a0241da04827b6bed78f3d4fe52d",
    ("relations", "--l", "3", "--suite", "shuffle"): "a668e2fdd8c9a81459a770649686165b2e288112091d3450724193ea6ad6581c",
    ("relations", "--l", "3", "--suite", "all"): "7261f1c610ae713f206c5ddc555fc2109ee676ed7457af9fe752a02ea3ebad52",
    ("relations", "--l", "4", "--suite", "s5"): "f452bc6366d16ccb24c66780c067bf98504ff4fa3cfbc54b0ea59f03d31e0d56",
    ("relations", "--l", "4", "--suite", "shuffle"): "2887adee5d24b57120dced6681a84cdb12e7da96acebb8621aded69212c25651",
    ("relations", "--l", "4", "--suite", "all"): "20053f09d6ead6f58ad21307ff4842a192561dbdc746bf33a4456a9389b19e69",
    ("relations", "--l", "5", "--suite", "s5"): "482e09640601de2b2fc5c37581f0cb7e120031b42752462c64f8d467b944db14",
    ("relations", "--l", "5", "--suite", "shuffle"): "6574cbe30bbf9f57b87b806a1bc6aa8b5cf16c4a31e3757e2d1e8e78daac5c18",
    ("relations", "--l", "5", "--suite", "all"): "f93a4183cd041c1fa033fecc4caeb85bd379f26c04fa44c39aee030bcfd91268",
}


@pytest.mark.parametrize(
    "argv", list(REPORT_DIGESTS), ids=lambda argv: "-".join(a.lstrip("-") for a in argv)
)
def test_reports_are_byte_stable(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_criterion_4_characters(s5_reports):
    ok = True
    char_checks = {
        "rank2-N-character",
        "block-ij-character",
        "rank3-MM-character",
        "rank3-MM-sigma-character",
        "rank3-QM-N-character",
        "rank3-QM-quotient-character",
        "block-iij-character",
        "rank4-QM-character",
        "rank4-QM-sigma-character",
        "block-ijii-character",
        "L01-character",
        "L001-character",
        "block-0010-character",
        "block-1000-character",
        "block-010-character",
        "block-0100-character",
    }
    covered = set()
    for l in (2, 3, 4, 5):
        for c in s5_reports[l]["s5"]["checks"]:
            if c["check"] in char_checks:
                covered.add(c["check"])
                ok &= c["status"] == "pass"
    ok &= covered == char_checks
    report(4, "characters-from-matrices", ok)


def test_criterion_5_shuffle_and_ses(s5_reports):
    ok = True
    for l in range(2, 6):
        for i in range(l):
            for j in (i - 1, i + 1):
                if not 0 <= j <= l - 1:
                    continue
                k = -cartan_matrix(l).entry(i, j)
                for a in range(k):
                    for b in range(k - a):
                        ok &= ses_check(l, i, j, a, b)
        rep = s5_reports[l]["shuffle"]
        ok &= rep["ok"]
    report(5, "shuffle-and-ses", ok)


def test_criterion_6_serre_suite():
    ok = all(serre_verify(l)["ok"] for l in (2, 3, 4, 5))
    report(6, "serre-suite", ok)


def test_criterion_7_binfty():
    ok = True
    for l in (2, 3, 4):
        g = generate_binfty(l, 6)  # raises ConsistencyFailure on mismatch
        zero_nodes = [f for f in g.nodes if f.wt().is_zero()]
        ok &= zero_nodes == [PathFamily.vacuum(l)]
        edge_map = {}
        for s, d, c in g.edges:
            edge_map[(s, c)] = d
        ids = {f.key(): n for n, f in enumerate(g.nodes)}
        max_depth_keys = set()
        for fam in g.nodes:
            nid = ids[fam.key()]
            fam.check_rotations()
            ok &= not splitting_strictness_report(fam, l)
            for i in range(l):
                from heckeclifford.cartan import pairing

                ok &= fam.phi(i) == fam.eps(i) + pairing(i, fam.wt())
                tgt = edge_map.get((nid, i))
                if tgt is not None:
                    child = g.nodes[tgt]
                    ok &= child.eps(i) == fam.eps(i) + 1
                    ok &= child.phi(i) == fam.phi(i) - 1
                    ok &= child.e(i) == fam
            if fam != PathFamily.vacuum(l):
                ok &= any(fam.eps_star(i) > 0 for i in range(l))
        ok &= not star_commutation_report(g)
    report(7, "crystal-binfty", ok)


def test_criterion_8_blambda():
    ok = True
    for l in (2, 3):
        lams = [
            Weight.fundamental(l, 0),
            Weight.fundamental(l, l - 1),
            Weight.fundamental(l, 0) + Weight.fundamental(l, l - 1),
        ]
        for lam in lams:
            deg = len(f_lambda(lam)) - 1
            ok &= deg == weight_of_c(lam)
            g = generate_blambda(l, lam, 8)
            for fam in g.nodes:
                # weighted_string_sum internally enforces formula == measured strings
                ok &= weighted_string_sum(fam, lam) == deg
            ok &= graphs_equal(g, blambda_by_cut(l, lam, 8))
    report(8, "crystal-blambda", ok)


def test_criterion_9_integrality():
    ok = True
    for l in range(2, 6):
        for label, ch in character_library(l):
            for letter in range(l):
                for r in (2, 3):
                    divided(ch, letter, r)  # raises on violation
    report(9, "divided-power-integrality", ok)
