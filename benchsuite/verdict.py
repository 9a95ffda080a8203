"""Exact verdicts on a pass's outputs, against the stored references.

Pure Python, without the library: the digests and the checks here are the
benchmark's own oracle, so a change in the library cannot also change how its
outputs are judged.

``reference.json`` holds, for the fixed-input workloads, the sha256 of every
CLI JSON report and the number of checks a pass makes; for ``linalg-random``
it holds the digest of the canonical results for seeds 0..99 (other seeds are
judged by the exact checks alone).  A pass whose exit code is nonzero or
whose digest differs from the reference counts every one of its checks as
failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests_match(reports, codes, expected):
    """True iff every command exited 0 and, given a reference, every report
    has its reference sha256.

    ``reports`` maps a report name to its bytes (None when the file was not
    written), ``codes`` a report name to the CLI exit code and ``expected`` a
    report name to the reference sha256, or None when there is no reference.
    """
    if any(code != 0 for code in codes.values()):
        return False
    if any(data is None for data in reports.values()):
        return False
    if expected is None:
        return True
    return set(reports) == set(expected) and all(
        sha256(reports[name]) == digest for name, digest in expected.items()
    )


def _statuses(report):
    return [c["status"] for c in report["checks"]]


def judge_verify(reports, codes, seeded_serre, ref):
    """(attempted, failed) for one verify-l3 pass.

    The checks are every relation-suite record, every Serre-identity record,
    every library character tested for divided-power integrality, and the
    equality of the seeded ``serre_verify`` report with the CLI's.
    """
    expected = ref["sha256"] if ref else None
    try:
        rel = json.loads(reports["relations"])
        serre = json.loads(reports["serre"])
        char = json.loads(reports["char"])
    except (TypeError, ValueError):
        attempted = ref["checks"] if ref else 1
        return attempted, attempted
    statuses = [s for suite in rel["suites"] for s in _statuses(suite)]
    statuses += _statuses(serre)
    attempted = len(statuses) + len(char["library"]) + 1
    failed = sum(1 for s in statuses if s != "pass")
    failed += len(char["integrality_failures"])
    failed += 0 if seeded_serre == reports["serre"] else 1
    if not digests_match(reports, codes, expected):
        failed = attempted
    return attempted, failed


def judge_crystal(report, code, node_issues, ref):
    """(attempted, failed) for one crystal-l4 pass.

    The checks are the CLI report (exit code, which carries the
    star-commutation verdict, and digest) and the splitting-strictness report
    of every node.
    """
    expected = {"crystal": ref["sha256"]["crystal"]} if ref else None
    attempted = 1 + len(node_issues)
    failed = sum(1 for issues in node_issues if issues)
    if not digests_match({"crystal": report}, {"crystal": code}, expected):
        failed = attempted
    return attempted, failed


# -- the linalg-random oracle ---------------------------------------------------
#
# Elements of Q(zeta_16) as (nums, den) pairs, the library's raw format.  The
# minimal polynomial is x^8 + 1, so products reduce negacyclically; sums keep
# an unreduced common denominator, which is enough for exact zero tests.

DEGREE = 8
MODULUS = (1, 0, 0, 0, 0, 0, 0, 0, 1)


def el_mul(a, b):
    an, ad = a
    bn, bd = b
    out = [0] * DEGREE
    for i, x in enumerate(an):
        if not x:
            continue
        for j, y in enumerate(bn):
            if not y:
                continue
            k = i + j
            if k < DEGREE:
                out[k] += x * y
            else:
                out[k - DEGREE] -= x * y
    return (out, ad * bd)


def el_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return ([x + y for x, y in zip(an, bn)], ad)
    return ([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)


def el_is_zero(a):
    return not any(a[0])


def el_is_one(a):
    nums, den = a
    return nums[0] == den and not any(nums[1:])


def combine(coeffs, vectors):
    """sum_t coeffs[t] * vectors[t] as {index: element}, zeros dropped."""
    out = {}
    for t, c in coeffs.items():
        for k, x in vectors[t].items():
            y = el_mul(c, x)
            out[k] = el_add(out[k], y) if k in out else y
    return {k: x for k, x in out.items() if not el_is_zero(x)}


def vectors_equal(u, v):
    u = dict(u)
    for k, (nums, den) in v.items():
        x = ([-y for y in nums], den)
        u[k] = el_add(u[k], x) if k in u else x
    return all(el_is_zero(x) for x in u.values())


def functional(weights, v):
    """sum_k weights[k] * v[k] for integer weights."""
    acc = ([0] * DEGREE, 1)
    for k, x in v.items():
        acc = el_add(acc, el_mul(((weights[k],) + (0,) * (DEGREE - 1), 1), x))
    return acc


def canonical(obj):
    """JSON text of nested results with raw elements as [nums, den]."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def raw_json(raw):
    nums, den = raw
    return [list(nums), den]


def combo_json(combo):
    return sorted([t, raw_json(c)] for t, c in combo.items())
