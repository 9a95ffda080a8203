"""Arithmetic kernels for cyclotomic field elements.

A raw element is a pair ``(nums, den)`` where ``nums`` is a tuple of ints of
length equal to the field degree (coefficients of powers of the root, low
degree first) and ``den`` is a positive int.  Canonical form: the gcd of all
numerators and the denominator is 1, and the zero element is ``((0,..,0), 1)``.

``red`` is the reduction table of the field: ``red[t]`` lists the pairs
``(k, r_k)`` with ``r_k != 0``, ascending in k, of x^(m+t) modulo the minimal
polynomial, for ``0 <= t <= m-2``.
"""

from math import gcd

BACKEND = "python"


def felem_normalize(nums, den):
    if den == 1:
        return (tuple(nums), 1)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return (tuple(nums), den)
    return (tuple([x // g for x in nums]), den // g)


def felem_is_zero(a):
    for x in a[0]:
        if x:
            return False
    return True


def felem_neg(a):
    return (tuple(-x for x in a[0]), a[1])


def felem_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return felem_normalize([x + y for x, y in zip(an, bn)], ad)
    return felem_normalize([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)


def felem_sub(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return felem_normalize([x - y for x, y in zip(an, bn)], ad)
    return felem_normalize([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)


def felem_scale(a, p, q):
    """Multiply by the rational p/q."""
    if p == 0:
        return (tuple(0 for _ in a[0]), 1)
    return felem_normalize([x * p for x in a[0]], a[1] * q)


def _mul_reduced(an, bn, red):
    conv = [0] * (len(an) + len(bn) - 1)
    for i, ai in enumerate(an):
        if ai:
            for k, bj in enumerate(bn, i):
                if bj:
                    conv[k] += ai * bj
    for row in reversed(red):
        c = conv.pop()
        if c:
            for k, rk in row:
                conv[k] += c * rk
    return conv


def felem_mul(a, b, red):
    an, ad = a
    bn, bd = b
    return felem_normalize(_mul_reduced(an, bn, red), ad * bd)


def felem_submul(a, b, c, red):
    """a - b*c, fused (one normalization)."""
    an, ad = a
    pn = _mul_reduced(b[0], c[0], red)
    pd = b[1] * c[1]
    if ad == pd:
        return felem_normalize([x - y for x, y in zip(an, pn)], ad)
    return felem_normalize([x * pd - y * ad for x, y in zip(an, pn)], ad * pd)
