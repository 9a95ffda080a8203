"""Arithmetic kernels for cyclotomic field elements.

A raw element is a pair ``(nums, den)`` where ``nums`` is a tuple of ints of
length equal to the field degree (coefficients of powers of the root, low
degree first) and ``den`` is a positive int.  Canonical form: the gcd of all
numerators and the denominator is 1, and the zero element is ``((0,..,0), 1)``.

A field's product is one function, written out as straight-line source from
its reduction table ``red`` and compiled once by ``compile_product``, as
``dataclasses`` and ``collections.namedtuple`` build their generated methods.
``red[t]`` lists the pairs ``(k, r_k)`` with ``r_k != 0``, ascending in k, of
x^(m+t) modulo the minimal polynomial, for ``0 <= t <= m-2``.  The product
unpacks both numerator tuples into locals; each coefficient a_i of the first
runs one ``if a_i:`` block of the m statements ``c_(i+j) += a_i * b_j``, since
at degree 16 and 20 most operands are monomials; then each x^(m+t) folds into
the low coefficients through the nonzero terms of ``red[t]``.  No loop or
index is interpreted per coefficient.
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


def compile_product(red):
    """The product of two numerator tuples, reduced modulo the field's
    minimal polynomial, as one generated function ``product(an, bn)``."""
    m = len(red) + 1
    a = ", ".join(f"a{i}" for i in range(m))
    b = ", ".join(f"b{j}" for j in range(m))
    lines = [
        "def product(an, bn):",
        f"    {a}, = an",
        f"    {b}, = bn",
        "    " + " = ".join(f"c{k}" for k in range(2 * m - 1)) + " = 0",
    ]
    for i in range(m):
        lines.append(f"    if a{i}:")
        lines += [f"        c{i + j} += a{i} * b{j}" for j in range(m)]
    for t, row in enumerate(red):
        for k, r in row:
            op = {1: "+= ", -1: "-= "}.get(r, f"+= {r} * ")
            lines.append(f"    c{k} {op}c{m + t}")
    lines.append("    return (" + ", ".join(f"c{k}" for k in range(m)) + ",)")
    namespace = {}
    exec(compile("\n".join(lines), f"<product of degree {m}>", "exec"), namespace)
    return namespace["product"]


def felem_mul(a, b, product):
    an, ad = a
    bn, bd = b
    return felem_normalize(product(an, bn), ad * bd)


def felem_submul(a, b, c, product):
    """a - b*c, fused (one normalization)."""
    an, ad = a
    pn = product(b[0], c[0])
    pd = b[1] * c[1]
    if ad == pd:
        return felem_normalize([x - y for x, y in zip(an, pn)], ad)
    return felem_normalize([x * pd - y * ad for x, y in zip(an, pn)], ad * pd)
