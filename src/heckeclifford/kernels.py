"""Arithmetic kernels for cyclotomic field elements.

A raw element is a pair ``(nums, den)`` where ``nums`` is a tuple of ints of
length equal to the field degree (coefficients of powers of the root, low
degree first) and ``den`` is a positive int.  Canonical form: the gcd of all
numerators and the denominator is 1, and the zero element is ``((0,..,0), 1)``.

A field's arithmetic is written out as straight-line source from its
reduction table ``red`` and compiled once by ``compile_field``, as
``dataclasses`` and ``collections.namedtuple`` build their generated methods.
``red[t]`` lists the pairs ``(k, r_k)`` with ``r_k != 0``, ascending in k, of
x^(m+t) modulo the minimal polynomial, for ``0 <= t <= m-2``.  One writer
emits the product block: both numerator tuples are unpacked into locals; each
coefficient a_i of the guarded operand runs one ``if a_i:`` block of the m
statements ``c_(i+j) += a_i * b_j``, since at degree 16 and 20 most operands
are monomials; then each x^(m+t) folds into the low coefficients through the
nonzero terms of ``red[t]``.  That block is the body of ``product`` and is
inlined, per entry, into the K vector loops ``scale``, ``submul_into`` and
``mat_vec``; these and ``add_into`` also combine with the current entry, take
one gcd when the denominator is not 1, and store or drop the entry inline.
No loop or index is interpreted per coefficient, and no function is called
per vector entry.  The ``felem_*`` functions are the scalar kernels of
``FieldElem`` and ``CycField.raw_inverse``.
"""

from collections import namedtuple
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


FieldKernels = namedtuple("FieldKernels", "product scale add_into submul_into mat_vec")


def _names(prefix, count, sep=", "):
    return sep.join(f"{prefix}{k}" for k in range(count))


def _product_block(red):
    """Lines that set c0..c(m-1) to (a0..a(m-1)) * (b0..b(m-1)), reduced."""
    m = len(red) + 1
    lines = [" = ".join(f"c{k}" for k in range(2 * m - 1)) + " = 0"]
    for i in range(m):
        lines.append(f"if a{i}:")
        lines += [f"    c{i + j} += a{i} * b{j}" for j in range(m)]
    for t, row in enumerate(red):
        for k, r in row:
            op = {1: "+= ", -1: "-= "}.get(r, f"+= {r} * ")
            lines.append(f"c{k} {op}c{m + t}")
    return lines


def _combine_block(m, sign):
    """Lines that set c0..c(m-1) over den to cur sign (c0..c(m-1) over pd)."""
    return [
        f"({_names('u', m)},), ud = cur",
        "if ud == pd:",
        *(f"    c{k} = u{k} {sign} c{k}" for k in range(m)),
        "    den = ud",
        "else:",
        *(f"    c{k} = u{k} * pd {sign} c{k} * ud" for k in range(m)),
        "    den = ud * pd",
    ]


def _store_block(m, target):
    """Lines that store c0..c(m-1) over den at target[k] in canonical form,
    or drop the entry when every coefficient is 0."""
    c = _names("c", m)
    return [
        f"if not ({_names('c', m, ' or ')}):",
        f"    {target}.pop(k, None)",
        "elif den == 1:",
        f"    {target}[k] = (({c},), 1)",
        "else:",
        f"    g = gcd(den, {c})",
        "    if g == 1:",
        f"        {target}[k] = (({c},), den)",
        "    else:",
        f"        {target}[k] = (({', '.join(f'c{k} // g' for k in range(m))},), den // g)",
    ]


def _indent(lines, depth):
    return ["    " * depth + line for line in lines]


def compile_field(red):
    """The field's product and K vector loops, from one generated source.

    ``product(an, bn)`` multiplies two numerator tuples.  ``scale(v, c)``
    returns c*v, ``add_into(v, w)`` does v += w and ``submul_into(v, w, c)``
    v -= c*w in place, and ``mat_vec(cols, v)`` returns A v for the
    column-major A; the multiplier c is nonzero in ``submul_into``.  Each loop
    unpacks its fixed operand (c, or the column's coefficient of v) once and
    runs the product block, the combine with the current entry and the
    normalization inline, per entry.  The product's guarded operand is the
    multiplier c in ``scale`` and ``submul_into`` and the matrix entry in
    ``mat_vec``.
    """
    m = len(red) + 1
    a, b, c = _names("a", m), _names("b", m), _names("c", m)
    product = _product_block(red)
    lines = [
        "def product(an, bn):",
        f"    {a}, = an",
        f"    {b}, = bn",
        *_indent(product, 1),
        f"    return ({c},)",
        "",
        "def scale(v, c):",
        f"    ({a},), ad = c",
        f"    if not ({_names('a', m, ' or ')}):",
        "        return {}",
        "    out = {}",
        f"    for k, (({b},), bd) in v.items():",
        *_indent(product, 2),
        "        den = ad * bd",
        *_indent(_store_block(m, "out"), 2),
        "    return out",
        "",
        "def add_into(v, w):",
        "    for k, x in w.items():",
        "        cur = v.get(k)",
        "        if cur is None:",
        "            v[k] = x",
        "            continue",
        f"        ({c},), pd = x",
        *_indent(_combine_block(m, "+"), 2),
        *_indent(_store_block(m, "v"), 2),
        "",
        "def submul_into(v, w, c):",
        f"    ({a},), ad = c",
        f"    for k, (({b},), bd) in w.items():",
        *_indent(product, 2),
        "        pd = ad * bd",
        "        cur = v.get(k)",
        "        if cur is None:",
        *(f"            c{k} = -c{k}" for k in range(m)),
        "            den = pd",
        "        else:",
        *_indent(_combine_block(m, "-"), 3),
        *_indent(_store_block(m, "v"), 2),
        "",
        "def mat_vec(cols, v):",
        "    out = {}",
        f"    for j, (({b},), bd) in v.items():",
        f"        for k, (({a},), ad) in cols[j].items():",
        *_indent(product, 3),
        "            pd = ad * bd",
        "            cur = out.get(k)",
        "            if cur is None:",
        "                den = pd",
        "            else:",
        *_indent(_combine_block(m, "+"), 4),
        *_indent(_store_block(m, "out"), 3),
        "    return out",
    ]
    namespace = {"gcd": gcd}
    exec(compile("\n".join(lines), f"<field kernels of degree {m}>", "exec"), namespace)
    return FieldKernels(*(namespace[name] for name in FieldKernels._fields))


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
