"""Exact arithmetic in Q(zeta_4l) and in quadratic towers over it.

The field element type is a polynomial in a primitive 4l-th root of unity
zeta, reduced modulo the 4l-th cyclotomic polynomial, with rational
coefficients held as an integer vector over a common denominator.  The tower
type adjoins at most two square roots r_k with r_k^2 = d_k for nonzero
discriminants d_k in the field; it is a quotient ring, not necessarily a
field, and offers no division.  On K-vectors (index t * rank + mask) it
gives the r-translates and mat_vec, which applies a tower-linear map stored
as its mask-0 columns.  When a discriminant is a square in the field, a
module span over the tower is not free; supermodules reports that as an
InexactDivisionError, reads the square root off the trace of r_k on the span
and rebuilds in the ring that `Tower.split` leaves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import kernels, linalg


class NotInvertibleError(ZeroDivisionError):
    """Attempted to invert zero."""


class ThirdDiscriminantError(ValueError):
    """Towers are capped at two distinct discriminants."""


def _poly_divmod_int(a, b):
    """Divide integer polynomials, assuming the division is exact over Z."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1]
        if c % b[-1] != 0:
            raise ArithmeticError("inexact integer polynomial division")
        c //= b[-1]
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    if any(a):
        raise ArithmeticError("nonzero remainder in polynomial division")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_tuple(n):
    if n == 1:
        return (-1, 1)
    num = [0] * n + [1]
    num[0] = -1  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic_tuple(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    return tuple(_poly_divmod_int(num, den))


def cyclotomic_polynomial(n):
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return list(_cyclotomic_tuple(n))


class FieldElem:
    """An element of Q(zeta_4l), canonical modulo the cyclotomic polynomial."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.rational(other.numerator, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, kernels.felem_add(self.raw, o.raw))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, kernels.felem_sub(self.raw, o.raw))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, kernels.felem_sub(o.raw, self.raw))

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return FieldElem(
                self.field, kernels.felem_mul(self.raw, other.raw, self.field.product)
            )
        if isinstance(other, int):
            return FieldElem(self.field, kernels.felem_scale(self.raw, other, 1))
        if isinstance(other, Fraction):
            return FieldElem(
                self.field,
                kernels.felem_scale(self.raw, other.numerator, other.denominator),
            )
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.field, kernels.felem_neg(self.raw))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.field.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.raw == o.raw

    def __hash__(self):
        return hash((id(self.field), self.raw))

    def is_zero(self):
        return kernels.felem_is_zero(self.raw)

    def inverse(self):
        if self.is_zero():
            raise NotInvertibleError("division by zero")
        return FieldElem(self.field, self.field.raw_inverse(self.raw))

    def coefficients(self):
        """Rational coefficients with respect to 1, zeta, zeta^2, ..."""
        nums, den = self.raw
        return [Fraction(x, den) for x in nums]

    def __repr__(self):
        nums, den = self.raw
        terms = []
        for k, c in enumerate(nums):
            if not c:
                continue
            frac = Fraction(c, den)
            if k == 0:
                terms.append(str(frac))
            else:
                mon = "z" if k == 1 else f"z^{k}"
                if frac == 1:
                    terms.append(mon)
                elif frac == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{frac}*{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out


class CycField:
    """Q(zeta_4l) presented as Q[z] modulo the cyclotomic polynomial of 4l."""

    def __init__(self, l):
        if l < 2:
            raise ValueError("need l >= 2")
        self.l = l
        self.root_order = 4 * l
        phi = _cyclotomic_tuple(4 * l)
        self.modulus = phi
        m = len(phi) - 1
        self.degree = m
        # powers of zeta within one period, shifted and reduced by x^m
        x_m = [-c for c in phi[:m]]
        pows = []
        cur = [1] + [0] * (m - 1)
        for _ in range(4 * l):
            pows.append(tuple(cur))
            top = cur[m - 1]
            cur = [0] + cur[: m - 1]
            if top:
                cur = [cur[k] + top * x_m[k] for k in range(m)]
        # the reductions of x^m .. x^(2m-2), within the period as m <= 2l
        rows = pows[m : 2 * m - 1]
        self.red = tuple(tuple((k, r) for k, r in enumerate(row) if r) for row in rows)
        # the field protocol's scale, add_into and submul_into are the
        # generated loops themselves, bound here
        self.kernel_set = kernels.compile_field(self.red)
        self.product = self.kernel_set.product
        self.scale = self.kernel_set.scale
        self.add_into = self.kernel_set.add_into
        self.submul_into = self.kernel_set.submul_into
        self._zero_nums = (0,) * m
        self.zero = FieldElem(self, (self._zero_nums, 1))
        self.one = self.from_int(1)
        self.zero_raw, self.one_raw = self.zero.raw, self.one.raw
        self._zeta_pows = [FieldElem(self, (p, 1)) for p in pows]
        self.q = self.zeta_pow(1)
        self.q_inv = self.zeta_pow(-1)
        self.xi = self.q - self.q_inv
        self.sqrt_minus1 = self.zeta_pow(l)
        # sigma_k: zeta -> zeta^k for the units k != 1 mod 4l, as the sparse
        # images (index, coefficient) of the basis powers zeta^j, j < degree
        self._conjugations = {
            k: tuple(
                tuple((i, t) for i, t in enumerate(self.zeta_pow(j * k).raw[0]) if t)
                for j in range(m)
            )
            for k in range(2, 4 * l)
            if gcd(k, 4 * l) == 1
        }

    @staticmethod
    @lru_cache(maxsize=None)
    def for_l(l):
        return CycField(l)

    def from_int(self, v):
        nums = (v,) + (0,) * (self.degree - 1)
        return FieldElem(self, (nums, 1))

    def rational(self, p, q=1):
        if q == 0:
            raise ZeroDivisionError("rational with zero denominator")
        g = gcd(p, q)
        if q < 0:
            g = -g
        p, q = p // g, q // g
        return FieldElem(self, ((p,) + (0,) * (self.degree - 1), q))

    def zeta_pow(self, k):
        return self._zeta_pows[k % self.root_order]

    def elem(self, nums, den=1):
        return FieldElem(self, kernels.felem_normalize(list(nums), den))

    def raw_inverse(self, raw):
        """Inverse of a nonzero raw element, in integer arithmetic only.

        A monomial (c/den)*zeta^j inverts directly to (den/c)*zeta^-j.  Any
        other a = nums/den inverts through the Galois norm: with P the product
        of the conjugates sigma_k(nums) for k != 1, the norm N = nums*P is an
        integer, and a^-1 = den*P/N.  A nonzero coefficient of nums*P past
        the constant one means the field's product is wrong: ArithmeticError.
        """
        nums, den = raw
        support = [j for j, c in enumerate(nums) if c]
        if not support:
            raise NotInvertibleError("inverse of zero")
        if len(support) == 1:
            j = support[0]
            return kernels.felem_scale(self.zeta_pow(-j).raw, den, nums[j])
        prod = None
        for table in self._conjugations.values():
            conj = [0] * self.degree
            for c, col in zip(nums, table):
                if c:
                    for i, t in col:
                        conj[i] += c * t
            conj = (tuple(conj), 1)
            prod = conj if prod is None else kernels.felem_mul(prod, conj, self.product)
        norm = kernels.felem_mul((nums, 1), prod, self.product)[0]
        if any(norm[1:]):
            raise ArithmeticError(f"{self!r}: the norm of {nums} is not rational")
        return kernels.felem_scale(prod, den, norm[0])

    # -- the field protocol of linalg's elimination and the eigenspace split

    def pivot(self, v):
        """The index of v's entry of least (cost, index).

        cost is 0 for a monomial, else 1 + the bit lengths of the numerators
        and denominator, so that normalizing spreads no large norm denominator.
        """

        def cost(k):
            bits = [x.bit_length() for x in v[k][0] if x]
            return (0 if len(bits) == 1 else 1 + sum(bits) + v[k][1].bit_length(), k)

        return min(v, key=cost)

    def add(self, a, b):
        return kernels.felem_add(a, b)

    def mul(self, a, b):
        return kernels.felem_mul(a, b, self.product)

    def neg(self, a):
        return kernels.felem_neg(a)

    def mat_vec(self, cols, v):
        return linalg.mat_vec(cols, v, self.kernel_set.mat_vec)

    def primitive(self, v):
        """Scale a vector to integer-primitive form (content 1, denominators 1).

        Rescaling does not change the spanned line; using primitive vectors at
        materialization points keeps coefficient growth under control in
        iterated eliminations.
        """
        if not v:
            return v
        den_lcm = 1
        for nums, den in v.values():
            den_lcm = den_lcm // gcd(den_lcm, den) * den
        g = 0
        scaled = {}
        for k, (nums, den) in v.items():
            f = den_lcm // den
            nn = tuple(x * f for x in nums)
            scaled[k] = nn
            for x in nn:
                if x:
                    g = gcd(g, x)
        if g == 0:
            return {}
        return {k: (tuple(x // g for x in nn), 1) for k, nn in scaled.items()}

    def __repr__(self):
        return f"CycField(l={self.l})"


@lru_cache(maxsize=None)
def q_of(l, i):
    """The eigenvalue parameter 2*(q^(2i+1) + q^-(2i+1))/(q + q^-1), cached."""
    if l < 2:
        raise ValueError("need l >= 2")
    if not 0 <= i <= l - 1:
        raise ValueError(f"index {i} outside 0..{l - 1}")
    f = CycField.for_l(l)
    num = f.zeta_pow(2 * i + 1) + f.zeta_pow(-(2 * i + 1))
    return 2 * num * (f.q + f.q_inv).inverse()


def discriminant(l, i):
    """d_i = q(i)^2/4 - 1, the discriminant of x^2 - q(i)x + 1."""
    qi = q_of(l, i)
    return qi * qi * Fraction(1, 4) - CycField.for_l(l).one


class TowerElem:
    """Element of a Tower, as coordinates over the basis of r-monomials."""

    __slots__ = ("tower", "coords")

    def __init__(self, tower, coords):
        self.tower = tower
        self.coords = tuple(coords)

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise ValueError("elements of different towers")
            return other
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.tower.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElem(self.tower, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TowerElem(self.tower, [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return TowerElem(self.tower, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return TowerElem(self.tower, [a * other for a in self.coords])
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise ValueError("elements of different towers")
            t = self.tower
            out = [t.field.zero] * t.rank
            for b, x in enumerate(self.coords):
                if x.is_zero():
                    continue
                for c, y in enumerate(other.coords):
                    if y.is_zero():
                        continue
                    common = b & c
                    term = x * y
                    if common:
                        term = term * t.disc_of_mask(common)
                    out[b ^ c] = out[b ^ c] + term
            return TowerElem(t, out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return TowerElem(self.tower, [other * a for a in self.coords])
        return NotImplemented

    def __pow__(self, e):
        if e < 0:
            raise ValueError("towers have no division; exponent must be >= 0")
        acc = self.tower.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((id(self.tower), self.coords))

    def is_zero(self):
        return all(a.is_zero() for a in self.coords)

    def __repr__(self):
        names = {0: "", 1: "r1", 2: "r2", 3: "r1*r2"}
        parts = []
        for b, a in enumerate(self.coords):
            if a.is_zero():
                continue
            parts.append(f"({a!r}){'*' + names[b] if b else ''}")
        return " + ".join(parts) if parts else "0"


class Tower:
    """Quotient ring F[r_1, r_2]/(r_k^2 - d_k) over F = Q(zeta_4l).

    At most two distinct nonzero discriminants are allowed.  The ring
    contains zero divisors when a discriminant is a square in F; a module
    span over it is then not free, and once that square root is known `split`
    produces the smaller ring.  Instances are interned per (field,
    discriminants), so equal towers are identical.
    """

    _registry = {}

    def __new__(cls, field, discs=()):
        discs = tuple(discs)
        for d in discs:
            if d.is_zero():
                raise ValueError("zero discriminant; adjoin nothing instead")
        if len(set(d.raw for d in discs)) != len(discs):
            raise ValueError("duplicate discriminants")
        if len(discs) > 2:
            raise ThirdDiscriminantError("at most two discriminants may coexist")
        key = (field, tuple(d.raw for d in discs))
        inst = cls._registry.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst._build(field, discs)
            cls._registry[key] = inst
        return inst

    def _build(self, field, discs):
        self.field = field
        self.discs = discs
        self.rank = 1 << len(discs)
        self.disc_raws = [field.one_raw]
        for mask in range(1, self.rank):
            p = field.one
            for k, d in enumerate(discs):
                if mask >> k & 1:
                    p = p * d
            self.disc_raws.append(p.raw)
        self.zero = TowerElem(self, [field.zero] * self.rank)
        self.one = TowerElem(
            self, [field.one] + [field.zero] * (self.rank - 1)
        )

    @staticmethod
    def with_discs(field, ds):
        """Tower generated by the distinct nonzero discriminants among ds."""
        seen = []
        for d in ds:
            if d.is_zero():
                continue
            if all(d.raw != e.raw for e in seen):
                seen.append(d)
        return Tower(field, seen)

    def disc_of_mask(self, mask):
        return FieldElem(self.field, self.disc_raws[mask])

    def r_translate(self, v, mask):
        """The K-vector v times the r-monomial mask, by the regular representation.

        r^a r^mask = d r^(a ^ mask) with d = disc_raws[a & mask], so the entry
        x at index t * rank + a moves to t * rank + (a ^ mask), times d when
        a & mask is not 0 and unscaled otherwise.  Only field.mul, rank and
        disc_raws are read, so modp.ReducedTower runs this loop over F_p; a
        nonzero d keeps every moved entry nonzero.
        """
        low, mul, discs = self.rank - 1, self.field.mul, self.disc_raws
        out = {}
        for k, x in v.items():
            common = k & low & mask
            out[k ^ mask] = mul(x, discs[common]) if common else x
        return out

    def translates(self, v):
        """The r-translates v r^mask of a K-vector, mask = 0 (v itself) first."""
        return [v] + [self.r_translate(v, mask) for mask in range(1, self.rank)]

    def mat_vec(self, cols, v):
        """G v for the tower-linear map G stored as its mask-0 columns G(e_t).

        G maps the part sum_t x_t e_t r^m of v to (sum_t x_t G(e_t)) r^m: one
        field.mat_vec per mask that v meets, then the r-translate.
        """
        rank, field = self.rank, self.field
        if rank == 1:
            return field.mat_vec(cols, v)
        parts = {}
        for k, x in v.items():
            parts.setdefault(k % rank, {})[k // rank] = x
        out = field.mat_vec(cols, parts.pop(0, {}))
        for mask, part in parts.items():
            field.add_into(out, self.r_translate(field.mat_vec(cols, part), mask))
        return out

    def scalar(self, x):
        if isinstance(x, int):
            x = self.field.from_int(x)
        elif isinstance(x, Fraction):
            x = self.field.rational(x.numerator, x.denominator)
        if not isinstance(x, FieldElem) or x.field is not self.field:
            raise ValueError("not a scalar of the base field")
        return TowerElem(self, [x] + [self.field.zero] * (self.rank - 1))

    def gen(self, k):
        """The adjoined square root r_k."""
        coords = [self.field.zero] * self.rank
        coords[1 << k] = self.field.one
        return TowerElem(self, coords)

    def elem(self, coords):
        if len(coords) != self.rank:
            raise ValueError("coordinate count mismatch")
        return TowerElem(self, coords)

    def split(self, k, root):
        """The tower with disc #k removed by substituting r_k -> root.

        root is a base field element; returns (new_tower, mapper) where mapper
        sends elements of this tower into the new one.
        """
        if root * root != self.discs[k]:
            raise ValueError("root**2 != discriminant; refusing to split")
        sub = Tower(self.field, tuple(d for j, d in enumerate(self.discs) if j != k))
        bit = 1 << k

        def mapper(x):
            coords = [self.field.zero] * sub.rank
            for mask, a in enumerate(x.coords):
                submask = (mask & (bit - 1)) | ((mask >> 1) & ~(bit - 1))
                coords[submask] = coords[submask] + (a * root if mask & bit else a)
            return TowerElem(sub, coords)

        return sub, mapper

    def __repr__(self):
        return f"Tower({self.field!r}, discs={list(self.discs)!r})"


class ScalarModel:
    """A tower together with realized square roots of split discriminants.

    Module builders work against a model so a computation can be restarted in
    the smaller ring after an InexactDivisionError: the discriminant leaves
    the tower but its square root stays available.
    """

    def __init__(self, l, tower, roots=None):
        self.l = l
        self.field = tower.field
        self.tower = tower
        self.roots = dict(roots or {})

    @staticmethod
    def for_indices(l, indices):
        field = CycField.for_l(l)
        tower = Tower.with_discs(field, [discriminant(l, i) for i in indices])
        return ScalarModel(l, tower)

    def sqrt_disc(self, i, sign=1):
        """sign * sqrt(d_i) inside the current ring."""
        d = discriminant(self.l, i)
        if d.is_zero():
            return self.tower.zero
        adjoined = [e.raw for e in self.tower.discs]
        if d.raw in adjoined:
            root = self.tower.gen(adjoined.index(d.raw))
        else:
            root = self.roots.get(d.raw)
            if root is None:
                raise ValueError(f"discriminant of index {i} unavailable in this model")
        return root if sign >= 0 else -root

    def b(self, i, sign):
        """The root q(i)/2 + sign*sqrt(d_i) of x^2 - q(i)x + 1, in the model's ring."""
        half = self.tower.scalar(q_of(self.l, i) * Fraction(1, 2))
        return half + self.sqrt_disc(i, sign)

    def split(self, disc_index, root):
        """New model after substituting r_k -> root, a base field element."""
        old = self.tower.discs[disc_index]
        tower2, mapper = self.tower.split(disc_index, root)
        roots2 = {raw: mapper(v) for raw, v in self.roots.items()}
        roots2[old.raw] = tower2.scalar(root)
        return ScalarModel(self.l, tower2, roots2), mapper


def adjacent_pair_vanishing(a, b, xi, qi, qj):
    """The degree-8 vanishing combination of two eigenvalue roots.

    a and b satisfy a + 1/a = q(i), b + 1/b = q(j); their inverses are taken
    as q(i) - a and q(j) - b so the value stays inside the quotient ring.
    """
    one = a.tower.one if isinstance(a, TowerElem) else a.field.one
    ai = qi - a
    bi = qj - b
    ab1 = a * b - one
    ab1_sq = ab1 * ab1
    abi1 = a * bi - one
    abi1_sq = abi1 * abi1
    lead = ai * ai * ab1_sq * abi1_sq
    inner = lead - xi * xi * (ai * bi * ab1_sq + ai * b * abi1_sq)
    return lead * inner
