"""Exact sparse linear algebra over a field object: Q(zeta_4l) or F_p.

Vectors are dicts {index: raw}, matrices are column-major lists of such dicts,
where raw is the field's element format: the kernel-level one of Q(zeta_4l)
(scalars.CycField) or an int residue (modp.PrimeField).  Vector arithmetic is
the field's own: CycField's scale, add_into, submul_into and mat_vec are the
loops kernels.compile_field generates for it, PrimeField's are int loops.
What remains here of Q(zeta_4l) is mat_vec, the one entry point through
which CycField applies a matrix by its generated loop; linalg never reads a
raw element itself.

A Tracker is an Echelon that also tracks each row as a combination of the
inserted vectors; both run one elimination loop, _eliminate, over pivot rows
stored without their unit pivot entry, through the field's pivot,
raw_inverse, scale, submul_into, neg and one_raw.  The field picks each new
pivot: CycField the cheapest entry, so normalizing spreads no large norm
denominator, PrimeField the smallest index; no result depends on the pivot
columns.
"""

from __future__ import annotations


def mat_vec(cols, v, loop):
    """A @ v for column-major A, by the field's generated loop.

    A module function of its own so that benchsuite's tracer, which spans
    linalg.mat_vec by name, times every matrix application over Q(zeta_4l).
    """
    return loop(cols, v)


def _eliminate(field, pivots, v, combo=None):
    """Reduce v in place against every pivot row, and combo alongside it.

    pivots maps each pivot index p to (row, cmb), in insertion order: row is
    the pivot row without its unit entry at p, cmb its combination of the
    inserted vectors (None where combinations are not tracked).  Each row is
    zero at the earlier rows' pivots, so one pass in order clears them all.
    Returns v: empty when it reduced to zero, else the residual.
    """
    for p, (row, cmb) in pivots.items():
        if not v:
            break
        c = v.pop(p, None)
        if c is not None:
            field.submul_into(v, row, c)
            if combo is not None:
                field.submul_into(combo, cmb, c)
    return v


def _add_pivot(field, pivots, v, combo=None):
    """Store the nonzero residual v (consumed) as a new pivot row.

    The pivot is the entry field.pivot chooses; the row is scaled so that its
    entry there is 1, and stored without it.
    """
    p = field.pivot(v)
    inv = field.raw_inverse(v.pop(p))
    cmb = None if combo is None else field.scale(combo, inv)
    pivots[p] = (field.scale(v, inv), cmb)


class Echelon:
    """Echelon basis of sparse vectors; supports membership and rank."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    @property
    def dim(self):
        return len(self.pivots)

    def insert(self, v):
        """Add v to the span; True if the rank grew."""
        v = _eliminate(self.field, self.pivots, dict(v))
        if not v:
            return False
        _add_pivot(self.field, self.pivots, v)
        return True

    def contains(self, v):
        return not _eliminate(self.field, self.pivots, dict(v))


class Tracker(Echelon):
    """An Echelon that tracks combinations; dim and contains are inherited.

    Every stored row knows its expression as a combination of the inserted
    vectors (by tag).  Inserting a dependent vector returns the dependency
    {tag: coeff} with the new vector's own tag carrying coefficient 1; an
    independent insert returns None.  tags lists the independent inserts.
    """

    def __init__(self, field):
        super().__init__(field)
        self.tags = []

    def insert(self, v, tag):
        combo = {tag: self.field.one_raw}
        v = _eliminate(self.field, self.pivots, dict(v), combo)
        if not v:
            return combo
        _add_pivot(self.field, self.pivots, v, combo)
        self.tags.append(tag)
        return None

    def express(self, v):
        """Coordinates of v over the inserted vectors, or None if outside.

        Does not modify the basis.  Returns {tag: coeff} with v = sum of
        coeff * vector(tag).
        """
        combo = {}
        if _eliminate(self.field, self.pivots, dict(v), combo):
            return None
        return {k: self.field.neg(c) for k, c in combo.items()}


def rank_of(field, vectors):
    e = Echelon(field)
    return sum(e.insert(v) for v in vectors)


def nullspace_combinations(field, tagged_vectors):
    """Basis of the dependency space of the given (tag, vector) pairs.

    Returns a list of {tag: coeff} combinations that sum to zero; each has
    some tag with a unit coefficient.
    """
    t = Tracker(field)
    deps = (t.insert(v, tag) for tag, v in tagged_vectors)
    return [dep for dep in deps if dep is not None]
