"""Benchmark the arithmetic kernels and what runs on them.

Times single field multiplications in both regimes the workloads show: dense
random elements, as elimination grows them, and monomials times two-term
elements, the most common operands of module arithmetic.  Also times
elimination of seeded rank-deficient families over Q(zeta_16) through
linalg.Echelon and linalg.Tracker with the number of field inversions it
makes.  Whether a change to the kernels earns its place is decided on the
end-to-end benchmark (benchsuite/run.py), not here.

Also times the two engines behind formal_character, the exact split over the
field and the mod-p split with its certificate, on every module that
relation_suites(l) characterises at l = 3 and 5, grouped by tower rank (the
rank-4 modules occur at l = 5; at l = 3 only one discriminant is nonzero).

Run:  python benchmarks/bench_kernels.py
"""

import random
import time

from heckeclifford import kernels, linalg, supermodules
from heckeclifford.scalars import CycField, q_of


def rand_raw(rng, m):
    return kernels.felem_normalize(
        [rng.randint(-99, 99) for _ in range(m)], rng.randint(1, 40)
    )


def sparse_raw(rng, m, terms):
    nums = [0] * m
    for k in rng.sample(range(m), terms):
        nums[k] = rng.choice((-2, -1, 1, 2))
    return (tuple(nums), 1)


def bench_mul(field, n=20000, seed=5, terms=None):
    """Seconds for n products: of dense elements, or with terms given, of
    monomials times elements with that many nonzero coefficients."""
    rng = random.Random(seed)
    m = field.degree
    if terms is None:
        left = right = [rand_raw(rng, m) for _ in range(64)]
    else:
        left = [sparse_raw(rng, m, 1) for _ in range(64)]
        right = [sparse_raw(rng, m, terms) for _ in range(64)]
    t0 = time.perf_counter()
    for k in range(n):
        kernels.felem_mul(left[k % 64], right[(k * 7 + 3) % 64], field.red)
    return time.perf_counter() - t0


def rank_deficient_family(rng, field, coords=12, rank=6, extra=3):
    """rank + extra vectors in field^coords, each a combination of 3 of rank generators."""

    def small():
        nums = [0] * field.degree
        for k in rng.sample(range(field.degree), 5):
            nums[k] = rng.choice((-3, -2, -1, 1, 2, 3))
        return field.elem(nums).raw

    gens = [{k: small() for k in rng.sample(range(coords), 5)} for _ in range(rank)]
    vectors = []
    for _ in range(rank + extra):
        acc = {}
        for g in rng.sample(gens, 3):
            linalg.vec_add_into(acc, linalg.vec_scale(g, small(), field.red))
        vectors.append(acc)
    return vectors


def bench_eliminate(field, families=32, seed=7):
    """Seconds and raw_inverse calls to insert every family into an Echelon and a Tracker."""
    rng = random.Random(seed)
    fams = [rank_deficient_family(rng, field) for _ in range(families)]
    calls = 0
    inverse = field.raw_inverse

    def counted(raw):
        nonlocal calls
        calls += 1
        return inverse(raw)

    field.raw_inverse = counted
    try:
        t0 = time.perf_counter()
        for vectors in fams:
            ech, tracker = linalg.Echelon(field), linalg.Tracker(field)
            for t, v in enumerate(vectors):
                ech.insert(v)
                tracker.insert(v, t)
        return time.perf_counter() - t0, calls
    finally:
        del field.raw_inverse


def suite_modules(l):
    """The modules whose characters relation_suites(l) computes, in call order."""
    modules = []
    original = supermodules.formal_character

    def record(M):
        modules.append(M)
        return original(M)

    supermodules.formal_character = record
    try:
        supermodules.relation_suites(l)
    finally:
        supermodules.formal_character = original
    return modules


def bench_characters(modules):
    """Seconds of each engine over the modules, operator matrices included.

    Also returns how many modules the mod-p split declined; formal_character
    would send those to the exact engine as well.
    """

    def exact(M, ops):
        qs = [q_of(M.model.l, i).raw for i in range(M.model.l)]
        return supermodules._word_dims(M, M.tower, qs, ops)[0]

    engines = {"exact": exact, "mod-p": supermodules._certified_word_dims}
    out = {}
    declined = 0
    for name, engine in engines.items():
        t0 = time.perf_counter()
        for M in modules:
            ops = {k: supermodules._op_x_plus_xinv(M, k) for k in range(1, M.n + 1)}
            declined += engine(M, ops) is None
        out[name] = time.perf_counter() - t0
    return out, declined


def main():
    print(f"-- {kernels.BACKEND} backend")
    for l, terms in ((2, None), (5, None), (3, 2)):
        field = CycField.for_l(l)
        kind = "dense" if terms is None else f"monomial x {terms}-term"
        print(f"-- field degree {field.degree} (l = {l}), {kind}")
        print(f"  mul x20000: {bench_mul(field, terms=terms):7.3f}s")
    field = CycField.for_l(4)
    tm, calls = bench_eliminate(field)
    print("-- elimination over Q(zeta_16)")
    print(f"  32 families x Echelon + Tracker: {tm:7.3f}s, {calls} raw_inverse calls")
    for l in (3, 5):
        modules = suite_modules(l)
        for rank in sorted({M.rank for M in modules}):
            group = [M for M in modules if M.rank == rank]
            times, declined = bench_characters(group)
            kdim = max(M.k_dim() for M in group)
            print(
                f"-- formal_character engines, l = {l}, tower rank {rank}: "
                f"{len(group)} modules, K-dimension up to {kdim}, "
                f"{declined} declined mod p"
            )
            for name, tm in times.items():
                print(f"  {name:7s} {tm:7.3f}s ({times['exact'] / tm:4.2f}x)")


if __name__ == "__main__":
    main()
