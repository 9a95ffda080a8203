"""Benchmark the compiled arithmetic kernels against the pure-Python fallback.

Times single field multiplications, and elimination of seeded rank-deficient
families over Q(zeta_16) through linalg.Echelon and linalg.Tracker with the
number of field inversions it makes.  Whether the compiled backend earns its
place is decided on the end-to-end benchmark (benchsuite/run.py), not here.

Run:  python benchmarks/bench_kernels.py
"""

import random
import time

from heckeclifford import _pykernels, kernels, linalg
from heckeclifford.scalars import CycField

try:
    from heckeclifford import _ckernels
except ImportError:
    _ckernels = None


def rand_raw(rng, m, impl):
    return impl.felem_normalize(
        [rng.randint(-99, 99) for _ in range(m)], rng.randint(1, 40)
    )


def bench_mul(impl, field, n=20000, seed=5):
    rng = random.Random(seed)
    elems = [rand_raw(rng, field.degree, impl) for _ in range(64)]
    t0 = time.perf_counter()
    acc = elems[0]
    for k in range(n):
        acc = impl.felem_mul(elems[k % 64], elems[(k * 7 + 3) % 64], field.red)
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


def main():
    backends = [("python", _pykernels)]
    if _ckernels is not None:
        backends.append(("cython", _ckernels))
    for l in (2, 5):
        field = CycField.for_l(l)
        print(f"-- field degree {field.degree} (l = {l})")
        base = None
        for name, impl in backends:
            tm = bench_mul(impl, field)
            base = base or tm
            print(f"  {name:7s} mul x20000: {tm:7.3f}s ({base / tm:4.2f}x)")
    if _ckernels is None:
        print("compiled backend unavailable; only the fallback was timed")
    field = CycField.for_l(4)
    tm, calls = bench_eliminate(field)
    print(f"-- elimination over Q(zeta_16), {kernels.BACKEND} backend")
    print(f"  32 families x Echelon + Tracker: {tm:7.3f}s, {calls} raw_inverse calls")


if __name__ == "__main__":
    main()
