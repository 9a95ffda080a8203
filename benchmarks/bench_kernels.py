"""Benchmark the compiled arithmetic kernels against the pure-Python fallback.

Times single field multiplications.  Whether the compiled backend earns its
place is decided on the end-to-end benchmark (benchsuite/run.py), not here.

Run:  python benchmarks/bench_kernels.py
"""

import random
import time

from heckeclifford import _pykernels
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


if __name__ == "__main__":
    main()
