"""The two arithmetic backends must agree operation by operation."""

import random

import pytest

from heckeclifford import _pykernels
from heckeclifford.scalars import CycField

try:
    from heckeclifford import _ckernels
except ImportError:  # pragma: no cover
    _ckernels = None


def _rand_raw(rng, m):
    nums = [rng.randint(-50, 50) for _ in range(m)]
    return _pykernels.felem_normalize(nums, rng.randint(1, 30))


@pytest.mark.skipif(_ckernels is None, reason="compiled backend not built")
def test_backends_agree():
    rng = random.Random(99)
    for l in (2, 4, 6):
        field = CycField.for_l(l)
        m = field.degree
        red = field.red
        for _ in range(200):
            a = _rand_raw(rng, m)
            b = _rand_raw(rng, m)
            c = _rand_raw(rng, m)
            assert _pykernels.felem_add(a, b) == _ckernels.felem_add(a, b)
            assert _pykernels.felem_sub(a, b) == _ckernels.felem_sub(a, b)
            assert _pykernels.felem_neg(a) == _ckernels.felem_neg(a)
            assert _pykernels.felem_mul(a, b, red) == _ckernels.felem_mul(a, b, red)
            assert _pykernels.felem_submul(a, b, c, red) == _ckernels.felem_submul(
                a, b, c, red
            )
            assert _pykernels.felem_is_zero(a) == _ckernels.felem_is_zero(a)
            p, q = rng.randint(-9, 9), rng.randint(1, 9)
            assert _pykernels.felem_scale(a, p, q) == _ckernels.felem_scale(a, p, q)


def test_normalize_canonical_forms():
    for impl in [k for k in (_pykernels, _ckernels) if k is not None]:
        assert impl.felem_normalize([0, 0], 7) == ((0, 0), 1)
        assert impl.felem_normalize([2, 4], -2) == ((-1, -2), 1)
        assert impl.felem_normalize([3, 6], 12) == ((1, 2), 4)
        # a negative norm reaches felem_scale as a negative denominator
        a = ((3, -6, 0, 9), 4)
        assert impl.felem_scale(a, 2, -9) == impl.felem_scale(a, -2, 9)
        assert impl.felem_scale(a, 2, -9) == ((-1, 2, 0, -3), 6)


def test_selected_backend_exposed():
    from heckeclifford import kernels

    assert kernels.BACKEND in ("python", "cython")
