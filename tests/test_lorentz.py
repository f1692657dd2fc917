import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxsurf.lorentz import minkowski_inner

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_inner_examples():
    assert minkowski_inner([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert minkowski_inner([0.0, 1.0], [0.0, 1.0]) == -1.0
    # 9 + 16 - 25 = 0: lightlike
    assert minkowski_inner([3.0, 4.0, 5.0], [3.0, 4.0, 5.0]) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        minkowski_inner([1.0, 0.0], [1.0, 0.0, 0.0])


@given(st.lists(finite, min_size=2, max_size=3), st.integers(0, 2**32 - 1))
def test_inner_symmetric_bilinear(a, seed):
    rng = np.random.default_rng(seed)
    a = np.array(a)
    b = rng.normal(size=a.shape)
    c = rng.normal(size=a.shape)
    lam = rng.normal()
    assert minkowski_inner(a, b) == pytest.approx(minkowski_inner(b, a), abs=1e-9, rel=1e-12)
    lhs = minkowski_inner(a, lam * b + c)
    rhs = lam * minkowski_inner(a, b) + minkowski_inner(a, c)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-6 * (1 + abs(rhs)))

