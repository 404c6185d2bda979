import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinkbound.kernel import as_vector, lift, spacetime_wedge, wedge_norm


def test_wedge_orthonormal_pair():
    assert wedge_norm([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_wedge_parallel_is_zero():
    assert wedge_norm([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.0, abs=1e-12)


def test_wedge_matches_2x2_determinant():
    assert wedge_norm([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)


def test_spacetime_wedge_examples():
    assert spacetime_wedge([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.sqrt(3.0), rel=1e-14)
    assert spacetime_wedge([0.7, -0.2], [0.7, -0.2]) == 0.0
    assert spacetime_wedge([2.0], [-1.0]) == pytest.approx(3.0, rel=1e-15)


def test_lift():
    np.testing.assert_array_equal(lift([0.0, 0.0]), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(lift([3.0]), [1.0, 3.0])
    np.testing.assert_array_equal(lift([1.0, 2.0, 3.0]), [1.0, 1.0, 2.0, 3.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        wedge_norm([1.0, 0.0], [1.0, 0.0, 0.0])


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.lists(finite, min_size=n, max_size=n),
                        st.lists(finite, min_size=n, max_size=n))))
def test_wedge_symmetric_nonnegative(pair):
    u, u2 = pair
    w = wedge_norm(u, u2)
    assert w >= 0.0
    assert w == wedge_norm(u2, u)


@given(st.lists(finite, min_size=1, max_size=5),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_wedge_zero_for_scaled_copy(u, c):
    # Each 2x2 minor of a parallel pair is rounding noise of order
    # eps * |u||u2|; the bound leaves wide room above that.
    u = np.asarray(u)
    scale = float(np.linalg.norm(u) * np.linalg.norm(c * u))
    assert wedge_norm(u, c * u) <= 1e-7 * max(scale, 1.0)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]))
def test_spacetime_wedge_identity(seed, n):
    """st-wedge of (v, v2) agrees with the wedge of the lifted vectors."""
    rng = np.random.default_rng(seed)
    v, v2 = rng.normal(0, 3, size=(2, n))
    direct = spacetime_wedge(v, v2)
    lifted = wedge_norm(lift(v), lift(v2))
    assert direct == pytest.approx(lifted, rel=1e-12, abs=1e-12)
    # and with the explicit geometric content
    dv2 = float(np.dot(v2 - v, v2 - v))
    w2 = wedge_norm(v, v2) ** 2
    assert direct**2 == pytest.approx(dv2 + w2, rel=1e-12, abs=1e-12)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_wedge_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    u, u2 = rng.normal(0, 2, size=(2, n))
    # random special-orthogonal matrix via QR
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    before = wedge_norm(u, u2)
    after = wedge_norm(q @ u, q @ u2)
    assert after == pytest.approx(before, rel=1e-10, abs=1e-10)


def test_as_vector_coerces_and_rejects_matrices():
    v = as_vector([1, 2])
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
