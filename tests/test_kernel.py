import numpy as np
import pytest
from hypothesis import given, strategies as st

from wgboost.kernel import KernelConfig, gram, kernel_eval, kernel_grad

# Frozen oracle values, worked by hand for h = 0.1:
#   k([0.1], [0.0]) = exp(-0.01 / 0.1) = exp(-0.1)
#   d/da k = (-2 / 0.1) * 0.1 * exp(-0.1) = -2 exp(-0.1)
EXPECTED_K = 0.9048374180359595
EXPECTED_G = -1.809674836071919


def test_frozen_values():
    cfg = KernelConfig(0.1)
    assert kernel_eval(np.array([0.1]), np.array([0.0]), cfg) == pytest.approx(EXPECTED_K, rel=1e-14)
    g = kernel_grad(np.array([0.1]), np.array([0.0]), cfg)
    assert g.shape == (1,)
    assert g[0] == pytest.approx(EXPECTED_G, rel=1e-14)


def test_same_point_is_one():
    a = np.array([1.5, -2.0, 0.25])
    assert kernel_eval(a, a) == 1.0
    assert np.all(kernel_grad(a, a) == 0.0)


def _central_diff(f, a, step=1e-6):
    out = np.empty_like(a)
    for j in range(a.size):
        hi = a.copy()
        lo = a.copy()
        hi[j] += step
        lo[j] -= step
        out[j] = (f(hi) - f(lo)) / (2 * step)
    return out


def test_grad_matches_finite_differences():
    """kernel_grad agrees with a central difference to 1e-6 relative."""
    rng = np.random.default_rng(11)
    for d in (1, 2, 5):
        cfg = KernelConfig(0.1 if d < 5 else 1.3)
        for _ in range(20):
            a = rng.normal(scale=0.3, size=d)
            b = rng.normal(scale=0.3, size=d)
            num = _central_diff(lambda x: kernel_eval(x, b, cfg), a)
            ana = kernel_grad(a, b, cfg)
            assert np.allclose(ana, num, rtol=1e-6, atol=1e-9)


def test_symmetry_and_antisymmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 2))
    b = rng.normal(size=(50, 2))
    assert np.array_equal(kernel_eval(a, b), kernel_eval(b, a))
    assert np.array_equal(kernel_grad(a, b), -kernel_grad(b, a))


def test_broadcasting_shapes():
    a = np.zeros((4, 1, 3))
    b = np.zeros((5, 3))
    assert kernel_eval(a, b).shape == (4, 5)
    assert kernel_grad(a, b).shape == (4, 5, 3)


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("lead", [(), (3,)])
def test_gram_equals_elementwise_kernel(d, lead):
    """gram sums coordinates left to right as kernel_eval does below d = 8: equal bits.

    From d = 8 on, numpy sums pairwise, and exp turns a sum's last-bit change
    into a relative change of about the exponent times 1e-16; the exponents
    here stay below about 10, so rtol 1e-14 measures the summation order alone.
    """
    rng = np.random.default_rng(d)
    a = rng.normal(scale=0.5, size=lead + (6, d))
    b = rng.normal(scale=0.5, size=lead + (5, d))
    want = kernel_eval(a[..., :, None, :], b[..., None, :, :], KernelConfig(2.0))
    got = gram(a, b, 2.0)
    assert got.shape == lead + (6, 5)
    if d < 8:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_values_in_unit_interval():
    rng = np.random.default_rng(7)
    k = kernel_eval(rng.normal(size=(100, 4)), rng.normal(size=(100, 4)))
    assert np.all(k > 0) and np.all(k <= 1)


@given(
    st.floats(-5, 5), st.floats(-5, 5),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_scalar_identity(x, y, h):
    cfg = KernelConfig(h)
    k = kernel_eval(np.array([x]), np.array([y]), cfg)
    assert k == pytest.approx(np.exp(-((x - y) ** 2) / h), rel=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension"):
        kernel_eval(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_config_rejects_bad_scale(bad):
    with pytest.raises(ValueError):
        KernelConfig(bad)
