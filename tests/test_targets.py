import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wgboost.targets import (
    CURVATURES,
    CategoricalTarget,
    GaussianTarget,
    NormalLocationScaleTarget,
    from_simplex,
    to_simplex,
)


def fd_grad(f, theta, step=1e-6):
    """Central-difference gradient of a scalar function of theta."""
    out = np.empty_like(theta)
    for j in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        out[j] = (f(hi) - f(lo)) / (2 * step)
    return out


def fd_hess(grad, theta, step=1e-6):
    """Central-difference Jacobian of a vector function of theta."""
    d = theta.size
    out = np.empty((d, d))
    for j in range(d):
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        out[:, j] = (grad(hi) - grad(lo)) / (2 * step)
    return out


# ---------------------------------------------------------------- normal


def test_normal_frozen_values():
    # Worked by hand: y=0, theta=(0, 0) gives r=0, so the m-gradient is 0 and
    # the s-gradient is 0 - 1.01 + 0.01 = -1.0.  The Hessian diagonal is
    # (-1 - 0.01, -0 - 0.01) and the cross term -2 r e^{-s} vanishes.
    t = NormalLocationScaleTarget(0.0)
    theta = np.array([0.0, 0.0])
    assert np.allclose(t.log_grad(theta), [0.0, -1.0], atol=1e-14)
    assert np.allclose(t.log_hess_diag(theta), [-1.01, -0.01], atol=1e-14)
    full = t.log_hess_full(theta)
    assert full[0, 1] == 0.0 and full[1, 0] == 0.0
    # y=1 at the same point: r=1, gradient (1, 1 - 1.01 + 0.01) = (1, 0),
    # log density -0.5 - 0 - 0 - 0.01.
    t1 = NormalLocationScaleTarget(1.0)
    assert np.allclose(t1.log_grad(theta), [1.0, 0.0], atol=1e-14)
    assert t1.log_density(theta) == pytest.approx(-0.51, rel=1e-12)
    assert t1.log_hess_full(theta)[0, 1] == pytest.approx(-2.0, rel=1e-12)


def test_normal_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(25):
        y = rng.normal()
        t = NormalLocationScaleTarget(y)
        theta = rng.normal(scale=0.8, size=2)
        num_g = fd_grad(lambda th: float(t.log_density(th)), theta)
        assert np.allclose(t.log_grad(theta), num_g, rtol=1e-5, atol=1e-7)
        num_h = fd_hess(lambda th: t.log_grad(th), theta)
        assert np.allclose(t.log_hess_full(theta), num_h, rtol=1e-5, atol=1e-6)
        assert np.allclose(t.log_hess_diag(theta), np.diagonal(num_h), rtol=1e-5, atol=1e-6)


def test_normal_batched_equals_per_datum():
    rng = np.random.default_rng(5)
    y = rng.normal(size=4)
    theta = rng.normal(size=(3, 2))
    batch = NormalLocationScaleTarget(y)
    got = batch.log_grad(theta)
    assert got.shape == (4, 3, 2)
    for i in range(4):
        single = NormalLocationScaleTarget(y[i])
        assert np.array_equal(got[i], single.log_grad(theta))
    assert batch.log_hess_full(theta).shape == (4, 3, 2, 2)


def test_normal_take():
    t = NormalLocationScaleTarget(np.array([1.0, 2.0, 3.0]))
    sub = t.take(np.array([2, 0]))
    assert np.array_equal(sub.y, [3.0, 1.0])
    assert sub.n_data == 2


def test_normal_validation():
    with pytest.raises(ValueError):
        NormalLocationScaleTarget(np.array([[1.0]]))
    with pytest.raises(ValueError):
        NormalLocationScaleTarget(np.nan)
    with pytest.raises(ValueError):
        NormalLocationScaleTarget(0.0, loc_scale=-1.0)
    t = NormalLocationScaleTarget(0.0)
    with pytest.raises(ValueError):
        t.log_grad(np.zeros(3))
    with pytest.raises(ValueError):
        t.log_grad(np.array([np.inf, 0.0]))


# ----------------------------------------------------------- categorical


def test_categorical_frozen_values():
    # k=2, q'=(0): both classes get probability 1/2.  Observing class 1 gives
    # gradient 1 - 1/2 - 0 = 1/2, class 2 gives -1/2.  The Hessian diagonal is
    # -p(1-p) - 1/100 = -0.26.
    theta = np.array([0.0])
    t1 = CategoricalTarget(np.int64(1), 2)
    t2 = CategoricalTarget(np.int64(2), 2)
    assert t1.log_grad(theta)[0] == pytest.approx(0.5, rel=1e-14)
    assert t2.log_grad(theta)[0] == pytest.approx(-0.5, rel=1e-14)
    assert t1.log_hess_diag(theta)[0] == pytest.approx(-0.26, rel=1e-14)


def test_categorical_derivatives_match_finite_differences():
    rng = np.random.default_rng(9)
    for k in (2, 3, 5):
        for _ in range(10):
            y = rng.integers(1, k + 1)
            t = CategoricalTarget(y, k)
            theta = rng.normal(scale=1.5, size=k - 1)
            num_g = fd_grad(lambda th: float(t.log_density(th)), theta)
            assert np.allclose(t.log_grad(theta), num_g, rtol=1e-5, atol=1e-7)
            num_h = fd_hess(lambda th: t.log_grad(th), theta)
            assert np.allclose(t.log_hess_full(theta), num_h, rtol=1e-5, atol=1e-6)
            assert np.allclose(t.log_hess_diag(theta), np.diagonal(num_h), rtol=1e-5, atol=1e-6)


def test_categorical_stability_at_large_logits():
    t = CategoricalTarget(np.int64(1), 3)
    for theta in ([800.0, 0.0], [-800.0, -900.0], [500.0, 500.0]):
        g = t.log_grad(np.array(theta))
        assert np.all(np.isfinite(g))
        assert np.all(np.isfinite(t.log_density(np.array(theta))))


def test_categorical_validation():
    with pytest.raises(ValueError, match="integers"):
        CategoricalTarget(np.array([1.0]), 2)
    with pytest.raises(ValueError, match="two classes"):
        CategoricalTarget(np.array([1]), 1)
    with pytest.raises(ValueError, match="1..3"):
        CategoricalTarget(np.array([0]), 3)
    with pytest.raises(ValueError, match="1..3"):
        CategoricalTarget(np.array([4]), 3)


def test_categorical_batched_equals_per_datum():
    rng = np.random.default_rng(2)
    y = rng.integers(1, 4, size=5)
    t = CategoricalTarget(y, 3)
    theta = rng.normal(size=(2, 2))
    got = t.log_grad(theta)
    assert got.shape == (5, 2, 2)
    for i in range(5):
        assert np.array_equal(got[i], CategoricalTarget(y[i], 3).log_grad(theta))


# -------------------------------------------------------------- gaussian


def test_gaussian_target_basics():
    t = GaussianTarget(2.0, 0.5)
    theta = np.array([3.0])
    assert t.log_grad(theta)[0] == pytest.approx(-2.0)
    assert t.log_hess_diag(theta)[0] == pytest.approx(-2.0)
    assert t.log_hess_full(theta)[0, 0] == pytest.approx(-2.0)
    # batched means broadcast over a particle axis
    tb = GaussianTarget(np.array([0.0, 1.0]), 1.0)
    g = tb.log_grad(np.zeros((4, 1)))
    assert g.shape == (2, 4, 1)
    assert np.allclose(g[1], 1.0)


# --------------------------------------------------------------- simplex


def test_simplex_round_trip():
    rng = np.random.default_rng(17)
    for k in (2, 3, 7):
        q = rng.uniform(-20, 20, size=(40, k - 1))
        p = to_simplex(q)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(p > 0)
        back = from_simplex(p)
        assert np.max(np.abs(back - q)) <= 1e-10


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=6))
def test_simplex_round_trip_hypothesis(qs):
    q = np.array(qs)
    back = from_simplex(to_simplex(q))
    assert np.max(np.abs(back - q)) <= 1e-9


def test_to_simplex_extreme_logits():
    p = to_simplex(np.array([750.0, -750.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)


def test_from_simplex_rejects_zeros():
    with pytest.raises(ValueError):
        from_simplex(np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    "target, theta",
    [
        (NormalLocationScaleTarget(1.0), [0.0, -400.0]),
        (NormalLocationScaleTarget(1.0), [1e200, 0.0]),
        (CategoricalTarget(np.int64(1), 3), [1e200, 0.0]),
        (GaussianTarget(0.0, 1.0), [1e200]),
    ],
)
def test_log_density_is_minus_inf_without_a_warning_where_a_square_overflows(target, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert target.log_density(np.array(theta)) == -np.inf


@pytest.mark.parametrize(
    "target",
    [NormalLocationScaleTarget(0.3), CategoricalTarget(np.int64(2), 3), GaussianTarget(0.0, 1.0, 2)],
)
def test_derivatives_give_each_curvature_and_reject_any_other(target):
    theta = np.full((4, 2), 0.25)
    score, curv = target.derivatives(theta)
    assert curv is None and np.array_equal(score, target.log_grad(theta))
    assert np.array_equal(target.derivatives(theta, "diag")[1], target.log_hess_diag(theta))
    assert target.derivatives(theta, "full")[1].shape == (4, 2, 2)
    with pytest.raises(ValueError, match="curvature must be one of"):
        target.derivatives(theta, "fisher")



#: Any finite float, with the ends of the float range and a log scale whose
#: e^{-s} overflows drawn often.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1.7e308, -1.7e308, -800.0, 0.0])


def _particles(d):
    """Particle arrays (N, d) of finite values."""
    return st.lists(st.lists(_FINITE, min_size=d, max_size=d), min_size=1, max_size=3)


def _assert_total(target, theta):
    """log_density is finite or -inf, never nan; no call warns."""
    theta = np.array(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = target.log_density(theta)
        for curvature in CURVATURES:
            target.derivatives(theta, curvature)  # may be non-finite: boosting reports that
    assert np.all(np.isfinite(value) | (value == -np.inf)), value


@given(st.lists(_FINITE, min_size=1, max_size=3), _particles(2))
@example([0.0], [[0.0, -800.0], [0.0, -1.7e308]])  # r = 0 * inf gave nan
def test_normal_target_is_total(y, theta):
    _assert_total(NormalLocationScaleTarget(np.array(y)), theta)


@given(st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(1, k), min_size=1, max_size=3), _particles(k - 1))))
@example((3, [1, 2], [[1.7e308, -1.7e308]]))  # theta - max(theta) overflowed in _softmax
def test_categorical_target_is_total(case):
    k, labels, theta = case
    _assert_total(CategoricalTarget(np.array(labels), k), theta)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(_FINITE, min_size=1, max_size=3), st.floats(1e-3, 1e3), st.just(d), _particles(d))))
@example(([0.0], 0.5, 1, [[1.7e308]]))  # the score overflowed in a division
def test_gaussian_target_is_total(case):
    mean, var, ndim, theta = case
    _assert_total(GaussianTarget(np.array(mean), var, ndim), theta)
