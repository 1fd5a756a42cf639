"""Direction estimators against slow, loop-based oracles.

The oracles below implement the documented formulas directly with Python
loops (and a hand-rolled linear solver for the full Newton case), so any
vectorization slip in the library shows up as a mismatch.
"""

import numpy as np
import pytest

from wgboost.directions import (
    CURVATURE_FLOOR,
    DirectionKind,
    compute_direction,
    diag_newton,
    full_newton,
    hess_diag,
    langevin_direction,
    smoothed_grad,
)
from wgboost.errors import NumericError
from wgboost.kernel import KernelConfig
from wgboost.targets import CategoricalTarget, GaussianTarget, NormalLocationScaleTarget


def oracle_smoothed_grad(theta, target, h):
    n, d = theta.shape
    out = np.zeros((n, d))
    for i in range(n):
        for m in range(n):
            diff = theta[i] - theta[m]
            k = np.exp(-np.sum(diff**2) / h)
            out[i] += target.log_grad(theta[m]) * k + (2.0 / h) * diff * k
    return out / n


def oracle_hess_diag(theta, target, h):
    n, d = theta.shape
    out = np.zeros((n, d))
    for i in range(n):
        for m in range(n):
            diff = theta[i] - theta[m]
            k = np.exp(-np.sum(diff**2) / h)
            rep = (2.0 / h) * diff * k
            out[i] += -target.log_hess_diag(theta[m]) * k**2 + rep**2
    return out / n


def gauss_solve(A, b):
    """Gaussian elimination with partial pivoting, independent of np.linalg."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = A.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) == 0.0:
            raise ZeroDivisionError("singular")
        A[[col, piv]] = A[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for r in range(col + 1, n):
            f = A[r, col] / A[col, col]
            A[r, col:] -= f * A[col, col:]
            b[r] -= f * b[col]
    x = np.zeros(n)
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - A[r, r + 1:] @ x[r + 1:]) / A[r, r]
    return x


def oracle_full_newton(theta, target, h):
    n, d = theta.shape
    K = np.empty((n, n))
    R = np.empty((n, n, d))
    for i in range(n):
        for m in range(n):
            diff = theta[i] - theta[m]
            K[i, m] = np.exp(-np.sum(diff**2) / h)
            R[i, m] = (2.0 / h) * diff * K[i, m]
    H = np.zeros((n * d, n * d))
    for i in range(n):
        for j in range(n):
            block = np.zeros((d, d))
            for m in range(n):
                block += -target.log_hess_full(theta[m]) * K[i, m] * K[j, m]
                block += np.outer(R[i, m], R[j, m])
            H[i * d:(i + 1) * d, j * d:(j + 1) * d] = block / n
    g = oracle_smoothed_grad(theta, target, h).reshape(n * d)
    w = gauss_solve(H, g)
    Kb = np.kron(K, np.eye(d))
    return (Kb @ w).reshape(n, d)


def tensor_moments(theta, scores, curv, h):
    """Both kernel sums built from the (..., N, N, d) repulsion tensor R.

    This is the direct form the closed-form sums in the library replace:
    R[n, m] = (2/h)(theta^n - theta^m) K[n, m], summed (and squared) over m.
    """
    diff = theta[..., :, None, :] - theta[..., None, :, :]
    K = np.exp(-np.sum(diff**2, axis=-1) / h)
    R = (2.0 / h) * diff * K[..., None]
    n = K.shape[-1]
    grad = (np.einsum("...nm,...md->...nd", K, scores) + R.sum(axis=-2)) / n
    curvature = (np.einsum("...nm,...md->...nd", K * K, -curv) + np.sum(R * R, axis=-2)) / n
    return grad, curvature


def _equivalence_case(name):
    rng = np.random.default_rng(2024)
    if name == "collapsed":  # spread 1e-6 around 5: every K[n, m] rounds to near 1
        return 5.0 + 1e-6 * rng.normal(size=(10, 2)), NormalLocationScaleTarget(0.7)
    if name == "far-offset":  # spread 0.1 around 1e6: uncentred sums cancel catastrophically
        return 1e6 + 0.1 * rng.normal(size=(10, 2)), GaussianTarget(1e6, 0.5, ndim=2)
    if name == "1-d":
        return rng.normal(size=(10, 1)), GaussianTarget(0.3, 0.5)
    y = rng.normal(size=7)
    if name == "batched":  # one (N, d) set per target
        return rng.normal(size=(7, 10, 2)), NormalLocationScaleTarget(y)
    # the initializer's case: one shared (N, d) set against D targets
    return rng.normal(size=(10, 2)), NormalLocationScaleTarget(y)


@pytest.mark.parametrize("name", ["collapsed", "far-offset", "1-d", "batched", "shared"])
def test_closed_form_sums_match_tensor_form(name):
    theta, target = _equivalence_case(name)
    cfg = KernelConfig(0.1)
    grad, curvature = tensor_moments(
        theta, target.log_grad(theta), target.log_hess_diag(theta), cfg.scale
    )
    got_grad = smoothed_grad(theta, target, cfg)
    got_curvature = hess_diag(theta, target, cfg)
    assert got_grad.shape == got_curvature.shape == grad.shape
    np.testing.assert_allclose(got_grad, grad, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_curvature, curvature, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (5, 2)])
def test_smoothed_grad_matches_oracle(n, d):
    rng = np.random.default_rng(n * 10 + d)
    theta = rng.normal(size=(n, d))
    t = NormalLocationScaleTarget(rng.normal())
    cfg = KernelConfig(0.1)
    got = smoothed_grad(theta, t, cfg)
    want = oracle_smoothed_grad(theta, t, cfg.scale)
    assert np.allclose(got, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_hess_diag_matches_oracle(n):
    rng = np.random.default_rng(n)
    theta = rng.normal(size=(n, 2))
    t = NormalLocationScaleTarget(0.3)
    cfg = KernelConfig(0.1)
    assert np.allclose(hess_diag(theta, t, cfg), oracle_hess_diag(theta, t, cfg.scale), atol=1e-12)


def test_hess_diag_positive_for_concave_targets():
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(6, 2))
    assert np.all(hess_diag(theta, NormalLocationScaleTarget(0.5)) > 0)
    tc = CategoricalTarget(np.int64(1), 3)
    assert np.all(hess_diag(rng.normal(size=(6, 2)), tc) > 0)


def test_diag_newton_is_quotient():
    rng = np.random.default_rng(21)
    theta = rng.normal(size=(4, 2))
    t = NormalLocationScaleTarget(-0.7)
    want = smoothed_grad(theta, t) / np.maximum(hess_diag(theta, t), CURVATURE_FLOOR)
    assert np.array_equal(diag_newton(theta, t), want)


def test_single_particle_degenerates_to_raw_score():
    """With N=1 the kernel terms drop out and the row is the score, exactly."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        theta = rng.normal(size=(1, 2))
        t = NormalLocationScaleTarget(rng.normal())
        assert np.array_equal(smoothed_grad(theta, t), t.log_grad(theta))


def test_full_newton_matches_oracle():
    rng = np.random.default_rng(33)
    cfg = KernelConfig(0.1)
    for target in (NormalLocationScaleTarget(0.4), CategoricalTarget(np.int64(2), 3)):
        theta = rng.normal(scale=0.7, size=(3, 2))
        got = full_newton(theta, target, cfg)
        want = oracle_full_newton(theta, target, cfg.scale)
        assert np.allclose(got, want, atol=1e-8, rtol=1e-8)


def test_full_newton_equals_diag_newton_single_particle_1d():
    rng = np.random.default_rng(12)
    for _ in range(20):
        theta = rng.normal(size=(1, 1))
        for t in (GaussianTarget(rng.normal(), 0.5), CategoricalTarget(np.int64(1), 2)):
            a = full_newton(theta, t)
            b = diag_newton(theta, t)
            assert np.allclose(a, b, atol=1e-10, rtol=0)


class _Shifted:
    """Same density up to an additive constant: derivatives are untouched."""

    family = "shifted"

    def __init__(self, base, c):
        self._base = base
        self._c = c

    @property
    def dim(self):
        return self._base.dim

    @property
    def n_data(self):
        return self._base.n_data

    def log_density(self, theta):
        return self._base.log_density(theta) + self._c

    def derivatives(self, theta, curvature=None):
        return self._base.derivatives(theta, curvature)

    def take(self, idx):
        return _Shifted(self._base.take(idx), self._c)


def test_directions_invariant_to_density_rescaling():
    """Multiplying the density by a constant changes no direction, bit for bit."""
    rng = np.random.default_rng(77)
    theta = rng.normal(size=(5, 2))
    base = NormalLocationScaleTarget(0.9)
    shifted = _Shifted(base, 123.456)
    for kind in DirectionKind:
        a = compute_direction(kind, theta, base, rate=0.1, rng=np.random.default_rng(1))
        b = compute_direction(kind, theta, shifted, rate=0.1, rng=np.random.default_rng(1))
        assert np.array_equal(a, b)


def test_ascent_direction_single_particle():
    """At N=1 every deterministic direction has positive inner product with the score."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        theta_n = rng.normal(scale=1.5, size=(1, 2))
        tn = NormalLocationScaleTarget(rng.normal())
        for kind in (DirectionKind.FIRST_ORDER, DirectionKind.DIAG_NEWTON):
            g = compute_direction(kind, theta_n, tn)
            assert float(np.sum(g * tn.log_grad(theta_n))) > 0.0
        # the categorical curvature is positive definite, so the full Newton
        # step is ascent there as well
        tc = CategoricalTarget(int(rng.integers(1, 4)), 4)
        theta_c = rng.normal(scale=1.5, size=(1, 3))
        g = full_newton(theta_c, tc)
        assert float(np.sum(g * tc.log_grad(theta_c))) > 0.0


def test_equilibrium_smoothed_grad_vanishes():
    """Particles drawn from the target itself should feel (almost) no force.

    Integration by parts gives E[score * k + grad_2 k] = 0 when the particles
    follow the target density, so the smoothed gradient is a mean-zero average
    whose RMS shrinks like 1/sqrt(N).  This pins the sign of the repulsion
    term: with the opposite sign the rows do not vanish.
    """
    rng = np.random.default_rng(55)
    t = GaussianTarget(0.0, 1.0)
    theta = rng.normal(size=(4000, 1))
    rows = smoothed_grad(theta, t, KernelConfig(1.0))
    assert float(np.sqrt(np.mean(rows**2))) < 2.5e-2


def test_langevin_moments_and_determinism():
    rate = 0.1
    t = GaussianTarget(0.0, 1.0)
    theta = np.zeros((100_000, 1))
    g = langevin_direction(theta, t, rate, np.random.default_rng(6))
    noise = g - t.log_grad(theta)
    scale = np.sqrt(2.0 / rate)
    assert abs(float(noise.mean())) < 3 * scale / np.sqrt(noise.size)
    assert float(noise.var()) == pytest.approx(scale**2, rel=0.05)
    g2 = langevin_direction(theta, t, rate, np.random.default_rng(6))
    assert np.array_equal(g, g2)


def test_langevin_requires_rate_and_rng():
    theta = np.zeros((2, 1))
    t = GaussianTarget(0.0, 1.0)
    with pytest.raises(ValueError):
        compute_direction(DirectionKind.LANGEVIN, theta, t)
    with pytest.raises(ValueError):
        langevin_direction(theta, t, -1.0, np.random.default_rng(0))


@pytest.mark.parametrize("kind", [DirectionKind.FIRST_ORDER, DirectionKind.DIAG_NEWTON, DirectionKind.FULL_NEWTON])
def test_batched_equals_per_datum(kind):
    """A (D, N, d) call must reproduce D separate (N, d) calls."""
    rng = np.random.default_rng(14)
    y = rng.normal(size=6)
    batch = NormalLocationScaleTarget(y)
    theta = rng.normal(size=(6, 4, 2))
    got = compute_direction(kind, theta, batch)
    assert got.shape == (6, 4, 2)
    for i in range(6):
        single = NormalLocationScaleTarget(y[i])
        want = compute_direction(kind, theta[i], single)
        assert np.allclose(got[i], want, atol=1e-13, rtol=1e-13)


def test_shared_particles_broadcast_over_targets():
    """One (N, d) particle set against D targets yields (D, N, d)."""
    y = np.array([0.0, 1.0, -1.0])
    t = NormalLocationScaleTarget(y)
    theta = np.random.default_rng(1).normal(size=(4, 2))
    g = smoothed_grad(theta, t)
    assert g.shape == (3, 4, 2)
    assert np.allclose(g[1], smoothed_grad(theta, NormalLocationScaleTarget(1.0)), atol=1e-13)
    v = full_newton(theta, t)
    assert v.shape == (3, 4, 2)
    assert np.allclose(v[2], full_newton(theta, NormalLocationScaleTarget(-1.0)), atol=1e-10)


@pytest.mark.parametrize("duplicated", [False, True])
def test_full_newton_shared_particles_against_categorical_batch(duplicated):
    """The categorical Hessian has no D axis, so H is broadcast over the labels.

    Two equal particles give H two equal block rows: every datum's solve then
    fails, and each is retried on its own with a ridge.
    """
    labels = np.array([1, 3, 2, 3])
    theta = np.random.default_rng(5).normal(size=(4, 2))
    if duplicated:
        theta[3] = theta[1]
    v = full_newton(theta, CategoricalTarget(labels, 3))
    assert v.shape == (4, 4, 2)
    for i, label in enumerate(labels):
        want = full_newton(theta, CategoricalTarget(np.int64(label), 3))
        np.testing.assert_allclose(v[i], want, rtol=1e-12, atol=1e-14)


class _FlatTarget:
    """Constant gradient, zero curvature: the smoothed Hessian is singular."""

    family = "flat"
    dim = 1
    n_data = 1

    def log_density(self, theta):
        return np.sum(theta, axis=-1)

    def derivatives(self, theta, curvature=None):
        flat = {None: None, "diag": np.zeros_like(theta),
                "full": np.zeros(np.shape(theta)[:-1] + (1, 1))}
        return np.ones_like(theta), flat[curvature]

    def take(self, idx):
        return self


def test_full_newton_singular_hessian_raises():
    with pytest.raises(NumericError, match="singular"):
        full_newton(np.zeros((1, 1)), _FlatTarget())


def test_full_newton_non_finite_hessian_is_named_before_any_ridge():
    """exp(-s) overflows for datum 1: its H holds inf, and no ridge can mend that."""
    theta = np.array([[[0.0, 0.0]], [[0.0, -800.0]]])
    with pytest.raises(NumericError, match="^smoothed Hessian is not finite for datum 1$") as err:
        full_newton(theta, NormalLocationScaleTarget(np.array([0.5, 0.5])))
    assert err.value.datum == 1


def test_diag_newton_floor_engages_on_flat_curvature():
    g = diag_newton(np.zeros((1, 1)), _FlatTarget())
    assert g[0, 0] == pytest.approx(1.0 / CURVATURE_FLOOR)


def test_rejects_bad_particles():
    t = GaussianTarget(0.0, 1.0)
    with pytest.raises(ValueError):
        smoothed_grad(np.zeros(3), t)
    with pytest.raises(ValueError):
        smoothed_grad(np.array([[np.nan]]), t)


def test_compute_direction_accepts_string_kind():
    theta = np.random.default_rng(0).normal(size=(3, 2))
    t = NormalLocationScaleTarget(0.0)
    assert np.array_equal(
        compute_direction("diag-newton", theta, t), diag_newton(theta, t)
    )
    with pytest.raises(ValueError):
        compute_direction("steepest", theta, t)


class _Counting:
    """Passes every call on to ``base`` and records the curvature of each derivatives call."""

    def __init__(self, base):
        self._base, self.calls = base, []
        self.family, self.dim, self.n_data = base.family, base.dim, base.n_data

    def log_density(self, theta):
        return self._base.log_density(theta)

    def derivatives(self, theta, curvature=None):
        self.calls.append(curvature)
        return self._base.derivatives(theta, curvature)

    def take(self, idx):
        return _Counting(self._base.take(idx))


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("kind", list(DirectionKind))
def test_each_direction_makes_one_derivatives_call(kind, batched):
    """One (N, d) set shared by D data, as in the initializer, or a (D, N, d) batch: one
    call, for exactly the curvature the kind reads."""
    curvature = {DirectionKind.DIAG_NEWTON: "diag", DirectionKind.FULL_NEWTON: "full"}.get(kind)
    rng = np.random.default_rng(4)
    target = _Counting(NormalLocationScaleTarget(rng.normal(size=3)))
    theta = rng.normal(size=(3, 4, 2) if batched else (4, 2))
    compute_direction(kind, theta, target, rate=0.1, rng=rng)
    assert target.calls == [curvature]


def _mixed_and_per_row(kind, target, theta):
    """One shared set's direction on the basis rows mixed into the data's, and on every row;
    Langevin draws from two generators of one seed."""
    rows, mix = target.basis()
    mixed = compute_direction(kind, theta, target.take(rows), rate=0.1,
                              rng=np.random.default_rng(5), mix=mix)
    per_row = compute_direction(kind, theta, target, rate=0.1, rng=np.random.default_rng(5))
    return mixed, per_row


@pytest.mark.parametrize("kind", list(DirectionKind))
def test_mixed_categorical_direction_is_the_per_row_one(kind):
    rng = np.random.default_rng(12)
    target = CategoricalTarget(rng.integers(1, 4, 40), 3)
    mixed, per_row = _mixed_and_per_row(kind, target, rng.normal(size=(5, 2)))
    assert mixed.shape == (40, 5, 2) and np.array_equal(mixed, per_row)


@pytest.mark.parametrize("kind", list(DirectionKind))
def test_mixed_normal_direction_is_the_per_row_one_to_round_off(kind):
    """Over 200 seeds the worst error, relative to the largest entry, was 5.4e-16
    (first-order, Langevin), 2.0e-13 (diag-newton) and 4.4e-11 (full-newton, whose
    solves amplify the round-off of its mixed Hessian blocks)."""
    rng = np.random.default_rng(13)
    target = NormalLocationScaleTarget(rng.standard_normal(40))
    mixed, per_row = _mixed_and_per_row(kind, target, 0.5 * rng.normal(size=(4, 2)))
    assert mixed.shape == (40, 4, 2)
    tol = 1e-9 if kind is DirectionKind.FULL_NEWTON else 1e-12
    assert np.max(np.abs(mixed - per_row)) <= tol * np.max(np.abs(per_row))


def test_mix_needs_one_shared_set_and_a_column_per_target_row():
    target = NormalLocationScaleTarget(np.zeros(3))
    with pytest.raises(ValueError, match="mix must be"):
        smoothed_grad(np.zeros((4, 2)), target, mix=np.ones((5, 2)))
    with pytest.raises(ValueError, match="mix must be"):
        diag_newton(np.zeros((3, 4, 2)), target, mix=np.ones((5, 3)))
