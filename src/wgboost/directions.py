"""Kernel-smoothed update directions for particle sets.

Given a particle set {theta^1..theta^N} approximating a target density mu, the
estimators here return an N x d matrix whose row n is the update direction for
particle n.  All of them point in ascent of log mu (the boosting loop applies
them as F + nu * f, no negation anywhere):

- ``smoothed_grad``: the kernel-smoothed score.  Row n averages, over
  reference particles theta^m, the score at theta^m weighted by
  k(theta^n, theta^m), plus the kernel gradient in the reference argument.
  The second term, R[n, m] = (2/h)(theta^n - theta^m) k, pushes particles
  apart; it is what keeps the set spread over mu instead of collapsing onto
  the mode.
- ``hess_diag`` / ``diag_newton``: a diagonal smoothed curvature estimate and
  the coordinate-wise Newton step smoothed_grad / hess_diag.
- ``full_newton``: the exact Newton analogue.  It assembles the full
  (N d) x (N d) smoothed Hessian H and returns K applied to the N rows of
  H^{-1} g.
- ``langevin_direction``: score plus sqrt(2 / rate) Gaussian noise, so that
  F + rate * f performs an unadjusted Langevin step.

Every estimator accepts particles of shape (N, d) or a batch (D, N, d) with a
matching batch of targets, and consumes only derivatives of the target log
density, each from one ``target.derivatives`` call (rescaling the density
leaves all outputs bit-identical).

With ``mix``, a (D, U) matrix, one shared (N, d) set is evaluated against the
U basis targets that ``target`` holds (see ``targets.basis``), and the result
has D rows, row d as if for a target whose derivatives are sum_u mix[d, u]
times those of target u.  Each estimator does its kernel sums on the U rows
and applies ``mix`` to its linear parts before its nonlinear last step: the
smoothed gradient (first-order), the smoothed gradient and curvature before
their ratio (diag-newton), the smoothed gradient and Hessian blocks before the
D solves (full-newton), and the score before the per-row noise (Langevin, whose
draws do not change).

Every estimator but Langevin reads the Gaussian Gram matrix K[n, m] =
k(theta^n, theta^m) of each particle set from ``kernel.gram``.

Cost.  The score and curvature sums are matrix products, K @ scores and
(K * K) @ (-curv), and the repulsion enters only through its sums over m,
which have closed forms (as in the reference SVGD code of Liu & Wang, 2016):

    sum_m R[n, m]   = (2/h)   (c^n rowsum_n K - (K c)^n),
    sum_m R[n, m]^2 = (4/h^2) ((c^n)^2 rowsum_n K^2 - 2 c^n (K^2 c)^n + (K^2 c^2)^n),

elementwise in the d coordinates.  Here c is theta centred on its mean over
the N particles.  Both sums are unchanged when all particles shift together,
so centring is exact; without it, a set sitting far from 0 loses the second
sum to cancellation (at offset 1e6 and spread 0.1 it came out 3% off).
``full_newton`` is the one estimator that still forms the repulsion tensor R,
for its Hessian blocks.  All of the above is per row of the batch.  For the
initializer's one shared set, ``mix`` leaves U rows of it (three for the
normal family, one per label for the categorical) and adds one (D, U) by
(U, N d) product per mixed array; only the last step touches all D rows.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import NumericError
from .kernel import KernelConfig, gram
from .targets import EvidentialTarget

#: Smallest curvature allowed in the diagonal Newton denominator.
CURVATURE_FLOOR = 1e-6

#: Relative ridge added to the full smoothed Hessian on a failed solve.
RIDGE_SCALE = 1e-6


class DirectionKind(str, Enum):
    FIRST_ORDER = "first-order"
    DIAG_NEWTON = "diag-newton"
    FULL_NEWTON = "full-newton"
    LANGEVIN = "langevin"


def _check_particles(particles: np.ndarray, target: EvidentialTarget,
                     mix: np.ndarray | None) -> np.ndarray:
    p = np.asarray(particles, dtype=float)
    if p.ndim < 2:
        raise ValueError(f"particles must have shape (..., N, d), got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("particles contain non-finite values")
    if mix is not None and (p.ndim != 2 or np.ndim(mix) != 2
                            or np.shape(mix)[1] != target.n_data):
        raise ValueError(f"mix must be a (D, {target.n_data}) matrix over the target's rows, "
                         f"for one (N, d) particle set; got {np.shape(mix)} and {p.shape}")
    return p


def _kernel_terms(particles: np.ndarray, target: EvidentialTarget, h: float,
                  mix: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked particles theta, their Gram matrix K and theta centred on its mean over N.

    The repulsion sums are unchanged when all particles shift together, so
    they read the centred c.
    """
    theta = _check_particles(particles, target, mix)
    return theta, gram(theta, theta, h), theta - theta.mean(axis=-2, keepdims=True)


def _mix(mix: np.ndarray | None, rows: np.ndarray, ndim: int) -> np.ndarray:
    """``mix`` (D, U) applied to the leading axis of ``rows`` (U, ...): the (D, ...) rows of
    the data.  ``rows`` of only ``ndim`` dimensions lack that axis (a curvature that does
    not depend on the response) and, like any ``rows`` when ``mix`` is None, stay as they
    are."""
    if mix is None or rows.ndim == ndim:
        return rows
    with np.errstate(over="ignore", invalid="ignore"):  # boosting._direction names the row
        return (mix @ rows.reshape(rows.shape[0], -1)).reshape(mix.shape[:1] + rows.shape[1:])


def _smoothed_gradient(K: np.ndarray, c: np.ndarray, scores: np.ndarray, h: float) -> np.ndarray:
    """Rows (1/N) sum_m [ scores^m K[n, m] + R[n, m] ]: the smoothed gradient.

    sum_m R[n, m] = (2/h) (c^n rowsum_n K - (K c)^n) for the centred particles c.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # boosting._direction names the row
        repulsion = (2.0 / h) * (c * K.sum(axis=-1, keepdims=True) - K @ c)
        return (K @ scores + repulsion) / K.shape[-1]


def _smoothed_curvature(K: np.ndarray, c: np.ndarray, curv: np.ndarray, h: float) -> np.ndarray:
    """Rows (1/N) sum_m [ -curv^m K[n, m]^2 + R[n, m]^2 ]: the smoothed diagonal curvature.

    sum_m R[n, m]^2 = (4/h^2) ((c^n)^2 rowsum_n K^2 - 2 c^n (K^2 c)^n + (K^2 c^2)^n),
    elementwise in the d coordinates, for the centred particles c.
    """
    K2 = K * K
    with np.errstate(invalid="ignore", over="ignore"):  # boosting._direction names the row
        c2 = c * c
        repulsion = c2 * K2.sum(axis=-1, keepdims=True) - 2.0 * c * (K2 @ c) + K2 @ c2
        repulsion *= 4.0 / (h * h)
        return (K2 @ -curv + repulsion) / K.shape[-1]


def smoothed_grad(
    particles: np.ndarray,
    target: EvidentialTarget,
    kernel: KernelConfig = KernelConfig(),
    mix: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel-smoothed score of the target, one row per particle.

    Row n is (1/N) sum_m [ score(theta^m) k(theta^n, theta^m)
    + (2/h)(theta^n - theta^m) k(theta^n, theta^m) ].  With a single particle
    the kernel terms vanish and the row equals the raw score exactly.
    """
    theta, K, c = _kernel_terms(particles, target, kernel.scale, mix)
    return _mix(mix, _smoothed_gradient(K, c, target.derivatives(theta)[0], kernel.scale), 2)


def hess_diag(
    particles: np.ndarray,
    target: EvidentialTarget,
    kernel: KernelConfig = KernelConfig(),
) -> np.ndarray:
    """Diagonal kernel-smoothed curvature, strictly positive for concave scores.

    Row n is (1/N) sum_m [ -curv(theta^m) k(theta^n, theta^m)^2
    + ((2/h)(theta^n - theta^m) k)^2 ], elementwise in the d coordinates, for
    curv the diagonal of the log Hessian.
    """
    theta, K, c = _kernel_terms(particles, target, kernel.scale, None)
    return _smoothed_curvature(K, c, target.derivatives(theta, "diag")[1], kernel.scale)


def diag_newton(
    particles: np.ndarray,
    target: EvidentialTarget,
    kernel: KernelConfig = KernelConfig(),
    mix: np.ndarray | None = None,
) -> np.ndarray:
    """Coordinate-wise Newton direction smoothed_grad / max(hess_diag, floor)."""
    theta, K, c = _kernel_terms(particles, target, kernel.scale, mix)
    score, curv = target.derivatives(theta, "diag")
    g = _mix(mix, _smoothed_gradient(K, c, score, kernel.scale), 2)
    h = _mix(mix, _smoothed_curvature(K, c, curv, kernel.scale), 2)
    with np.errstate(invalid="ignore"):  # inf / inf: boosting._direction names the row
        return np.divide(g, np.maximum(h, CURVATURE_FLOOR, out=h), out=g)


def full_newton(
    particles: np.ndarray,
    target: EvidentialTarget,
    kernel: KernelConfig = KernelConfig(),
    mix: np.ndarray | None = None,
) -> np.ndarray:
    """Full smoothed-Newton direction K H^{-1} g, reshaped to rows.

    H is the (N d) x (N d) block matrix with blocks

        H[n, k] = (1/N) sum_m [ -hess(theta^m) K[n, m] K[k, m]
                                + R[n, m] R[k, m]^T ],

    for the full log Hessian hess, and g the stacked smoothed_grad rows; row n
    of the result is sum_k K[n, k] W^k for the N rows W^k of H^{-1} g.  A
    failed solve is retried once with a ridge of RIDGE_SCALE * mean |diag H|; a
    non-finite H or a second failure raises NumericError naming the datum.
    """
    theta, K, c = _kernel_terms(particles, target, kernel.scale, mix)
    n, d = theta.shape[-2], theta.shape[-1]

    score, hess = target.derivatives(theta, "full")
    g = _mix(mix, _smoothed_gradient(K, c, score, kernel.scale), 2)
    diff = theta[..., :, None, :] - theta[..., None, :, :]
    R = (2.0 / kernel.scale) * diff * K[..., None]  # R[n, m] of each pair, for the blocks below

    blocks = np.einsum("...nm,...km,...mij->...nkij", K, K, -hess)
    blocks += np.einsum("...nmi,...kmj->...nkij", R, R)
    blocks /= n
    blocks = _mix(mix, blocks, 4)
    # a categorical Hessian does not depend on the label, so it may lack the D axis of g
    lead = np.broadcast_shapes(blocks.shape[:-4], g.shape[:-2])
    H = np.broadcast_to(blocks, lead + blocks.shape[-4:])
    H = np.swapaxes(H, -3, -2).reshape(lead + (n * d, n * d))
    g_flat = np.broadcast_to(g, lead + (n, d)).reshape(lead + (n * d, 1))

    W = _solve_with_ridge(H, g_flat)
    return K @ W.reshape(lead + (n, d))


def _solve_with_ridge(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve H W = g batched, retrying each failed datum once with a ridge unless its H is not finite."""
    try:
        W = np.linalg.solve(H, g)
        if np.all(np.isfinite(W)):
            return W
    except np.linalg.LinAlgError:
        pass
    # at least one datum failed: retry them one by one so the error can name it
    flat_H = H.reshape((-1,) + H.shape[-2:]).copy()
    flat_g = g.reshape((-1,) + g.shape[-2:])
    out = np.empty_like(flat_g)
    size = H.shape[-1]
    for i in range(flat_H.shape[0]):
        try:
            w = np.linalg.solve(flat_H[i], flat_g[i])
            if np.all(np.isfinite(w)):
                out[i] = w
                continue
        except np.linalg.LinAlgError:
            pass
        if not np.all(np.isfinite(flat_H[i])):
            raise NumericError(f"smoothed Hessian is not finite for datum {i}", datum=i)
        ridge = RIDGE_SCALE * np.mean(np.abs(np.diagonal(flat_H[i])))
        flat_H[i][np.diag_indices(size)] += ridge
        try:
            w = np.linalg.solve(flat_H[i], flat_g[i])
        except np.linalg.LinAlgError:
            w = np.full_like(flat_g[i], np.nan)
        if not np.all(np.isfinite(w)):
            raise NumericError(
                f"smoothed Hessian is singular for datum {i} even after ridge {ridge:g}", datum=i
            )
        out[i] = w
    return out.reshape(g.shape)


def langevin_direction(
    particles: np.ndarray,
    target: EvidentialTarget,
    rate: float,
    rng: np.random.Generator,
    mix: np.ndarray | None = None,
) -> np.ndarray:
    """Score plus sqrt(2 / rate) i.i.d. standard normal noise per entry.

    Applying the result as theta + rate * direction performs one unadjusted
    Langevin step theta + rate * score + sqrt(2 * rate) * xi.
    """
    theta = _check_particles(particles, target, mix)
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    scores = _mix(mix, target.derivatives(theta)[0], 2)
    return scores + np.sqrt(2.0 / rate) * rng.standard_normal(scores.shape)


def compute_direction(
    kind: DirectionKind,
    particles: np.ndarray,
    target: EvidentialTarget,
    kernel: KernelConfig = KernelConfig(),
    *,
    rate: float | None = None,
    rng: np.random.Generator | None = None,
    mix: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch on DirectionKind.  Langevin needs ``rate`` and ``rng``.  ``mix``
    maps the target's rows to the D rows of the result (see the module docstring)."""
    kind = DirectionKind(kind)
    if kind is DirectionKind.FIRST_ORDER:
        return smoothed_grad(particles, target, kernel, mix)
    if kind is DirectionKind.DIAG_NEWTON:
        return diag_newton(particles, target, kernel, mix)
    if kind is DirectionKind.FULL_NEWTON:
        return full_newton(particles, target, kernel, mix)
    if rate is None or rng is None:
        raise ValueError("langevin direction needs a rate and a random generator")
    return langevin_direction(particles, target, rate, rng, mix)
