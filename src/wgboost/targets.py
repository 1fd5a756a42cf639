"""Per-datum target log densities in unconstrained coordinates.

Each target represents an (unnormalized) posterior over the parameters of an
output distribution, given one observed response.  Boosting only ever consumes
derivatives of the log density, so every class exposes the same quartet:
``log_density``, ``log_grad``, ``log_hess_diag``, ``log_hess_full``.

All methods accept parameter arrays of shape (..., d) and broadcast.  A single
instance may carry one response (scalar ``y``) or a column of D responses, in
which case a (N, d) particle array evaluates to a (D, N, ...) result.  That is
the batching convention the boosting loop relies on.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class EvidentialTarget(Protocol):
    """Duck-type contract every target class satisfies."""

    family: str

    @property
    def dim(self) -> int: ...

    @property
    def n_data(self) -> int: ...

    def log_density(self, theta: np.ndarray) -> np.ndarray: ...

    def log_grad(self, theta: np.ndarray) -> np.ndarray: ...

    def log_hess_diag(self, theta: np.ndarray) -> np.ndarray: ...

    def log_hess_full(self, theta: np.ndarray) -> np.ndarray: ...

    def take(self, idx: np.ndarray) -> "EvidentialTarget": ...


def _check_theta(theta: np.ndarray, dim: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != dim:
        raise ValueError(f"parameter array has last dimension {theta.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter array contains non-finite values")
    return theta


def _column(y: np.ndarray):
    """Scalar responses stay scalar; a length-D vector becomes a (D, 1) column.

    The column broadcasts against the particle axis of a (..., N) array, so
    the same formula serves both the per-datum and the batched case.
    """
    if y.ndim == 0:
        return y
    return y[:, None]


class NormalLocationScaleTarget:
    """Posterior over (m, s) for one real response, s = log sigma.

    The output distribution is Normal(y | m, sigma) with a Normal(0, loc_scale^2)
    prior on m and an InverseGamma(ig_shape, ig_rate) prior on sigma^2's scale
    parameter, all expressed in the unconstrained coordinates theta = (m, s).
    Up to an additive constant,

        log p(theta | y) = -(y - m)^2 e^{-2s} / 2 - m^2 / (2 loc_scale^2)
                           - (ig_shape + 1) s - ig_rate e^{-s}.
    """

    family = "normal"

    def __init__(self, y, loc_scale: float = 10.0, ig_shape: float = 0.01, ig_rate: float = 0.01):
        y = np.asarray(y, dtype=float)
        if y.ndim > 1:
            raise ValueError("y must be a scalar or a 1-d array of responses")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses contain non-finite values")
        if not (loc_scale > 0 and ig_shape > 0 and ig_rate > 0):
            raise ValueError("prior hyperparameters must be positive")
        self.y = y
        self.loc_scale = float(loc_scale)
        self.ig_shape = float(ig_shape)
        self.ig_rate = float(ig_rate)
        self._ycol = _column(y)

    @property
    def dim(self) -> int:
        return 2

    @property
    def n_data(self) -> int:
        return 1 if self.y.ndim == 0 else self.y.shape[0]

    def take(self, idx) -> "NormalLocationScaleTarget":
        return NormalLocationScaleTarget(
            np.atleast_1d(self.y)[idx], self.loc_scale, self.ig_shape, self.ig_rate
        )

    def _parts(self, theta: np.ndarray):
        theta = _check_theta(theta, 2)
        m, s = theta[..., 0], theta[..., 1]
        # A log scale below about -709 overflows exp to inf.  No warning is
        # needed: the direction built from it is non-finite, which boosting
        # reports as a NumericError naming the iteration and the datum.
        with np.errstate(over="ignore"):
            inv_sigma = np.exp(-s)
        r = (self._ycol - m) * inv_sigma  # standardized residual
        return m, s, inv_sigma, r

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        """Unnormalized log posterior density, shape theta.shape[:-1] broadcast with y."""
        m, s, inv_sigma, r = self._parts(theta)
        prior_m = -0.5 * m**2 / self.loc_scale**2
        prior_s = -(self.ig_shape + 1.0) * s - self.ig_rate * inv_sigma
        return -0.5 * r**2 + prior_m + prior_s

    def log_grad(self, theta: np.ndarray) -> np.ndarray:
        m, s, inv_sigma, r = self._parts(theta)
        gm = r * inv_sigma - m / self.loc_scale**2
        gs = r**2 - (self.ig_shape + 1.0) + self.ig_rate * inv_sigma
        return _stack_last(gm, gs)

    def log_hess_diag(self, theta: np.ndarray) -> np.ndarray:
        m, s, inv_sigma, r = self._parts(theta)
        hm = -(inv_sigma**2) - 1.0 / self.loc_scale**2
        hs = -2.0 * r**2 - self.ig_rate * inv_sigma
        return _stack_last(hm, hs)

    def log_hess_full(self, theta: np.ndarray) -> np.ndarray:
        m, s, inv_sigma, r = self._parts(theta)
        hm = -(inv_sigma**2) - 1.0 / self.loc_scale**2
        hs = -2.0 * r**2 - self.ig_rate * inv_sigma
        cross = -2.0 * r * inv_sigma
        shape = np.broadcast_shapes(hm.shape, hs.shape, cross.shape)
        out = np.empty(shape + (2, 2))
        out[..., 0, 0] = hm
        out[..., 1, 1] = hs
        out[..., 0, 1] = cross
        out[..., 1, 0] = cross
        return out


class CategoricalTarget:
    """Posterior over log-ratio coordinates for one class label out of k.

    Parameters are q in R^{k-1}, the log ratios q_j = log(p_j / p_k).  Class
    probabilities are the softmax of (q_1, ..., q_{k-1}, 0).  The prior on q is
    Normal(0, prior_scale^2 I).  Labels are integers in 1..k.
    """

    family = "categorical"

    def __init__(self, y, k: int, prior_scale: float = 10.0):
        y = np.asarray(y)
        if y.ndim > 1:
            raise ValueError("y must be a scalar label or a 1-d array of labels")
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError("class labels must be integers")
        if k < 2:
            raise ValueError(f"need at least two classes, got k={k}")
        if np.any(y < 1) or np.any(y > k):
            raise ValueError(f"labels must lie in 1..{k}")
        if not prior_scale > 0:
            raise ValueError("prior_scale must be positive")
        self.y = y
        self.k = int(k)
        self.prior_scale = float(prior_scale)
        # indicator rows [y == j] for j = 1..k-1, shaped to broadcast over particles
        ycol = _column(y)
        self._onehot = (np.expand_dims(ycol, -1) == np.arange(1, k)).astype(float)

    @property
    def dim(self) -> int:
        return self.k - 1

    @property
    def n_data(self) -> int:
        return 1 if self.y.ndim == 0 else self.y.shape[0]

    def take(self, idx) -> "CategoricalTarget":
        return CategoricalTarget(np.atleast_1d(self.y)[idx], self.k, self.prior_scale)

    def _probs(self, theta: np.ndarray) -> np.ndarray:
        """Class probabilities for the first k-1 classes, stably via max subtraction."""
        theta = _check_theta(theta, self.k - 1)
        top = np.maximum(np.max(theta, axis=-1), 0.0)
        e = np.exp(theta - top[..., None])
        z = np.exp(-top) + np.sum(e, axis=-1)
        return e / z[..., None]

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, self.k - 1)
        top = np.maximum(np.max(theta, axis=-1), 0.0)
        log_z = top + np.log(np.exp(-top) + np.sum(np.exp(theta - top[..., None]), axis=-1))
        label_term = np.sum(self._onehot * theta, axis=-1)
        prior = -0.5 * np.sum(theta**2, axis=-1) / self.prior_scale**2
        return label_term - log_z + prior

    def log_grad(self, theta: np.ndarray) -> np.ndarray:
        p = self._probs(theta)
        return self._onehot - p - theta / self.prior_scale**2

    def log_hess_diag(self, theta: np.ndarray) -> np.ndarray:
        p = self._probs(theta)
        return -p * (1.0 - p) - 1.0 / self.prior_scale**2

    def log_hess_full(self, theta: np.ndarray) -> np.ndarray:
        p = self._probs(theta)
        out = p[..., :, None] * p[..., None, :]
        j = np.arange(self.k - 1)
        out[..., j, j] -= p + 1.0 / self.prior_scale**2
        return out


class GaussianTarget:
    """Plain isotropic normal log density N(mean, var I), mostly for synthetic runs."""

    family = "gaussian"

    def __init__(self, mean, var: float, ndim: int = 1):
        mean = np.asarray(mean, dtype=float)
        if mean.ndim > 1:
            raise ValueError("mean must be a scalar or a 1-d array (one mean per datum)")
        if not var > 0:
            raise ValueError("var must be positive")
        self.mean = mean
        self.var = float(var)
        self._ndim = int(ndim)
        # per-datum means sit on the axis two left of the coordinate axis,
        # clearing the particle axis of (D, N, d) evaluations
        self._mcol = mean if mean.ndim == 0 else mean[:, None, None]

    @property
    def dim(self) -> int:
        return self._ndim

    @property
    def n_data(self) -> int:
        return 1 if self.mean.ndim == 0 else self.mean.shape[0]

    def take(self, idx) -> "GaussianTarget":
        return GaussianTarget(np.atleast_1d(self.mean)[idx], self.var, self._ndim)

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, self._ndim)
        return -0.5 * np.sum((theta - self._mcol) ** 2, axis=-1) / self.var

    def log_grad(self, theta: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, self._ndim)
        return -(theta - self._mcol) / self.var

    def log_hess_diag(self, theta: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, self._ndim)
        return np.broadcast_to(-1.0 / self.var, np.shape(theta - self._mcol)).copy()

    def log_hess_full(self, theta: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, self._ndim)
        lead = np.shape(theta - self._mcol)[:-1]
        eye = np.eye(self._ndim) / self.var
        return np.broadcast_to(-eye, lead + (self._ndim, self._ndim)).copy()


def to_simplex(q: np.ndarray) -> np.ndarray:
    """Map log-ratio coordinates (..., k-1) to the full simplex (..., k).

    The k-th class carries an implicit zero logit.  Exponentials are taken
    after subtracting the max logit, so large coordinates do not overflow.
    """
    q = np.asarray(q, dtype=float)
    pad = np.zeros(q.shape[:-1] + (1,))
    logits = np.concatenate([q, pad], axis=-1)
    logits -= np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / np.sum(e, axis=-1, keepdims=True)


def from_simplex(p: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_simplex`: log ratios against the last class."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("simplex vector must have strictly positive entries")
    return np.log(p[..., :-1]) - np.log(p[..., -1:])


def _stack_last(*components: np.ndarray) -> np.ndarray:
    """Stack broadcast-compatible arrays along a new trailing axis."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in components))
    out = np.empty(shape + (len(components),))
    for j, c in enumerate(components):
        out[..., j] = c
    return out
