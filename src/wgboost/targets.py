"""Per-datum target log densities in unconstrained coordinates.

Each target represents an (unnormalized) posterior over the parameters of an
output distribution, given one observed response.  Boosting only ever consumes
derivatives of the log density, so every class gives them from one call,
``derivatives(theta, curvature)``, which returns the score and the requested
curvature from one computation of the family's shared parts.  ``log_grad``,
``log_hess_diag`` and ``log_hess_full`` read that call, for the public API.

All methods accept parameter arrays of shape (..., d) and broadcast.  A single
instance may carry one response (scalar ``y``) or a column of D responses, in
which case a (N, d) particle array evaluates to a (D, N, ...) result.  That is
the batching convention the boosting loop relies on.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

#: The curvatures ``derivatives`` gives beside the score: none, the log Hessian's
#: diagonal (..., d), or all of it (..., d, d).
CURVATURES = (None, "diag", "full")


class EvidentialTarget(Protocol):
    """What fitting reads of a target: its log density, and its derivatives from one call."""

    family: str

    @property
    def dim(self) -> int: ...

    @property
    def n_data(self) -> int: ...

    def log_density(self, theta: np.ndarray) -> np.ndarray: ...

    def derivatives(self, theta: np.ndarray, curvature: str | None = None) -> tuple:
        """The score (..., d) and the curvature named by ``curvature``, one of CURVATURES."""

    def take(self, idx: np.ndarray) -> "EvidentialTarget": ...


class _Derivatives:
    """The score and the curvatures one at a time, each a read of ``derivatives``."""

    def log_grad(self, theta: np.ndarray) -> np.ndarray:
        return self.derivatives(theta)[0]

    def log_hess_diag(self, theta: np.ndarray) -> np.ndarray:
        return self.derivatives(theta, "diag")[1]

    def log_hess_full(self, theta: np.ndarray) -> np.ndarray:
        return self.derivatives(theta, "full")[1]


def _check_theta(theta: np.ndarray, dim: int, curvature: str | None = None) -> np.ndarray:
    if curvature not in CURVATURES:
        raise ValueError(f"curvature must be one of {CURVATURES}, got {curvature!r}")
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


class NormalLocationScaleTarget(_Derivatives):
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

    def _parts(self, theta: np.ndarray, curvature: str | None = None):
        theta = _check_theta(theta, 2, curvature)
        m, s = theta[..., 0], theta[..., 1]
        # A log scale below about -709 overflows exp to inf (and gives r = nan
        # where y = m), and a far smaller scale than the residual overflows the
        # products and squares of r and inv_sigma taken from it.  No warning is
        # needed: the direction built from them is non-finite, which boosting._direction
        # reports, in the initializer and in boosting, as a NumericError naming the datum.
        with np.errstate(over="ignore", invalid="ignore"):
            inv_sigma = np.exp(-s)
            r = (self._ycol - m) * inv_sigma  # standardized residual
        return m, s, inv_sigma, r

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        """Unnormalized log posterior density, shape theta.shape[:-1] broadcast with y."""
        m, s, inv_sigma, r = self._parts(theta)
        # The density is bounded above, so a sum that is not finite is a density of 0, -inf:
        # a square overflowed, or e^{-s}, whose -ig_rate e^{-s} outweighs a nan r = 0 * inf.
        with np.errstate(over="ignore", invalid="ignore"):
            prior_m = -0.5 * m**2 / self.loc_scale**2
            prior_s = -(self.ig_shape + 1.0) * s - self.ig_rate * inv_sigma
            out = -0.5 * r**2 + prior_m + prior_s
        return np.where(np.isfinite(out), out, -np.inf)[()]

    def derivatives(self, theta: np.ndarray, curvature: str | None = None):
        m, s, inv_sigma, r = self._parts(theta, curvature)
        with np.errstate(over="ignore"):  # see _parts
            r2 = r**2
            score = _stack_last(r * inv_sigma - m / self.loc_scale**2,
                                r2 - (self.ig_shape + 1.0) + self.ig_rate * inv_sigma)
            if curvature is None:
                return score, None
            hm = -(inv_sigma**2) - 1.0 / self.loc_scale**2
            hs = -2.0 * r2 - self.ig_rate * inv_sigma
            if curvature == "diag":
                return score, _stack_last(hm, hs)
            cross = -2.0 * r * inv_sigma
        return score, _stack_last(_stack_last(hm, cross), _stack_last(cross, hs))


class CategoricalTarget(_Derivatives):
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

    def _softmax(self, theta: np.ndarray):
        """The softmax's parts, stably via max subtraction: the class probabilities of
        the first k-1 classes are e / z, and the log normalizer is top + log z."""
        top = np.maximum(np.max(theta, axis=-1), 0.0)
        with np.errstate(over="ignore"):  # a difference past the float range is -inf: e = 0
            e = np.exp(theta - top[..., None])
        return e, np.exp(-top) + np.sum(e, axis=-1), top

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        theta = _check_theta(theta, self.k - 1)
        _, z, top = self._softmax(theta)
        label_term = np.sum(self._onehot * theta, axis=-1)
        with np.errstate(over="ignore"):  # an overflowing square or sum is a density of 0: -inf
            prior = -0.5 * np.sum(theta**2, axis=-1) / self.prior_scale**2
            return label_term - (top + np.log(z)) + prior

    def derivatives(self, theta: np.ndarray, curvature: str | None = None):
        theta = _check_theta(theta, self.k - 1, curvature)
        e, z, _ = self._softmax(theta)
        p = e / z[..., None]
        score = self._onehot - p - theta / self.prior_scale**2
        if curvature is None:
            return score, None
        if curvature == "diag":
            return score, -p * (1.0 - p) - 1.0 / self.prior_scale**2
        out = p[..., :, None] * p[..., None, :]
        j = np.arange(self.k - 1)
        out[..., j, j] -= p + 1.0 / self.prior_scale**2
        return score, out


class GaussianTarget(_Derivatives):
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
        with np.errstate(over="ignore"):  # an overflowing square is a density of 0: -inf
            return -0.5 * np.sum((theta - self._mcol) ** 2, axis=-1) / self.var

    def derivatives(self, theta: np.ndarray, curvature: str | None = None):
        theta = _check_theta(theta, self._ndim, curvature)
        with np.errstate(over="ignore"):  # an infinite score is reported by boosting._direction
            resid = theta - self._mcol
            score = -resid / self.var
        if curvature is None:
            return score, None
        if curvature == "diag":
            return score, np.full(resid.shape, -1.0 / self.var)
        eye = np.eye(self._ndim) / self.var
        return score, np.broadcast_to(-eye, resid.shape[:-1] + eye.shape).copy()


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
