"""Metrics over predicted particle sets.

Regression metrics treat the N particles at a test point as a uniform mixture
of Normal(y | m^n, exp(s^n)) components over the standardized response; the
de-standardization identities NLL_raw = NLL_std + log y_std and
RMSE_raw = y_std * RMSE_std convert back to raw units.  Classification
metrics average the simplex vectors of the particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import gram
from .targets import to_simplex

_LOG_2PI = float(np.log(2.0 * np.pi))
_ERFC = np.frompyfunc(math.erfc, 1, 1)

#: Smallest allowed response standard deviation and class-probability variance.
STD_FLOOR = 1e-8
VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class Standardization:
    """Affine response map y -> (y - y_mean) / y_std, with y_std floored."""

    y_mean: float = 0.0
    y_std: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_mean", float(self.y_mean))
        object.__setattr__(self, "y_std", float(max(self.y_std, STD_FLOOR)))

    @classmethod
    def from_responses(cls, y: np.ndarray) -> "Standardization":
        y = np.asarray(y, dtype=float)
        return cls(float(np.mean(y)), float(np.std(y)))

    def standardize(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_std

    def destandardize(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.y_std + self.y_mean


def _mixture_logpdf(particles: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Log density of the N-component normal mixture at standardized z.

    particles has shape (..., N, 2) holding (m, log sigma); z broadcasts
    against the leading dims.
    """
    m = particles[..., 0]
    s = particles[..., 1]
    resid = (z[..., None] - m) * np.exp(-s)
    with np.errstate(over="ignore"):  # a residual too large to square has density 0: comp -inf
        comp = -0.5 * _LOG_2PI - s - 0.5 * resid**2
    return _logsumexp(comp) - np.log(particles.shape[-2])


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, step for step as scipy.special.logsumexp.

    With the m maxima left out of the shifted sum s, it is log1p(s / m) +
    log(m) + max; where that is not finite (a row of -inf, an inf, a nan) it
    is log(sum(exp(a))), so a row of -inf gives -inf.
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1)
        out = np.log1p(s / m) + np.log(m) + a_max[..., 0]
        return np.where(np.isfinite(out), out, np.log(np.sum(np.exp(a), axis=-1)))


def predictive_nll_normal(
    particles: np.ndarray, y: np.ndarray, standardization: Standardization = Standardization()
) -> float:
    """Mean negative log predictive density of raw responses y.

    particles: (T, N, 2) per-point particle sets in standardized coordinates.
    """
    particles = np.asarray(particles, dtype=float)
    z = standardization.standardize(y)
    ll = _mixture_logpdf(particles, z)
    return float(np.mean(-ll) + np.log(standardization.y_std))


def point_predictions(particles: np.ndarray, standardization: Standardization = Standardization()) -> np.ndarray:
    """Mean of the particle locations, de-standardized: the point forecast."""
    particles = np.asarray(particles, dtype=float)
    return standardization.destandardize(np.mean(particles[..., 0], axis=-1))


def point_predict_rmse(
    particles: np.ndarray, y: np.ndarray, standardization: Standardization = Standardization()
) -> float:
    """RMSE of the point forecast against raw responses y."""
    particles = np.asarray(particles, dtype=float)
    z = standardization.standardize(y)
    pred = np.mean(particles[..., 0], axis=-1)
    return float(standardization.y_std * np.sqrt(np.mean((z - pred) ** 2)))


def predictive_interval_normal(
    particles: np.ndarray, standardization: Standardization = Standardization(), level: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Central predictive interval of the mixture, in raw units.

    Returns (lo, hi) arrays of shape (T,).  Both quantiles of all T rows are
    found by one bisection of the mixture CDF, which is monotone, inside a
    bracket wide enough to contain all the component mass; it ends when no
    midpoint lies strictly inside its bracket.
    """
    particles = np.asarray(particles, dtype=float)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    alpha = 0.5 * (1.0 - level)
    m = particles[..., 0]
    sd = np.exp(particles[..., 1])
    target = np.array([alpha, 1.0 - alpha])  # row 0 of the brackets is the lower quantile's
    lo = np.array([np.min(m - 9.0 * sd, axis=-1)] * 2)
    hi = np.array([np.max(m + 9.0 * sd, axis=-1)] * 2)
    while True:
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
        if not active.any():
            break
        q, row = np.nonzero(active)
        z = (mid[active][:, None] - m[row]) / sd[row]
        below = np.mean(0.5 * _ERFC(z / -math.sqrt(2.0)).astype(float), axis=-1) < target[q]
        lo[active] = np.where(below, mid[active], lo[active])
        hi[active] = np.where(below, hi[active], mid[active])
    return standardization.destandardize(mid[0]), standardization.destandardize(mid[1])


def predictive_class_probs(particles: np.ndarray, k: int) -> np.ndarray:
    """Mean simplex vector of the particles: (..., N, k-1) -> (..., k)."""
    particles = np.asarray(particles, dtype=float)
    if particles.shape[-1] != k - 1:
        raise ValueError(f"expected {k - 1} log-ratio coordinates, got {particles.shape[-1]}")
    return np.mean(to_simplex(particles), axis=-2)


def predicted_class(particles: np.ndarray, k: int) -> np.ndarray:
    """Most probable class label in 1..k (ties go to the lowest label)."""
    probs = predictive_class_probs(particles, k)
    return np.argmax(probs, axis=-1) + 1


def classification_accuracy(particles: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of test points whose most probable class matches the label."""
    labels = np.asarray(labels)
    return float(np.mean(predicted_class(particles, k) == labels))


def predictive_nll_categorical(particles: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean negative log predictive probability of the true labels (1..k)."""
    probs = predictive_class_probs(particles, k)
    labels = np.asarray(labels)
    picked = probs[np.arange(probs.shape[0]), labels - 1]
    with np.errstate(divide="ignore"):  # a true class of probability 0 scores inf
        return float(np.mean(-np.log(picked)))


def ood_score(particles: np.ndarray, k: int) -> np.ndarray:
    """Inverse of the largest per-class variance of the particle simplex vectors.

    Higher means the particles agree (in-distribution); an exactly agreeing
    set scores 1 / VAR_FLOOR.  Accepts (N, k-1) or a batch (T, N, k-1).
    """
    particles = np.asarray(particles, dtype=float)
    probs = to_simplex(particles)
    var = np.var(probs, axis=-2)
    out = 1.0 / np.maximum(np.max(var, axis=-1), VAR_FLOOR)
    return float(out) if out.ndim == 0 else out


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve by stepwise summation.

    Thresholds sweep the scores in descending order; rows with tied scores
    enter at a single threshold.  AUC = sum_i (R_i - R_{i-1}) P_i.  labels
    are truthy for positives; both classes must be present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise ValueError("PR-AUC needs at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = labels[order]
    # last index of every tied group
    ends = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    tp = np.cumsum(y_sorted)[ends]
    predicted_pos = ends + 1.0
    precision = tp / predicted_pos
    recall = tp / n_pos
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


@dataclass(frozen=True)
class NormalRef:
    """A 1-d normal reference distribution for closed-form MMD."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not self.sd > 0:
            raise ValueError("sd must be positive")


def mmd_squared(a: np.ndarray, b, scale: float = 0.025) -> float:
    """Squared maximum mean discrepancy under the Gaussian kernel (V-statistic).

    ``b`` is either a second particle set or a :class:`NormalRef`, in which
    case the cross and reference terms use the Gaussian convolution identities

        E_{t ~ N(mu, s^2)} k(x, t) = sqrt(h / (h + 2 s^2)) exp(-(x - mu)^2 / (h + 2 s^2))
        E k(t, t')               = sqrt(h / (h + 4 s^2))

    Self-pairs are included, so mmd_squared(a, a) is exactly 0 up to round-off.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not scale > 0:
        raise ValueError("scale must be positive")
    e_aa = float(np.mean(gram(a, a, scale)))
    if isinstance(b, NormalRef):
        if a.shape[1] != 1:
            raise ValueError("closed-form MMD against a normal needs 1-d particles")
        s2 = b.sd**2
        cross = np.sqrt(scale / (scale + 2 * s2)) * np.exp(
            -((a[:, 0] - b.mean) ** 2) / (scale + 2 * s2)
        )
        e_ab = float(np.mean(cross))
        e_bb = float(np.sqrt(scale / (scale + 4 * s2)))
    else:
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1] != b.shape[1]:
            raise ValueError("particle sets disagree in dimension")
        e_ab = float(np.mean(gram(a, b, scale)))
        e_bb = float(np.mean(gram(b, b, scale)))
    return e_aa - 2.0 * e_ab + e_bb
