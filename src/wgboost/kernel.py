"""Gaussian kernel on particle space.

k(a, b) = exp(-||a - b||^2 / h) with a single positive bandwidth h.  The
boosting directions default to h = 0.1; the MMD diagnostic uses h = 0.025.
Both are configurable.  ``gram`` gives the kernel matrix of two point sets,
which the kernel-smoothed direction estimators and the MMD read.

``gaussian``, ``kernel_eval`` and ``kernel_grad`` are public API for the
kernel at single pairs: nothing in the package calls them but each other,
``wgboost`` exports ``kernel_eval`` and ``kernel_grad``, and the tests take
them as the reference that ``gram`` must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth of the Gaussian kernel (the h in exp(-||a-b||^2 / h))."""

    scale: float = 0.1

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"kernel scale must be a positive finite number, got {self.scale}")


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"kernel arguments disagree in dimension: {a.shape[-1]} vs {b.shape[-1]}")
    return a, b


def gaussian(diff: np.ndarray, scale: float) -> np.ndarray:
    """exp(-||diff||^2 / scale) over the last axis of an array of differences a - b."""
    return np.exp(-np.sum(diff**2, axis=-1) / scale)


def gram(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """Kernel matrix K[..., n, m] = exp(-||a^n - b^m||^2 / scale) of sets (..., N, d), (..., M, d).

    The squared distances are summed one coordinate at a time, left to right as
    ``gaussian`` sums them for d < 8, so no (..., N, M, d) difference tensor is
    built.
    """
    sq = None
    with np.errstate(over="ignore"):  # a distance past the float range gives K its limit, 0
        for k in range(a.shape[-1]):
            dk = a[..., :, None, k] - b[..., None, :, k]
            dk *= dk
            if sq is None:
                sq = dk
            else:
                sq += dk
    return np.exp(-sq / scale)


def kernel_eval(a: np.ndarray, b: np.ndarray, cfg: KernelConfig = KernelConfig()) -> np.ndarray:
    """Evaluate k(a, b).  Inputs are (..., d) arrays; broadcasting applies."""
    a, b = _check_pair(a, b)
    return gaussian(a - b, cfg.scale)


def kernel_grad(a: np.ndarray, b: np.ndarray, cfg: KernelConfig = KernelConfig()) -> np.ndarray:
    """Gradient of k with respect to its first argument, shape (..., d).

    d/da exp(-||a-b||^2 / h) = (-2/h) (a - b) k(a, b).
    """
    a, b = _check_pair(a, b)
    diff = a - b
    return (-2.0 / cfg.scale) * diff * gaussian(diff, cfg.scale)[..., None]
