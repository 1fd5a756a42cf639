"""Synthetic sin-curve benchmarks for comparing direction estimators.

Training inputs are a grid on [-3.5, 3.5]; the target at x is the 1-d normal
N(sin x, 0.5).  These drivers exist so the comparison is reproducible from
the command line and from tests without any dataset files.
"""

from __future__ import annotations

import time

import numpy as np

from . import boosting
from .boosting import BoostConfig
from .directions import DirectionKind
from .evaluate import NormalRef, mmd_squared
from .kernel import KernelConfig
from .targets import GaussianTarget
from .tree import TreeParams

SIN_NOISE_VAR = 0.5


def sin_grid(n: int, low: float = -3.5, high: float = 3.5) -> np.ndarray:
    """Grid inputs as an (n, 1) feature matrix."""
    return np.linspace(low, high, n)[:, None]


def sin_targets(X: np.ndarray) -> GaussianTarget:
    return GaussianTarget(np.sin(X[:, 0]), SIN_NOISE_VAR)


def mean_sin_mmd(preds: np.ndarray, X_eval: np.ndarray, mmd_scale: float) -> float:
    """Mean over eval inputs of MMD(particles at x, N(sin x, 0.5)); preds is (T, N, 1)."""
    sd = float(np.sqrt(SIN_NOISE_VAR))
    vals = [
        np.sqrt(max(mmd_squared(preds[i], NormalRef(float(np.sin(x)), sd), mmd_scale), 0.0))
        for i, x in enumerate(X_eval[:, 0])
    ]
    return float(np.mean(vals))


def run_direction_bench(
    iterations: int = 100,
    checkpoints: tuple[int, ...] = (0, 10, 25, 50, 100),
    n_train: int = 200,
    n_eval: int = 500,
    n_particles: int = 10,
    max_depth: int = 3,
    learning_rate: float = 0.1,
    kernel_scale: float = 0.1,
    mmd_scale: float = 0.025,
    seed: int = 0,
) -> list[dict]:
    """Fit one model per direction kind and report MMD/time at checkpoints.

    All kinds share the training grid and start from the same particle set:
    10 constants spread over [-10, 10].  Wall-clock covers training only
    (per-iteration timestamps; the MMD evaluation happens afterwards).
    Returns one dict per (kind, checkpoint) with keys direction,
    weak_learners, mean_mmd, wall_clock_s.
    """
    checkpoints = tuple(sorted(set(checkpoints) | {0, iterations}))
    if any(c < 0 or c > iterations for c in checkpoints):
        raise ValueError(f"checkpoints must lie in [0, {iterations}]")
    X = sin_grid(n_train)
    X_eval = sin_grid(n_eval)
    targets = sin_targets(X)
    init = np.linspace(-10.0, 10.0, n_particles)[:, None]

    rows = []
    for kind in DirectionKind:
        cfg = BoostConfig(
            n_particles=n_particles,
            max_iterations=iterations,
            learning_rate=learning_rate,
            direction=kind,
            kernel=KernelConfig(kernel_scale),
            tree=TreeParams(max_depth=max_depth),
            seed=seed,
        )
        stamps = [time.perf_counter()]
        model = boosting.fit(
            X, targets, cfg, init=init, on_iteration=lambda trees: stamps.append(time.perf_counter())
        )
        for m, preds in enumerate(model.staged_predict(X_eval)):
            if m in checkpoints:
                rows.append(
                    {
                        "direction": kind.value,
                        "weak_learners": m,
                        "mean_mmd": mean_sin_mmd(preds, X_eval, mmd_scale),
                        "wall_clock_s": stamps[m] - stamps[0],
                    }
                )
    return rows


def run_toy_sin(
    learners: int = 100,
    grid_points: int = 10,
    n_particles: int = 10,
    max_depth: int = 1,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> list[dict]:
    """Small plot-ready run: particle values per grid input plus the true band.

    band_lo/band_hi bound the central 95% of the true output distribution,
    sin(x) +- 1.96 sqrt(0.5).
    """
    X = sin_grid(grid_points)
    targets = sin_targets(X)
    cfg = BoostConfig(
        n_particles=n_particles,
        max_iterations=learners,
        learning_rate=learning_rate,
        tree=TreeParams(max_depth=max_depth),
        seed=seed,
    )
    model = boosting.fit(X, targets, cfg)
    preds = model.predict(X)  # (grid, N, 1)
    half_width = 1.96 * float(np.sqrt(SIN_NOISE_VAR))
    rows = []
    for i, x in enumerate(X[:, 0]):
        row = {"x": float(x)}
        for n in range(n_particles):
            row[f"particle_{n + 1}"] = float(preds[i, n, 0])
        row["band_lo"] = float(np.sin(x)) - half_width
        row["band_hi"] = float(np.sin(x)) + half_width
        rows.append(row)
    return rows
