"""Correctness checks on the program's outputs, computed apart from wgboost.

Nothing here imports wgboost: the checks read the CSV and JSON files the
program wrote with the standard library and recompute every figure they
compare against with their own formulas.  Each check raises ``CheckError``
with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

#: Relative agreement required between two computations of one number.
ROUND_OFF = 1e-9


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV, skipping blank and ``#`` lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    return rows[0], rows[1:]


def read_columns(path: str, names: list[str]) -> np.ndarray:
    header, rows = read_csv(path)
    idx = [header.index(n) for n in names]
    return np.array([[float(r[i]) for i in idx] for r in rows])


def read_metric(path: str, column: str) -> float:
    header, rows = read_csv(path)
    require(len(rows) == 1, f"{path}: expected one metrics row, got {len(rows)}")
    return float(rows[0][header.index(column)])


def agree(a: float, b: float, what: str) -> None:
    require(
        abs(a - b) <= ROUND_OFF * max(1.0, abs(a), abs(b)),
        f"{what}: {a!r} and {b!r} differ by more than round-off",
    )


def _logmeanexp(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=-1, keepdims=True)
    return top[..., 0] + np.log(np.mean(np.exp(a - top), axis=-1))


def mixture_nll(particles: np.ndarray, y: np.ndarray, y_train: np.ndarray) -> float:
    """Mean NLL of raw y under each row's equal-weight normal mixture.

    particles is (T, N, 2) holding (location, log scale) in the coordinates
    standardized by the training responses' mean and population sd.
    """
    mu, sd = float(np.mean(y_train)), float(np.std(y_train))
    loc = mu + sd * particles[..., 0]
    log_scale = math.log(sd) + particles[..., 1]
    z = (y[:, None] - loc) * np.exp(-log_scale)
    comp = -0.5 * LOG_2PI - log_scale - 0.5 * z * z
    return float(-np.mean(_logmeanexp(comp)))


def gaussian_nll(y: np.ndarray, mean, sd) -> float:
    z = (y - mean) / sd
    return float(np.mean(0.5 * LOG_2PI + np.log(sd) + 0.5 * z * z))


def particle_columns(path: str) -> np.ndarray:
    """Particle columns of a ``wgboost predict`` CSV as (T, N, d)."""
    header, rows = read_csv(path)
    cols = [c for c in header if c.startswith("particle_")]
    n = max(int(c.split("_")[1]) for c in cols)
    d = max(int(c.split("_")[2]) for c in cols) + 1
    idx = [header.index(f"particle_{i + 1}_{c}") for i in range(n) for c in range(d)]
    return np.array([[float(r[j]) for j in idx] for r in rows]).reshape(len(rows), n, d)


def check_regression(
    particles: np.ndarray,
    y_test: np.ndarray,
    y_train: np.ndarray,
    evaluate_nll: float,
    oracle_nll: float,
    log_rows: int,
    iterations: int,
) -> float:
    """Checks on a regression fit; returns the recomputed test NLL."""
    require(bool(np.all(np.isfinite(particles))), "predicted particles are not all finite")
    require(particles.shape[0] == y_test.shape[0], "predict wrote the wrong number of rows")
    nll = mixture_nll(particles, y_test, y_train)
    agree(nll, evaluate_nll, "test NLL from particles vs evaluate")
    baseline = gaussian_nll(y_test, np.mean(y_train), np.std(y_train))
    require(
        oracle_nll < nll < baseline,
        f"test NLL {nll:.4f} outside (oracle {oracle_nll:.4f}, one Gaussian {baseline:.4f})",
    )
    require(log_rows == iterations, f"training log has {log_rows} rows for {iterations} iterations")
    return nll


def check_classification(
    probs: np.ndarray,
    labels: np.ndarray,
    y_train: np.ndarray,
    evaluate_nll: float,
    oracle_nll: float,
    k: int,
) -> float:
    """Checks on per-row class probabilities; labels are 0..k-1."""
    require(bool(np.all(np.isfinite(probs))), "class probabilities are not all finite")
    require(
        bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)), "class probabilities do not sum to 1"
    )
    nll = float(-np.mean(np.log(probs[np.arange(len(labels)), labels])))
    agree(nll, evaluate_nll, "test NLL from probabilities vs evaluate")
    freq = np.bincount(y_train, minlength=k) / len(y_train)
    prior = float(-np.mean(np.log(freq[labels])))
    require(
        oracle_nll < nll < prior,
        f"test NLL {nll:.4f} outside (oracle {oracle_nll:.4f}, class prior {prior:.4f})",
    )
    return nll


def check_early_stopping(curve: np.ndarray, kept: int, max_iterations: int) -> None:
    require(
        curve.shape[0] == max_iterations + 1,
        f"validation curve has {curve.shape[0]} rows, expected {max_iterations + 1}",
    )
    first_min = int(np.argmin(curve))
    require(kept == first_min, f"model keeps {kept} iterations, curve minimum is at {first_min}")


def model_iterations(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return len(json.load(fh)["ensembles"][0])


def json_predict(doc: dict, X: np.ndarray) -> np.ndarray:
    """Replay a model JSON document tree by tree: (T, p) -> (T, N, d).

    Each tree's node list is routed for all rows at once; leaf values are
    added in ensemble order, the order the program accumulates them in.
    """
    lr = doc["config"]["learning_rate"]
    init = np.asarray(doc["init_particles"], dtype=float)
    out = np.repeat(init[None], X.shape[0], axis=0)
    rows = np.arange(X.shape[0])
    for i, trees in enumerate(doc["ensembles"]):
        for tree in trees:
            nodes = tree["nodes"]
            leaf = np.array(["value" in nd for nd in nodes])
            feature = np.array([nd.get("feature", 0) for nd in nodes])
            threshold = np.array([nd.get("threshold", 0.0) for nd in nodes])
            child = np.array([[nd.get("left", k), nd.get("right", k)] for k, nd in enumerate(nodes)])
            at = np.zeros(X.shape[0], dtype=int)
            while not leaf[at].all():
                go_right = X[rows, feature[at]] > threshold[at]
                at = np.where(leaf[at], at, child[at, go_right.astype(int)])
            values = np.array([nd.get("value", [0.0] * init.shape[1]) for nd in nodes])
            out[:, i] += lr * values[at]
    return out


def class_probs(particles: np.ndarray) -> np.ndarray:
    """Mean class probabilities of log-ratio particles (..., N, k-1) -> (..., k)."""
    logits = np.concatenate([particles, np.zeros(particles.shape[:-1] + (1,))], axis=-1)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).mean(axis=-2)


def check_replay(batch: np.ndarray, replay: np.ndarray) -> None:
    """``wgboost predict`` particles against the replay of the model JSON."""
    require(bool(np.all(np.isfinite(batch))), "batch particles are not all finite")
    require(
        batch.shape == replay.shape and bool(np.allclose(batch, replay, rtol=ROUND_OFF, atol=ROUND_OFF)),
        "batch predictions differ from the replay of the model JSON",
    )


def check_singles(batch: np.ndarray, singles: list[np.ndarray]) -> None:
    """Single-row API results, for rows 0.. in order, against the batch rows."""
    for r, single in enumerate(singles):
        require(
            bool(np.allclose(single, batch[r], rtol=ROUND_OFF, atol=ROUND_OFF)),
            f"single-row prediction for row {r} differs from the batch row",
        )
