"""The three workloads: their inputs, one measured round each, and their checks.

Every workload trains a model with ``wgboost train``, scores held-out rows
with ``wgboost evaluate``, and serves the model on those rows: repeated
``load_model`` calls, a closed loop of single-row ``WGBoostModel.predict``
calls from one caller, and ``wgboost predict`` over the whole table.  The
workloads differ in where that work goes (see README.md).  The program only
sees the CSV files written here.  ``Ops`` counts each CLI call or API request
as one operation.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
import time

import numpy as np

import checks
import wgboost.boosting
import wgboost.cli

#: Master seed handed to ``wgboost train``.
TRAIN_SEED = 7
#: Training tables are the same in every run, so every run fits the same
#: model (early stopping keeps the same number of iterations) and timings
#: compare like with like; the workload seed draws the held-out rows.
TRAIN_DATA_SEED = 0
#: Tree fits run on one thread.  With the CLI default (one per CPU, two here)
#: the fits' wall time swings with how much CPU the other tenants of the
#: machine leave: three identical early-stopping fits took 21.4, 34.6 and
#: 31.1 s with two threads and 27.2, 30.7 and 29.8 s with one.
TRAIN_THREADS = 1
#: The failing full-newton attempt runs on this fixed input.
FULL_NEWTON_ROWS = 100

# Serving: ``cycles`` x (``loads`` loads, ``rows`` single rows, one batch predict).
REG = {"features": 8, "train_rows": 500, "test_rows": 2000, "iterations": 150,
       "cycles": 3, "loads": 3, "rows": 3}
CLS = {"features": 16, "classes": 3, "train_rows": 1200, "test_rows": 2000,
       "iterations": 100, "init_steps": 500, "cycles": 16, "loads": 5, "rows": 5}
SERVE = {"features": 8, "train_rows": 100, "test_rows": 1000, "iterations": 500,
         "learning_rate": 0.02, "init_steps": 500, "cycles": 3, "loads": 2, "rows": 4}


class Ops:
    """Counts operations; times CLI calls and records them as ``cli`` spans."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def cli(self, *argv) -> tuple[int, float]:
        self.attempted += 1
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            code = wgboost.cli.main([str(a) for a in argv])
            t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.span("cli", t0, t1)
        if code != 0:
            self.failed += 1
        return code, t1 - t0


def write_table(path: str, X: np.ndarray, label=None, label_name: str = "y") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = [f"x{j}" for j in range(X.shape[1])]
        w.writerow(header + ([label_name] if label is not None else []))
        for i in range(X.shape[0]):
            row = [repr(float(v)) for v in X[i]]
            if label is not None:
                row.append(repr(float(label[i])) if label.dtype.kind == "f" else str(int(label[i])))
            w.writerow(row)


def train_and_serve(work: str, ops: Ops, samples: dict, train_argv: list, sizes: dict,
                    label: str) -> None:
    """One round: train, evaluate, then serve the model from test.csv.

    Serving runs in cycles of loads, single-row requests and one batch
    predict, so that each serving metric samples the whole serving window
    rather than one stretch of it.
    """
    w = work
    code, secs = ops.cli("train", "--data", f"{w}/train.csv", "--label-column", label,
                         "--seed", TRAIN_SEED, "--threads", TRAIN_THREADS, "--out-model",
                         f"{w}/model.json", "--out-log", f"{w}/log.csv", *train_argv)
    if code != 0:
        return
    samples.setdefault("train_s", []).append(secs)
    ops.cli("evaluate", "--model", f"{w}/model.json", "--data", f"{w}/test.csv",
            "--label-column", label, "--out", f"{w}/metrics.csv", "--per-row", f"{w}/rows.csv")
    _, rows = checks.read_csv(f"{w}/test.csv")
    n_rows = sizes["rows"]
    X = np.array([[float(v) for v in r[: sizes["features"]]] for r in rows[: sizes["cycles"] * n_rows]])
    singles = []
    for c in range(sizes["cycles"]):
        for _ in range(sizes["loads"]):
            ops.attempted += 1
            t0 = time.perf_counter()
            model = wgboost.boosting.load_model(f"{w}/model.json")
            samples.setdefault("load_s", []).append(time.perf_counter() - t0)
        for x in X[c * n_rows:(c + 1) * n_rows]:
            ops.attempted += 1
            t0 = time.perf_counter()
            singles.append(model.predict(x))
            samples.setdefault("row_ms", []).append(1e3 * (time.perf_counter() - t0))
        code, secs = ops.cli("predict", "--model", f"{w}/model.json", "--data", f"{w}/test.csv",
                             "--label-column", label, "--out", f"{w}/predict.csv")
        if code == 0:
            samples.setdefault("batch_rows_per_s", []).append(len(rows) / secs)
    samples["singles"] = singles


# ---------------------------------------------------------------- reg-train

def reg_data(seed, rows: int):
    """X ~ N(0, I_8); y = sin(2 x0) + 0.5 x1 + (0.2 + 0.4 |x2|) eps."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, REG["features"]))
    mean, sd = reg_truth(X)
    return X, mean + sd * rng.standard_normal(rows)


def reg_truth(X: np.ndarray):
    return np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1], 0.2 + 0.4 * np.abs(X[:, 2])


def reg_inputs(seed: int, sizes: dict = REG):
    """The fixed training set and the seeded held-out set."""
    return reg_data([TRAIN_DATA_SEED, 1], sizes["train_rows"]), reg_data([seed, 2], sizes["test_rows"])


def setup_reg(seed: int, work: str) -> None:
    (Xtr, ytr), (Xte, yte) = reg_inputs(seed)
    write_table(f"{work}/train.csv", Xtr, ytr)
    write_table(f"{work}/test.csv", Xte, yte)
    Xfn, yfn = reg_data([TRAIN_DATA_SEED, 1], FULL_NEWTON_ROWS)
    write_table(f"{work}/fn_train.csv", Xfn, yfn)


def round_reg(work: str, ops: Ops, samples: dict) -> None:
    train_and_serve(work, ops, samples,
                    ["--task", "regression", "--max-iterations", REG["iterations"]], REG, "y")
    # Known fault: full-newton exits 4 on this input ("smoothed Hessian is singular").
    code, _ = ops.cli(
        "train", "--task", "regression", "--data", f"{work}/fn_train.csv", "--label-column", "y",
        "--direction", "full-newton", "--max-iterations", REG["iterations"], "--seed", TRAIN_SEED,
        "--out-model", f"{work}/fn_model.json",
    )
    if code == 0:
        ops.cli("predict", "--model", f"{work}/fn_model.json", "--data", f"{work}/fn_train.csv",
                "--label-column", "y", "--out", f"{work}/fn_predict.csv")


def check_regression_fit(seed: int, work: str, samples: dict, sizes: dict) -> np.ndarray:
    """Checks shared by the regression workloads; returns the batch particles."""
    (_, ytr), (Xte, yte) = reg_inputs(seed, sizes)
    mean, sd = reg_truth(Xte)
    particles = checks.particle_columns(f"{work}/predict.csv")
    samples["test_nll"] = [checks.check_regression(
        particles, yte, ytr,
        checks.read_metric(f"{work}/metrics.csv", "NLL"),
        checks.gaussian_nll(yte, mean, sd),
        len(checks.read_csv(f"{work}/log.csv")[1]),
        sizes["iterations"],
    )]
    checks.check_singles(particles, samples.pop("singles"))
    return particles


def check_reg(seed: int, work: str, samples: dict) -> None:
    check_regression_fit(seed, work, samples, REG)
    if os.path.exists(f"{work}/fn_predict.csv"):
        # Once the full-newton fault is mended its in-sample fit must beat one Gaussian.
        _, yfn = reg_data([TRAIN_DATA_SEED, 1], FULL_NEWTON_ROWS)
        fn = checks.particle_columns(f"{work}/fn_predict.csv")
        checks.require(bool(np.all(np.isfinite(fn))), "full-newton particles are not all finite")
        fn_nll = checks.mixture_nll(fn, yfn, yfn)
        base = checks.gaussian_nll(yfn, np.mean(yfn), np.std(yfn))
        checks.require(fn_nll < base, f"full-newton NLL {fn_nll:.4f} not below {base:.4f}")


# ----------------------------------------------------------- cls-early-stop

def cls_weights() -> np.ndarray:
    """Fixed logit weights: four informative features, twelve pure noise."""
    W = np.zeros((CLS["features"], CLS["classes"]))
    W[:4] = np.random.default_rng(20240515).normal(0.0, 0.6, (4, CLS["classes"]))
    return W


def cls_probs(X: np.ndarray) -> np.ndarray:
    logits = X @ cls_weights()
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cls_data(seed, rows: int):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, CLS["features"]))
    p = cls_probs(X)
    u = rng.random(rows)[:, None]
    labels = np.minimum((u > np.cumsum(p, axis=1)).sum(axis=1), CLS["classes"] - 1)
    return X, labels


def cls_inputs(seed: int):
    """The fixed training set and the seeded held-out set."""
    return cls_data([TRAIN_DATA_SEED, 1], CLS["train_rows"]), cls_data([seed, 2], CLS["test_rows"])


def setup_cls(seed: int, work: str) -> None:
    (Xtr, ltr), (Xte, lte) = cls_inputs(seed)
    write_table(f"{work}/train.csv", Xtr, ltr, "label")
    write_table(f"{work}/test.csv", Xte, lte, "label")


def round_cls(work: str, ops: Ops, samples: dict) -> None:
    train_and_serve(work, ops, samples,
                    ["--task", "classification", "--early-stopping",
                     "--max-iterations", CLS["iterations"], "--init-steps", CLS["init_steps"]],
                    CLS, "label")


def check_cls(seed: int, work: str, samples: dict) -> None:
    (_, ltr), (Xte, lte) = cls_inputs(seed)
    k = CLS["classes"]
    prob_columns = [f"prob_{c}" for c in range(k)]
    oracle = float(-np.mean(np.log(cls_probs(Xte)[np.arange(len(lte)), lte])))
    probs = checks.read_columns(f"{work}/rows.csv", prob_columns)
    samples["test_nll"] = [checks.check_classification(
        probs, lte, ltr, checks.read_metric(f"{work}/metrics.csv", "NLL"), oracle, k
    )]
    curve = checks.read_columns(f"{work}/log.csv", ["val_nll"])[:, 0]
    checks.check_early_stopping(curve, checks.model_iterations(f"{work}/model.json"), CLS["iterations"])
    batch = checks.read_columns(f"{work}/predict.csv", prob_columns)
    checks.require(bool(np.array_equal(batch, probs)), "predict and evaluate disagree on probabilities")
    checks.check_singles(batch, [checks.class_probs(s) for s in samples.pop("singles")])


# -------------------------------------------------------------------- serve

def setup_serve(seed: int, work: str) -> None:
    (Xtr, ytr), (Xte, yte) = reg_inputs(seed, SERVE)
    write_table(f"{work}/train.csv", Xtr, ytr)
    write_table(f"{work}/test.csv", Xte, yte)


def round_serve(work: str, ops: Ops, samples: dict) -> None:
    train_and_serve(work, ops, samples,
                    ["--task", "regression", "--max-iterations", SERVE["iterations"],
                     "--learning-rate", SERVE["learning_rate"], "--init-steps", SERVE["init_steps"]],
                    SERVE, "y")


def check_serve(seed: int, work: str, samples: dict) -> None:
    particles = check_regression_fit(seed, work, samples, SERVE)
    with open(f"{work}/model.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    checks.check_replay(particles, checks.json_predict(doc, reg_inputs(seed, SERVE)[1][0]))


WORKLOADS = {
    "reg-train": (setup_reg, round_reg, check_reg),
    "cls-early-stop": (setup_cls, round_cls, check_cls),
    "serve": (setup_serve, round_serve, check_serve),
}
