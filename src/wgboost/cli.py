"""Command-line interface.

Subcommands: train, evaluate, predict, bench-directions, toy-sin.  Options
can come from a JSON config file (--config) with individual flags taking
precedence; the seed falls back to the WGBOOST_SEED environment variable.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, synthetic
from .boosting import (
    SETTINGS,
    BoostConfig,
    check_type,
    config_from_settings,
    fit,
    fit_with_early_stopping,
    load_model,
    make_classification_targets,
    make_regression_targets,
    save_model,
    task_config,
)
from .directions import DirectionKind
from .errors import ConfigError, DataError, NumericError
from .evaluate import (
    Standardization,
    classification_accuracy,
    ood_score,
    point_predictions,
    point_predict_rmse,
    predicted_class,
    predictive_class_probs,
    predictive_nll_categorical,
    predictive_nll_normal,
)

METRIC_COLUMNS = [
    "dataset",
    "seed",
    "M",
    "NLL",
    "RMSE",
    "accuracy",
    "wall_clock_s",
]

#: The ``boost`` config keys and their flags; the seed is a top-level run key.
_BOOST_SETTINGS = [s for s in SETTINGS if s.key != "seed"]
#: Flags not spelled ``--`` plus the key with dashes.
_FLAG_NAMES = {"subsample_fraction": "--subsample"}
#: Top-level run config keys and their types.
_RUN_KEYS = {
    "task": str, "data": str, "label_column": str, "feature_columns": (list, str), "seed": int,
    "early_stopping": bool, "val_fraction": float, "out_model": str, "out_log": str,
    "threads": int, "boost": dict,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # a flag's type may raise ConfigError
        if not hasattr(args, "func"):
            parser.print_help()
            return 2
        args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgboost",
        description="Tree boosting that outputs a particle set per input.",
    )
    sub = parser.add_subparsers(dest="command")

    tr = sub.add_parser("train", help="fit a model from a CSV table")
    tr.add_argument("--config", help="JSON run config; flags override its fields")
    tr.add_argument("--data", help="training CSV with a header row")
    tr.add_argument("--task", choices=["regression", "classification"])
    tr.add_argument("--label-column")
    tr.add_argument("--feature-columns", help="comma-separated subset of columns")
    tr.add_argument("--out-model", help="model JSON path (default model.json)")
    tr.add_argument("--out-log", help="per-iteration training log CSV")
    tr.add_argument("--seed", type=int)
    for s in _BOOST_SETTINGS:
        choices = [k.value for k in DirectionKind] if s.key == "direction" else None
        flag = _FLAG_NAMES.get(s.key, "--" + s.key.replace("_", "-"))
        tr.add_argument(flag, type=s.type, choices=choices, dest=s.key)
    tr.add_argument("--early-stopping", action=argparse.BooleanOptionalAction, default=None)
    tr.add_argument("--val-fraction", type=float)
    tr.add_argument("--threads", type=int, help="must be 1 (trees are fitted on one thread); kept "
                    "so that scripts which pin one thread still run")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("evaluate", help="score a model on a labeled CSV")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--label-column", required=True)
    ev.add_argument("--out", required=True, help="metrics CSV")
    ev.add_argument("--per-row", help="optional per-row CSV (predictions, probabilities)")
    ev.set_defaults(func=_cmd_evaluate)

    pr = sub.add_parser("predict", help="emit per-row particle outputs")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--label-column", help="column to ignore, if the CSV has one")
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_predict)

    # The synthetic commands give their flags no default: only the flags given
    # reach the driver, whose parameter defaults are the one place they live.
    be = sub.add_parser("bench-directions", argument_default=argparse.SUPPRESS,
                        help="compare direction estimators on the sin benchmark")
    be.add_argument("--out", required=True)
    be.add_argument("--iterations", type=int)
    be.add_argument("--checkpoints", type=_checkpoint_list, help="comma-separated iteration counts")
    be.add_argument("--train-points", type=int, dest="n_train")
    be.add_argument("--eval-points", type=int, dest="n_eval")
    be.add_argument("--n-particles", type=int)
    be.add_argument("--seed", type=int)
    be.set_defaults(func=_cmd_synthetic, driver=synthetic.run_direction_bench, noun="benchmark")

    ts = sub.add_parser("toy-sin", argument_default=argparse.SUPPRESS,
                        help="small sin-curve run with plot-ready output")
    ts.add_argument("--out", required=True)
    ts.add_argument("--learners", type=int)
    ts.add_argument("--grid-points", type=int)
    ts.add_argument("--n-particles", type=int)
    ts.add_argument("--seed", type=int)
    ts.set_defaults(func=_cmd_synthetic, driver=synthetic.run_toy_sin, noun="grid")

    return parser


def _seed(args, doc: dict) -> int:
    """The seed: the flag, else the config's ``seed``, else WGBOOST_SEED, else 0."""
    seed = _setting(args, doc, "seed")
    if seed is not None:
        return seed
    raw = os.environ.get("WGBOOST_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"WGBOOST_SEED must be an integer, got {raw!r}") from None


def _load_config_doc(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot open config {path}: {err}") from err
    except (ValueError, RecursionError) as err:  # not UTF-8 JSON, or nested too deep to parse
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _setting(args, doc: dict, key: str, default=None):
    """A run setting: the flag if given, else the config value if not null, else ``default``."""
    value = getattr(args, key, None)
    if value is None:
        value = doc.get(key)
    if value is None:
        return default
    check_type(key, value, _RUN_KEYS[key])
    return value


def _build_boost_config(task: str, boost_doc: dict, args, seed: int) -> BoostConfig:
    unknown = set(boost_doc) - {s.key for s in _BOOST_SETTINGS}
    if unknown:
        raise ConfigError(f"unknown boost config keys: {sorted(unknown)}")
    flat = dict(boost_doc, seed=seed)
    flat.update((s.key, getattr(args, s.key)) for s in _BOOST_SETTINGS if getattr(args, s.key) is not None)
    try:
        return config_from_settings(flat, task_config(task))
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _cmd_train(args) -> None:
    doc = _load_config_doc(args.config)
    unknown = set(doc) - set(_RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    task = _setting(args, doc, "task")
    data = _setting(args, doc, "data")
    label_column = _setting(args, doc, "label_column")
    if task not in ("regression", "classification"):
        raise ConfigError(f"task must be regression or classification, got {task!r}")
    if data is None:
        raise ConfigError("no training data given (--data or config 'data')")
    if label_column is None:
        raise ConfigError("no label column given (--label-column or config 'label_column')")
    feature_columns = _setting(args, doc, "feature_columns")
    if isinstance(feature_columns, str):
        feature_columns = [c.strip() for c in feature_columns.split(",") if c.strip()]
    seed = _seed(args, doc)
    early = _setting(args, doc, "early_stopping", False)
    val_fraction = _setting(args, doc, "val_fraction")  # None: fit_with_early_stopping's default
    threads = _setting(args, doc, "threads", 1)
    if threads != 1:
        raise ConfigError(f"threads must be 1: trees are fitted on one thread, got {threads}")
    if val_fraction is not None and not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    out_model = _setting(args, doc, "out_model", "model.json")
    out_log = _setting(args, doc, "out_log")
    cfg = _build_boost_config(task, _setting(args, doc, "boost", {}), args, seed)

    X, raw_labels, _ = dataio.read_table(data, label_column, feature_columns)
    curve = None
    if task == "regression":
        targets, std = make_regression_targets(dataio.parse_regression_labels(raw_labels, data))
        carried = {"standardization": std}
    else:
        labels, values = dataio.encode_class_labels(raw_labels)
        targets = make_classification_targets(labels)
        carried = {"label_values": values}
    if early:
        split = {} if val_fraction is None else {"val_fraction": val_fraction}
        model, curve = fit_with_early_stopping(X, targets, cfg, **split, **carried)
    else:
        model = fit(X, targets, cfg, **carried)

    save_model(model, out_model)
    if out_log is not None:
        if curve is not None:
            rows = [{"iteration": m, "val_nll": v} for m, v in enumerate(curve)]
        else:
            rows = [{"iteration": m, "direction_sq_mean": v} for m, v in enumerate(model.train_trace, 1)]
        dataio.write_csv(out_log, ["iteration", "direction_sq_mean", "val_nll"], rows, seed)
    chosen = f", kept {model.n_iterations} of {cfg.max_iterations} iterations" if curve else ""
    print(f"saved {task} model to {out_model} ({model.n_iterations} iterations{chosen})")


def _load_model_checked(path: str):
    try:
        return load_model(path)
    except OSError as err:
        raise DataError(f"cannot open model {path}: {err}") from err
    except (KeyError, ValueError, TypeError) as err:
        raise DataError(f"model {path} is malformed: {err}") from err


def _load_model_and_rows(args):
    """The model and the rows of ``args.data``, whose feature count must match it."""
    model = _load_model_checked(args.model)
    X, raw_labels, _ = dataio.read_table(args.data, args.label_column)
    if X.shape[1] != model.n_features:
        raise DataError(
            f"{args.data} has {X.shape[1]} feature columns but the model expects {model.n_features}"
        )
    return model, X, raw_labels


def _standardization(model) -> Standardization:
    """The model's response map; a model saved without one (null y_mean) uses the identity."""
    return model.standardization or Standardization()


def _class_rows(preds, k: int, values: list) -> tuple[list[str], list[dict]]:
    """Per-row predicted label, class probabilities and OOD score, with their header."""
    probs = predictive_class_probs(preds, k)
    classes = predicted_class(preds, k)
    scores = ood_score(preds, k)
    rows = []
    for i in range(preds.shape[0]):
        r = {"predicted_label": values[classes[i] - 1], "ood_score": scores[i]}
        for j, v in enumerate(values):
            r[f"prob_{v}"] = probs[i, j]
        rows.append(r)
    return ["predicted_label", *(f"prob_{v}" for v in values), "ood_score"], rows


def _cmd_evaluate(args) -> None:
    model, X, raw_labels = _load_model_and_rows(args)
    started = time.perf_counter()
    preds = model.predict(X)
    row = {c: "" for c in METRIC_COLUMNS}
    row["dataset"] = Path(args.data).stem
    row["seed"] = model.config.seed
    row["M"] = model.n_iterations
    per_rows = []
    per_header: list[str] = []
    if model.target_family == "normal":
        y = dataio.parse_regression_labels(raw_labels, args.data)
        std = _standardization(model)
        row["NLL"] = predictive_nll_normal(preds, y, std)
        row["RMSE"] = point_predict_rmse(preds, y, std)
        points = point_predictions(preds, std)
        per_header = ["prediction"]
        per_rows = [{"prediction": p} for p in points]
    elif model.target_family == "categorical":
        if model.label_values is None:
            raise DataError("classification model lacks a stored label mapping")
        y = dataio.apply_class_labels(raw_labels, model.label_values, args.data)
        k = model.num_classes
        row["accuracy"] = classification_accuracy(preds, y, k)
        row["NLL"] = predictive_nll_categorical(preds, y, k)
        per_header, per_rows = _class_rows(preds, k, model.label_values)
    else:
        raise DataError(f"cannot evaluate a model with target family {model.target_family!r}")
    row["wall_clock_s"] = time.perf_counter() - started
    dataio.write_csv(args.out, METRIC_COLUMNS, [row], model.config.seed)
    if args.per_row:
        dataio.write_csv(args.per_row, per_header, per_rows, model.config.seed)
    shown = {c: row[c] for c in ("NLL", "RMSE", "accuracy") if row[c] != ""}
    print(f"wrote metrics to {args.out}: " + ", ".join(f"{k}={v:.4f}" for k, v in shown.items()))


def _cmd_predict(args) -> None:
    model, X, _ = _load_model_and_rows(args)
    preds = model.predict(X)
    if model.target_family == "categorical":
        k = model.num_classes
        header, rows = _class_rows(preds, k, model.label_values or [str(j) for j in range(1, k + 1)])
    else:
        _, n, d = preds.shape
        header = [f"particle_{i + 1}_{c}" for i in range(n) for c in range(d)]
        rows = preds.reshape(len(preds), n * d)
        if model.target_family == "normal":
            header.insert(0, "prediction")
            rows = np.column_stack([point_predictions(preds, _standardization(model)), rows])
    dataio.write_csv(args.out, header, rows, model.config.seed)
    print(f"wrote {len(rows)} prediction rows to {args.out}")


def _checkpoint_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ConfigError(f"bad checkpoint list {text!r}") from None


#: Namespace entries of a synthetic command that are not driver parameters.
_RUNNER_KEYS = ("command", "func", "driver", "noun", "out", "seed")


def _cmd_synthetic(args) -> None:
    """Run ``args.driver`` on the flags given and write its rows to ``args.out``."""
    seed = _seed(args, {})
    given = {k: v for k, v in vars(args).items() if k not in _RUNNER_KEYS}
    try:
        rows = args.driver(**given, seed=seed)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    dataio.write_csv(args.out, list(rows[0]), rows, seed)
    print(f"wrote {len(rows)} {args.noun} rows to {args.out}")


if __name__ == "__main__":
    sys.exit(main())
