"""End-to-end runs of the command-line interface through cli.main."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wgboost
from wgboost.cli import main


@pytest.fixture()
def reg_csv(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=50)
    p = tmp_path / "reg.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "y"])
        for i in range(50):
            w.writerow([repr(float(X[i, 0])), repr(float(X[i, 1])), repr(float(y[i]))])
    return p


@pytest.fixture()
def cls_csv(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 2))
    label = np.where(X[:, 0] > 0, "up", "down")
    p = tmp_path / "cls.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "cls"])
        for i in range(60):
            w.writerow([repr(float(X[i, 0])), repr(float(X[i, 1])), label[i]])
    return p


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return header, data


def test_regression_train_evaluate_predict(tmp_path, reg_csv):
    model = tmp_path / "m.json"
    log = tmp_path / "log.csv"
    metrics = tmp_path / "metrics.csv"
    preds = tmp_path / "preds.csv"
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 8, "--n-particles", 4, "--init-steps", 100,
        "--seed", 3, "--out-model", model, "--out-log", log,
    ) == 0
    assert run(
        "evaluate", "--model", model, "--data", reg_csv, "--label-column", "y",
        "--out", metrics, "--per-row", tmp_path / "rows.csv",
    ) == 0
    assert run("predict", "--model", model, "--data", reg_csv, "--label-column", "y", "--out", preds) == 0

    header, data = read_rows(metrics)
    row = dict(zip(header, data[0]))
    assert row["dataset"] == "reg" and row["seed"] == "3" and row["M"] == "8"
    assert float(row["NLL"]) < 3.0 and float(row["RMSE"]) < 2.0
    assert row["accuracy"] == ""

    header, data = read_rows(preds)
    assert header[0] == "prediction"
    assert len(data) == 50 and len(header) == 1 + 4 * 2
    # the training log records one proxy value per boosting round
    header, data = read_rows(log)
    assert header == ["iteration", "direction_sq_mean", "val_nll"]
    assert len(data) == 8

    doc = json.loads(model.read_text())
    assert doc["format_version"] == 1
    assert doc["config"]["seed"] == 3


def test_same_seed_models_byte_identical(tmp_path, reg_csv):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    common = [
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 5, "--init-steps", 50, "--seed", 11,
    ]
    assert run(*common, "--out-model", m1) == 0
    assert run(*common, "--out-model", m2) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_config_file_with_flag_override(tmp_path, reg_csv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "task": "regression",
        "data": str(reg_csv),
        "label_column": "y",
        "seed": 5,
        "boost": {"max_iterations": 4, "n_particles": 3, "init_steps": 10},
    }))
    model = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--seed", 7, "--out-model", model) == 0
    doc = json.loads(model.read_text())
    assert doc["config"]["seed"] == 7  # flag wins over config
    assert doc["config"]["max_iterations"] == 4
    assert doc["config"]["n_particles"] == 3


def test_env_seed_fallback(tmp_path, reg_csv, monkeypatch):
    model = tmp_path / "m.json"
    monkeypatch.setenv("WGBOOST_SEED", "42")
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 2, "--init-steps", 10, "--out-model", model,
    ) == 0
    assert json.loads(model.read_text())["config"]["seed"] == 42
    monkeypatch.setenv("WGBOOST_SEED", "not-a-number")
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 2, "--out-model", model,
    ) == 2


def test_early_stopping_flag(tmp_path, reg_csv):
    model = tmp_path / "m.json"
    log = tmp_path / "log.csv"
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 6, "--init-steps", 50, "--seed", 0,
        "--early-stopping", "--val-fraction", 0.2,
        "--out-model", model, "--out-log", log,
    ) == 0
    header, data = read_rows(log)
    assert len(data) == 7  # iterations 0..6 of the validation curve
    assert all(r[2] != "" for r in data)
    doc = json.loads(model.read_text())
    assert doc["config"]["max_iterations"] <= 6


def test_classification_flow(tmp_path, cls_csv):
    model = tmp_path / "m.json"
    metrics = tmp_path / "metrics.csv"
    preds = tmp_path / "p.csv"
    assert run(
        "train", "--data", cls_csv, "--task", "classification", "--label-column", "cls",
        "--max-iterations", 10, "--n-particles", 3, "--init-steps", 100, "--seed", 1,
        "--out-model", model,
    ) == 0
    assert run(
        "evaluate", "--model", model, "--data", cls_csv, "--label-column", "cls",
        "--out", metrics, "--per-row", tmp_path / "rows.csv",
    ) == 0
    header, data = read_rows(metrics)
    row = dict(zip(header, data[0]))
    assert float(row["accuracy"]) > 0.8
    assert row["RMSE"] == ""

    assert run("predict", "--model", model, "--data", cls_csv, "--label-column", "cls", "--out", preds) == 0
    header, data = read_rows(preds)
    assert header == ["predicted_label", "prob_down", "prob_up", "ood_score"]
    for r in data:
        assert r[0] in ("down", "up")
        assert float(r[1]) + float(r[2]) == pytest.approx(1.0, abs=1e-9)


def test_exit_codes(tmp_path, reg_csv):
    # unknown config key -> 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"task": "regression", "bogus": 1}))
    assert run("train", "--config", cfg) == 2
    # missing data file -> 3
    assert run(
        "train", "--data", tmp_path / "nope.csv", "--task", "regression",
        "--label-column", "y",
    ) == 3
    # wrong label column -> 3
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "zzz",
        "--max-iterations", 1,
    ) == 3
    # no task anywhere -> 2
    assert run("train", "--data", reg_csv, "--label-column", "y") == 2
    # malformed JSON config -> 2
    cfg.write_text("{")
    assert run("train", "--config", cfg) == 2
    # bad boost field value -> 2
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--learning-rate", -1,
    ) == 2
    # no subcommand -> 2
    assert main([]) == 2


def test_bench_and_toy_sin(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(
        "bench-directions", "--out", out, "--iterations", 3, "--checkpoints", "0,3",
        "--train-points", 30, "--eval-points", 20, "--n-particles", 3, "--seed", 0,
    ) == 0
    header, data = read_rows(out)
    assert header == ["direction", "weak_learners", "mean_mmd", "wall_clock_s"]
    assert len(data) == 8  # 4 direction kinds x 2 checkpoints
    assert out.read_text().rstrip().endswith("# seed=0 format_version=1")

    toy = tmp_path / "toy.csv"
    assert run(
        "toy-sin", "--out", toy, "--learners", 4, "--grid-points", 5,
        "--n-particles", 3, "--seed", 0,
    ) == 0
    header, data = read_rows(toy)
    assert header[0] == "x" and header[-2:] == ["band_lo", "band_hi"]
    assert len(data) == 5
    assert run("bench-directions", "--out", out, "--iterations", 3, "--checkpoints", "9") == 2


@pytest.mark.parametrize(
    "argv, passed",
    [
        (["bench-directions", "--iterations", 3], {"iterations": 3, "seed": 0}),
        (["bench-directions", "--checkpoints", "0,2", "--train-points", 30, "--eval-points", 20,
          "--n-particles", 3, "--seed", 4],
         {"checkpoints": (0, 2), "n_train": 30, "n_eval": 20, "n_particles": 3, "seed": 4}),
        (["toy-sin"], {"seed": 0}),
        (["toy-sin", "--learners", 4, "--grid-points", 5, "--n-particles", 3],
         {"learners": 4, "grid_points": 5, "n_particles": 3, "seed": 0}),
    ],
)
def test_synthetic_commands_pass_only_the_flags_given(tmp_path, monkeypatch, argv, passed):
    from wgboost import synthetic

    seen = []

    def driver(**kwargs):
        seen.append(kwargs)
        return [{"a": 1, "b": 2.5}]

    name = "run_direction_bench" if argv[0] == "bench-directions" else "run_toy_sin"
    monkeypatch.setattr(synthetic, name, driver)
    monkeypatch.delenv("WGBOOST_SEED", raising=False)
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 0
    assert seen == [passed]
    assert read_rows(out) == (["a", "b"], [["1", "2.5"]])


@pytest.mark.parametrize("argv", [["bench-directions", "--max-depth", 2],
                                  ["bench-directions", "--learning-rate", 0.2],
                                  ["bench-directions", "--kernel-scale", 0.2],
                                  ["bench-directions", "--mmd-scale", 0.05],
                                  ["toy-sin", "--max-depth", 2],
                                  ["toy-sin", "--learning-rate", 0.2]])
def test_synthetic_commands_have_no_unused_setting_flags(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        run(*argv, "--out", tmp_path / "out.csv")
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_checkpoint_list_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench-directions", "--out", out, "--checkpoints", "0,x") == 2
    assert capsys.readouterr().err == "config error: bad checkpoint list '0,x'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("boost.n_particles", "10"),
        ("boost.kernel_scale", "x"),
        ("boost.init_steps", 2.5),
        ("boost.max_depth", 1.5),
        ("boost.learning_rate", True),
        ("val_fraction", "abc"),
        ("early_stopping", "no"),
        ("threads", 2.0),
    ],
)
def test_bad_typed_config_is_a_config_error(tmp_path, reg_csv, capsys, key, value):
    doc = {"task": "regression", "data": str(reg_csv), "label_column": "y",
           "boost": {"max_iterations": 1, "init_steps": 1}}
    if key.startswith("boost."):
        doc["boost"][key[len("boost."):]] = value
    else:
        doc[key] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    model = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--out-model", model) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + key.split(".")[-1])
    assert not model.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_column_count_mismatch_is_a_data_error(tmp_path, reg_csv, capsys, command):
    model = tmp_path / "m.json"
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 2, "--init-steps", 10, "--out-model", model,
    ) == 0
    capsys.readouterr()
    wide = tmp_path / "wide.csv"
    header, data = read_rows(reg_csv)
    wide.write_text("\n".join(",".join(r) for r in [["x0", *header], *(["0.5", *r] for r in data)]))
    out = tmp_path / "out.csv"
    assert run(command, "--model", model, "--data", wide, "--label-column", "y", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "3 feature columns" in err and "expects 2" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "env", "config", "toy-sin", "bench-directions"])
def test_negative_seed_is_a_config_error(tmp_path, reg_csv, capsys, monkeypatch, source):
    doc = {"task": "regression", "data": str(reg_csv), "label_column": "y",
           "boost": {"max_iterations": 1, "init_steps": 1}}
    if source == "env":
        monkeypatch.setenv("WGBOOST_SEED", "-1")
    if source == "config":
        doc["seed"] = -1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {"toy-sin": ["toy-sin", "--out", out, "--seed", -1],
            "bench-directions": ["bench-directions", "--out", out, "--seed", -1],
            "flag": ["train", "--config", cfg, "--out-model", out, "--seed", -1]}
    assert run(*argv.get(source, ["train", "--config", cfg, "--out-model", out])) == 2
    assert capsys.readouterr().err.startswith("config error: seed")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("threads", 0), ("threads", -3), ("threads", 2), ("val_fraction", 0.0), ("val_fraction", 1.0),
     ("val_fraction", -0.2), ("val_fraction", 1.5)],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_out_of_range_run_setting_is_a_config_error_before_reading(tmp_path, capsys, key, value,
                                                                    source):
    # the data file does not exist: reading it first would be a data error, exit 3
    doc = {"task": "regression", "data": str(tmp_path / "missing.csv"), "label_column": "y",
           "early_stopping": True}
    argv = []
    if source == "flag":
        argv = ["--" + key.replace("_", "-"), value]
    else:
        doc[key] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    model = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--out-model", model, *argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not model.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_threads_1_still_trains(tmp_path, reg_csv, source):
    doc = {"task": "regression", "data": str(reg_csv), "label_column": "y",
           "boost": {"max_iterations": 2, "init_steps": 10}}
    argv = ["--threads", 1] if source == "flag" else []
    if source == "config":
        doc["threads"] = 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    model = tmp_path / "m.json"
    assert run("train", "--config", cfg, "--out-model", model, *argv) == 0
    assert json.loads(model.read_text())["config"]["max_iterations"] == 2


def test_model_without_standardization_predicts_and_evaluates_in_identity_units(tmp_path, reg_csv):
    original = Path(__file__).with_name("model_v1.json")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({**json.loads(original.read_text()), "y_mean": None, "y_std": None}))
    outs = {}
    for name, model in (("original", original), ("bare", bare)):
        outs[name] = tmp_path / f"{name}.csv"
        assert run("predict", "--model", model, "--data", reg_csv, "--label-column", "y",
                   "--out", outs[name]) == 0
    assert run("evaluate", "--model", bare, "--data", reg_csv, "--label-column", "y",
               "--out", tmp_path / "metrics.csv") == 0
    header, bare_rows = read_rows(outs["bare"])
    _, original_rows = read_rows(outs["original"])
    assert header[0] == "prediction"
    bare_rows = np.array(bare_rows, dtype=float)
    assert np.array_equal(bare_rows[:, 1:], np.array(original_rows, dtype=float)[:, 1:])
    assert np.allclose(bare_rows[:, 0], bare_rows[:, 1::2].mean(axis=1), rtol=0, atol=1e-12)


def test_malformed_model_is_exit_3_naming_the_key(tmp_path, reg_csv, capsys):
    model = tmp_path / "m.json"
    assert run(
        "train", "--data", reg_csv, "--task", "regression", "--label-column", "y",
        "--max-iterations", 2, "--init-steps", 10, "--out-model", model,
    ) == 0
    doc = json.loads(model.read_text())
    del doc["ensembles"][0][1]["nodes"]
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert run("predict", "--model", model, "--data", reg_csv, "--label-column", "y",
               "--out", out) == 3
    assert "'nodes'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", [b"\xff{}", b"[" * 200_000 + b"]" * 200_000], ids=["not-utf-8", "nested-too-deep"]
)
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(text)
    assert run("train", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith(f"config error: config {cfg} is not valid JSON")


@pytest.mark.parametrize(
    "doc, error",
    [({"target_family": "categorical", "k": 5}, "needs k = 3"),
     ({"target_family": "categorical", "k": 3, "label_values": [["up"], "down", "x"]}, "label_values"),
     ({"y_std": 0.0}, "y_std")],
    ids=["k-vs-dimension", "list-label", "zero-y-std"],
)
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_inconsistent_model_is_exit_3(tmp_path, reg_csv, capsys, doc, error, command):
    model = tmp_path / "m.json"
    model_doc = json.loads((Path(__file__).with_name("model_v1.json")).read_text())
    model.write_text(json.dumps({**model_doc, **doc}))
    out = tmp_path / "out.csv"
    assert run(command, "--model", model, "--data", reg_csv, "--label-column", "y", "--out", out) == 3
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(wgboost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, wgboost.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def _three_feature_table(path, label):
    """60 rows of three normal features and ``label(X)`` as the last column."""
    X = np.random.default_rng(3).normal(size=(60, 3))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c", "y"])
        for x, y in zip(X, label(X)):
            w.writerow([*(repr(float(v)) for v in x), y])
    return path


def test_overflowing_particle_cache_is_a_numeric_error(tmp_path, capsys):
    data = _three_feature_table(tmp_path / "cls.csv", lambda X: np.where(X[:, 0] > 0, "up", "down"))
    model = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(
            "train", "--task", "classification", "--data", data, "--label-column", "y",
            "--init-steps", 10, "--max-iterations", 5, "--learning-rate", 1e308,
            "--out-model", model,
        ) == 4
    assert capsys.readouterr().err == (
        "numeric failure: boosting iteration 0: non-finite particles for datum 1\n"
    )
    assert not model.exists()


@pytest.mark.parametrize("learning_rate", [1e6, 1e12, 1e100])
def test_overflowing_scale_is_a_numeric_error_without_a_warning(tmp_path, capsys, learning_rate):
    data = _three_feature_table(tmp_path / "reg.csv", lambda X: np.sin(X[:, 0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(
            "train", "--task", "regression", "--data", data, "--label-column", "y",
            "--init-steps", 10, "--max-iterations", 5, "--learning-rate", learning_rate,
            "--out-model", tmp_path / "m.json",
        ) == 4
    assert capsys.readouterr().err == (
        "numeric failure: boosting iteration 1: non-finite direction for datum 0\n"
    )
