import copy
import json
import re
import warnings
from datetime import timedelta
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wgboost.boosting import (
    BoostConfig,
    InitConfig,
    fit,
    fit_with_early_stopping,
    init_particles,
    load_model,
    make_classification_targets,
    make_regression_targets,
    save_model,
    task_config,
)
from wgboost.directions import DirectionKind, compute_direction
from wgboost.errors import DataError, NumericError
from wgboost.evaluate import Standardization, predictive_class_probs, predictive_nll_normal
from wgboost.kernel import KernelConfig
from wgboost.targets import GaussianTarget, NormalLocationScaleTarget
from wgboost.tree import RegressionTree, TreeParams, trees_to_dicts


def small_regression(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
    targets, std = make_regression_targets(y)
    return X, y, targets, std


def quick_cfg(**kw):
    base = dict(
        n_particles=3,
        max_iterations=6,
        learning_rate=0.1,
        init=InitConfig(steps=50),
        seed=1,
    )
    base.update(kw)
    return BoostConfig(**base)


def test_zero_iterations_returns_initializer():
    X, _, targets, _ = small_regression()
    cfg = quick_cfg(max_iterations=0)
    model = fit(X, targets, cfg)
    preds = model.predict(X)
    assert preds.shape == (40, 3, 2)
    assert np.array_equal(preds, np.broadcast_to(model.init_particles, preds.shape))


def test_failed_save_keeps_the_old_model_and_leaves_no_temp(tmp_path):
    X, _, targets, std = small_regression()
    model = fit(X, targets, quick_cfg(max_iterations=1), standardization=std)
    path = tmp_path / "m.json"
    save_model(model, path)
    saved = path.read_bytes()
    model.label_values = [object()]  # not JSON: the dump fails part way
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == saved
    assert list(tmp_path.iterdir()) == [path]


def test_staged_prediction_matches_shorter_fit():
    """Truncating the ensembles reproduces a fit stopped at that iteration."""
    X, _, targets, _ = small_regression()
    long = fit(X, targets, quick_cfg(max_iterations=6))
    short = fit(X, targets, quick_cfg(max_iterations=4))
    assert np.array_equal(long.predict(X, num_trees=4), short.predict(X))
    assert np.array_equal(long.predict(X, num_trees=6), long.predict(X))


def test_same_seed_is_deterministic(tmp_path):
    X, _, targets, std = small_regression()
    cfg = quick_cfg()
    a = fit(X, targets, cfg, standardization=std)
    b = fit(X, targets, cfg, standardization=std)
    assert np.array_equal(a.predict(X), b.predict(X))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, pa)
    save_model(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seeds_differ():
    X, _, targets, _ = small_regression()
    a = fit(X, targets, quick_cfg(seed=1))
    b = fit(X, targets, quick_cfg(seed=2))
    assert not np.array_equal(a.init_particles, b.init_particles)


def _round_trip_model(case):
    X, _, targets, std = small_regression()
    if case == "classification":
        labels = 1 + np.digitize(X[:, 0] + 0.5 * X[:, 1], [-1.0, 0.0, 1.0])
        model = fit(X, make_classification_targets(labels, 4), quick_cfg(learning_rate=0.4),
                    label_values=["a", "b", "c", "d"])
        assert model.init_particles.shape == (3, 3)
        return X, model
    overrides = {"regression": {}, "one-particle": {"n_particles": 1},
                 "no-rounds": {"max_iterations": 0}}[case]
    return X, fit(X, targets, quick_cfg(**overrides), standardization=std, label_values=None)


@pytest.mark.parametrize("case", ["regression", "classification", "one-particle", "no-rounds"])
def test_save_load_round_trip(tmp_path, case):
    X, model = _round_trip_model(case)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert np.array_equal(model.predict(X), clone.predict(X))
    assert clone.config == model.config
    assert clone.standardization == model.standardization
    assert clone.target_family == ("categorical" if case == "classification" else "normal")
    assert clone.n_iterations == model.n_iterations
    n = model.init_particles.shape[0]
    assert clone.trees.roots.shape == (model.n_iterations, n)
    save_model(clone, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("version", [99, True, 1.0], ids=["99", "true", "1.0"])
@pytest.mark.parametrize("body", ["bare", "full"])
def test_load_rejects_unknown_format(tmp_path, version, body):
    """Only the integer 1 is format_version 1: Python holds True == 1 == 1.0.

    The bare document has no other key, so the version must be checked before
    any of them; the full one is tests/model_v1.json with its version changed.
    """
    doc = json.loads(V1_MODEL.read_text()) if body == "full" else {}
    doc["format_version"] = version
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="format_version"):
        load_model(path)


def test_langevin_fit_is_seeded():
    X, _, targets, _ = small_regression()
    cfg = quick_cfg(direction=DirectionKind.LANGEVIN, max_iterations=3)
    a = fit(X, targets, cfg)
    b = fit(X, targets, cfg)
    assert np.array_equal(a.predict(X), b.predict(X))


def test_full_newton_fit_runs():
    X, _, targets, _ = small_regression(n=15)
    model = fit(X, targets, quick_cfg(direction=DirectionKind.FULL_NEWTON, max_iterations=2))
    assert np.all(np.isfinite(model.predict(X)))


def test_single_datum_ascends_toward_mode():
    """With D=1 and one particle the trees are single leaves, so boosting is
    plain ascent on the one datum's log target; the density must increase."""
    X = np.zeros((1, 1))
    targets = NormalLocationScaleTarget(0.0)
    cfg = BoostConfig(
        n_particles=1, max_iterations=60, learning_rate=0.1, init=InitConfig(steps=0), seed=0
    )
    model = fit(X, targets, cfg, init=np.array([[2.0, 1.0]]))
    dens = [
        float(targets.log_density(model.predict(X[0], num_trees=m)[0]))
        for m in range(0, 61, 10)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(dens, dens[1:]))
    assert dens[-1] > dens[0]


def test_train_trace_records_direction_norms():
    X, _, targets, _ = small_regression()
    model = fit(X, targets, quick_cfg(max_iterations=5))
    assert len(model.train_trace) == 5
    assert all(v >= 0 for v in model.train_trace)


def test_init_particles_shape_and_determinism():
    targets = NormalLocationScaleTarget(np.array([0.0, 1.0]))
    cfg = quick_cfg(n_particles=4, init=InitConfig(steps=20))
    a = init_particles(targets, cfg)
    b = init_particles(targets, cfg)
    assert a.shape == (4, 2)
    assert np.array_equal(a, b)


def test_init_zero_steps_is_raw_draw():
    targets = NormalLocationScaleTarget(0.0)
    cfg = quick_cfg(init=InitConfig(steps=0))
    a = init_particles(targets, cfg)
    cfg2 = quick_cfg(init=InitConfig(steps=5))
    b = init_particles(targets, cfg2)
    assert not np.array_equal(a, b)


def test_early_stopping_selects_argmin():
    X, _, targets, std = small_regression(n=60)
    cfg = quick_cfg(max_iterations=12, n_particles=4)
    model, curve = fit_with_early_stopping(X, targets, cfg, 0.25, standardization=std)
    assert len(curve) == 13
    assert model.n_iterations == int(np.argmin(curve))
    assert model.config.max_iterations == model.n_iterations


def test_early_stopping_curve_starts_at_initializer_nll():
    X, _, targets, _ = small_regression(n=50)
    cfg = quick_cfg(max_iterations=3)
    _, curve = fit_with_early_stopping(X, targets, cfg, 0.2)
    # recompute the index-0 entry by hand from the same split
    from wgboost.boosting import _run_init, _streams

    rng_draw, rng_noise, _, rng_split = _streams(cfg.seed)
    perm = rng_split.permutation(50)
    val = np.sort(perm[:10])
    fit_rows = np.sort(perm[10:])
    init = _run_init(targets.take(fit_rows), cfg, rng_draw, rng_noise)
    F_val = np.broadcast_to(init, (10,) + init.shape)
    want = predictive_nll_normal(F_val, targets.take(val).y, Standardization())
    assert curve[0] == pytest.approx(want, rel=1e-12)


def test_early_stopping_classification():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 2))
    labels = (X[:, 0] > 0).astype(np.int64) + 1
    targets = make_classification_targets(labels)
    cfg = quick_cfg(max_iterations=8, learning_rate=0.4)
    model, curve = fit_with_early_stopping(X, targets, cfg, 0.2, label_values=["lo", "hi"])
    assert len(curve) == 9
    assert model.label_values == ["lo", "hi"]


def test_early_stopping_rejects_degenerate_split():
    X, _, targets, _ = small_regression(n=5)
    with pytest.raises(DataError):
        fit_with_early_stopping(X, targets, quick_cfg(), val_fraction=0.01)
    with pytest.raises(DataError):
        fit_with_early_stopping(X, targets, quick_cfg(), val_fraction=0.999)


def test_fit_validation():
    X, _, targets, _ = small_regression()
    with pytest.raises(DataError):
        fit(X[:10], targets, quick_cfg())
    with pytest.raises(DataError):
        fit(np.full((40, 2), np.nan), targets, quick_cfg())
    with pytest.raises(DataError):
        fit(X, targets, quick_cfg(), init=np.zeros((9, 9)))
    with pytest.raises(DataError):
        fit(np.zeros((0, 2)), targets, quick_cfg())
    with pytest.raises(DataError):
        fit(np.zeros((40, 0)), targets, quick_cfg())


def test_config_validation_and_coercion():
    cfg = BoostConfig(direction="langevin")
    assert cfg.direction is DirectionKind.LANGEVIN
    with pytest.raises(ValueError):
        BoostConfig(n_particles=0)
    with pytest.raises(ValueError):
        BoostConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="learning_rate must be a positive finite number"):
        BoostConfig(learning_rate=float("inf"))
    with pytest.raises(ValueError):
        InitConfig(rate=-0.01)
    with pytest.raises(ValueError, match="init.rate must be a positive finite number"):
        InitConfig(rate=float("inf"))


def test_task_config_defaults():
    reg = task_config("regression")
    cls = task_config("classification")
    assert reg.learning_rate == 0.1 and reg.max_iterations == 4000
    assert cls.learning_rate == 0.4 and cls.max_iterations == 4000
    assert task_config("regression", max_iterations=7).max_iterations == 7
    with pytest.raises(ValueError):
        task_config("ranking")


def test_make_classification_targets_infers_k():
    t = make_classification_targets(np.array([1, 3, 2, 3]))
    assert t.k == 3


def test_predict_validates_features():
    X, _, targets, _ = small_regression()
    model = fit(X, targets, quick_cfg(max_iterations=1))
    with pytest.raises(ValueError):
        model.predict(np.zeros((3, 9)))
    single = model.predict(X[0])
    assert single.shape == (3, 2)
    assert np.array_equal(single, model.predict(X)[0])


def test_gaussian_target_fit():
    """The synthetic benchmark path: shared 1-d targets, explicit init."""
    X = np.linspace(-1, 1, 30)[:, None]
    targets = GaussianTarget(np.sin(X[:, 0]), 0.5)
    cfg = BoostConfig(
        n_particles=4,
        max_iterations=20,
        learning_rate=0.1,
        kernel=KernelConfig(0.1),
        tree=TreeParams(max_depth=2),
        init=InitConfig(steps=0),
        seed=0,
    )
    init = np.linspace(-2, 2, 4)[:, None]
    model = fit(X, targets, cfg, init=init)
    preds = model.predict(X)
    # particle means should track sin(x) reasonably after 20 rounds
    err = np.abs(preds.mean(axis=1)[:, 0] - np.sin(X[:, 0]))
    assert err.mean() < 0.35


def test_saved_config_object_is_pinned(tmp_path):
    """The model JSON ``config`` layout of format_version 1, key by key."""
    X, _, targets, _ = small_regression(n=20)
    cfg = BoostConfig(
        n_particles=2,
        max_iterations=1,
        learning_rate=0.25,
        direction="first-order",
        kernel=KernelConfig(0.3),
        tree=TreeParams(max_depth=2, min_samples_leaf=3, min_samples_split=7),
        init=InitConfig(rate=0.02, steps=3),
        seed=9,
    )
    path = tmp_path / "m.json"
    save_model(fit(X, targets, cfg), path)
    assert json.loads(path.read_text())["config"] == {
        "n_particles": 2,
        "max_iterations": 1,
        "learning_rate": 0.25,
        "direction": "first-order",
        "kernel_scale": 0.3,
        "tree": {"max_depth": 2, "min_samples_leaf": 3, "min_samples_split": 7},
        "subsample_fraction": 1.0,
        "init": {"rate": 0.02, "steps": 3},
        "seed": 9,
    }
    assert load_model(path).config == cfg


# Written by the code before the settings table; predictions pinned bit for bit.
V1_MODEL = Path(__file__).with_name("model_v1.json")
V1_ROWS = np.array([[0.0, 0.0], [0.5, -1.25], [-2.0, 3.0]])
V1_PREDICTIONS = [
    [[-0.041348291936387394, -0.574314508105831], [0.15830495461754993, -3.1585773943790283],
     [1.2755037679068573, 0.3714312635633977]],
    [[-0.07343279194251254, -0.3573300555051269], [0.24356177131254186, -1.1653399749671494],
     [1.2057768588898543, 0.45678622502895555]],
    [[-0.4968172193859769, -0.44205217991790463], [0.06707557600700365, -0.7212722368910066],
     [1.1724383607702207, 0.38317367944979874]],
]
V1_PREDICTIONS_2_TREES = [
    [[-0.05492281720833135, -0.09983272580824397], [0.25143607222371644, -3.1323959429065873],
     [1.6495188552652056, 0.36110065266485475]],
    [[-0.1384652034056481, -0.1810848889827284], [0.36079096276315387, -0.9666739148423157],
     [1.5797919462482026, 0.4464556141304126]],
    [[-0.3698138101708942, -0.30785548985794786], [0.16020669361317016, -0.6950907854185658],
     [1.5080053912253784, 0.4965591803702542]],
]


def test_format_version_1_model_loads_and_predicts_the_same():
    model = load_model(V1_MODEL)
    assert model.config == BoostConfig(
        n_particles=3,
        max_iterations=4,
        kernel=KernelConfig(0.2),
        tree=TreeParams(max_depth=2),
        init=InitConfig(steps=20),
        seed=5,
    )
    assert model.n_iterations == 4
    assert np.array_equal(model.predict(V1_ROWS), np.array(V1_PREDICTIONS))
    assert np.array_equal(model.predict(V1_ROWS, num_trees=2), np.array(V1_PREDICTIONS_2_TREES))


def test_saving_the_format_version_1_model_gives_back_its_bytes(tmp_path):
    path = tmp_path / "m.json"
    save_model(load_model(V1_MODEL), path)
    assert path.read_bytes() == V1_MODEL.read_bytes()


def test_format_version_1_subsample_fraction_below_1_loads_and_saves_back_as_1(tmp_path):
    """Every fit uses all rows: a file's share of rows only described its trees' fit."""
    doc = json.loads(V1_MODEL.read_text())
    doc["config"]["subsample_fraction"] = 0.5
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert np.array_equal(model.predict(V1_ROWS), np.array(V1_PREDICTIONS))
    again = tmp_path / "again.json"
    save_model(model, again)
    assert again.read_bytes() == V1_MODEL.read_bytes()
    assert json.loads(again.read_text())["config"]["subsample_fraction"] == 1.0


@pytest.mark.parametrize(
    "value", [0, 1.5, "0.5", True, None, float("nan")],
    ids=["zero", "above-1", "string", "bool", "missing", "nan"],
)
def test_model_subsample_fraction_outside_0_1_is_a_data_error_naming_it(tmp_path, value):
    doc = json.loads(V1_MODEL.read_text())
    if value is None:
        del doc["config"]["subsample_fraction"]
    else:
        doc["config"]["subsample_fraction"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="subsample_fraction"):
        load_model(path)


@pytest.mark.parametrize(
    "mutate, name",
    [(lambda config: config.update(learning_rate=float("inf")), "learning_rate"),
     (lambda config: config["init"].update(rate=float("inf")), "init.rate")],
    ids=["learning-rate", "init-rate"],
)
def test_model_with_an_infinite_rate_is_a_data_error_naming_it(tmp_path, mutate, name):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc["config"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=re.escape(f"model config: {name} must be a positive "
                                                      "finite number, got inf")):
            load_model(path)


def test_on_iteration_sees_every_round():
    """Round m's packed trees are round m's slice of the model's table."""
    X, _, targets, _ = small_regression()
    seen = []
    model = fit(X, targets, quick_cfg(max_iterations=4), on_iteration=seen.append)
    assert len(seen) == 4
    assert all(packed.roots.shape == (3,) for packed in seen)
    table = model.trees
    bounds = [*table.roots[:, 0].tolist(), table.n_nodes]
    for m, packed in enumerate(seen):
        a, b = bounds[m], bounds[m + 1]
        assert np.array_equal(packed.roots + a, table.roots[m])
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(packed, name), getattr(table, name)[a:b], equal_nan=True)


def test_fit_advances_the_cache_by_one_tree_predict_per_round(monkeypatch):
    """The cache update routes all D rows through the round's trees in one
    RegressionTree.predict call."""
    X, _, targets, _ = small_regression()
    calls = []
    predict = RegressionTree.predict

    def counted(self, rows):
        calls.append((self.nodes.roots.shape, rows.shape))
        return predict(self, rows)

    monkeypatch.setattr(RegressionTree, "predict", counted)
    fit(X, targets, quick_cfg(max_iterations=5))
    assert calls == [((3,), (40, 2))] * 5


def test_bad_typed_model_config_is_a_data_error(tmp_path):
    doc = json.loads(V1_MODEL.read_text())
    doc["config"]["tree"]["max_depth"] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="max_depth"):
        load_model(path)


def test_staged_predict_yields_every_truncation():
    X, _, targets, _ = small_regression()
    model = fit(X, targets, quick_cfg(max_iterations=5))
    stages = [F.copy() for F in model.staged_predict(X)]
    assert len(stages) == model.n_iterations + 1
    for m, F in enumerate(stages):
        assert np.array_equal(F, model.predict(X, num_trees=m))
    singles = [F.copy() for F in model.staged_predict(X[7], num_trees=3)]
    assert [F.shape for F in singles] == [(3, 2)] * 4
    assert np.array_equal(singles[-1], stages[3][7])


def test_negative_num_trees_is_rejected():
    X, _, targets, _ = small_regression()
    model = fit(X, targets, quick_cfg(max_iterations=3))
    with pytest.raises(ValueError, match="num_trees"):
        model.predict(X, num_trees=-1)
    with pytest.raises(ValueError, match="num_trees"):
        next(model.staged_predict(X, num_trees=-1))


def test_early_stopping_curve_is_the_staged_nll_of_the_search_fit():
    from wgboost.boosting import _streams

    X, _, targets, _ = small_regression(n=50)
    cfg = quick_cfg(max_iterations=5)
    _, curve = fit_with_early_stopping(X, targets, cfg, 0.2)
    perm = _streams(cfg.seed)[3].permutation(50)
    val, fit_rows = np.sort(perm[:10]), np.sort(perm[10:])
    search = fit(X[fit_rows], targets.take(fit_rows), cfg)
    y_val = targets.take(val).y
    want = [predictive_nll_normal(F, y_val, Standardization()) for F in search.staged_predict(X[val])]
    assert curve == want


def _resize_particles(doc, d):
    """``doc`` with every init particle and leaf value cut or padded to length d."""
    leaves = [nd["value"] for trees in doc["ensembles"] for tree in trees for nd in tree["nodes"]
              if "value" in nd]
    for vec in doc["init_particles"] + leaves:
        vec[:] = (vec + [0.5] * d)[:d]
    return doc


@pytest.mark.parametrize(
    "mutate",
    [
        # a child index back to the root: routing the row would never end
        lambda doc: doc["ensembles"][1][2]["nodes"][1].update(left=0),
        lambda doc: doc["ensembles"][0][0].update(nodes=[]),
        lambda doc: doc["ensembles"][0][1]["nodes"][2]["value"].append(0.5),
        # one consistent tree whose leaves are longer than the particles
        lambda doc: doc["ensembles"][0][0].update(nodes=[{"value": [0.1, 0.2, 0.3]}]),
        lambda doc: doc["ensembles"][2][3]["nodes"][0].update(feature=2),
        lambda doc: doc["ensembles"][2][3]["nodes"][0].update(right=1.5),
        lambda doc: doc["ensembles"][0][0]["nodes"][0].update(threshold=None),
        lambda doc: doc["ensembles"][0][0]["nodes"][0].update(threshold=float("nan")),
        lambda doc: doc["ensembles"][1][0].update(n_features=3),
        lambda doc: doc["ensembles"].pop(),
        lambda doc: doc["ensembles"][1].pop(),
        lambda doc: doc["config"].update(seed=-1),
        # particles of another length than the family's, with leaves to match
        lambda doc: _resize_particles(doc, 1),
        lambda doc: _resize_particles(doc, 3),
        lambda doc: _resize_particles(doc, 0).update(target_family="gaussian"),
    ],
    ids=["cycle", "no-nodes", "leaf-length", "tree-outputs", "feature", "child-type",
         "threshold", "nan-threshold", "tree-features", "ensemble-count", "ensemble-length", "seed",
         "normal-d1", "normal-d3", "d0"],
)
def test_structurally_bad_model_is_a_data_error(tmp_path, mutate):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda doc: doc["ensembles"][1][2].pop("nodes"), "nodes"),
        (lambda doc: doc.pop("k"), "k"),
        (lambda doc: doc.update(y_std=None), "y_std"),
        (lambda doc: doc.update(ensembles=5), "ensembles"),
        (lambda doc: doc["ensembles"][0][0]["nodes"][2].update(value="ab"), "value"),
        (lambda doc: doc["ensembles"][0][0]["nodes"][2]["value"].__setitem__(0, "0.5"), "value"),
        (lambda doc: doc.update(init_particles="abc"), "init_particles"),
        (lambda doc: doc["init_particles"][0].__setitem__(0, "1"), "init_particles"),
        (lambda doc: doc["config"]["tree"].pop("max_depth"), "tree.max_depth"),
        (lambda doc: doc["ensembles"][0][0]["nodes"].__setitem__(0, 7), "tree 0"),
        (lambda doc: doc["ensembles"][0][0]["nodes"][0].pop("left"), "left"),
        (lambda doc: doc["ensembles"].__setitem__(1, 5), "ensembles"),
    ],
    ids=["no-nodes", "no-k", "null-y-std", "int-ensembles", "string-leaf", "string-leaf-entry",
         "string-init", "string-init-entry", "no-config-key", "int-node", "no-left",
         "int-ensemble"],
)
def test_malformed_model_json_is_a_data_error_naming_the_key(tmp_path, mutate, key):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(key)):
        load_model(path)


@pytest.mark.parametrize(
    "particle, round_, mutate",
    [
        (1, 0, lambda nodes: nodes.__setitem__(0, 7)),
        (2, 1, lambda nodes: nodes[0].update(feature=9)),
        (0, 3, lambda nodes: nodes[0].pop("threshold")),
    ],
    ids=["int-node", "feature", "no-threshold"],
)
def test_malformed_tree_is_named_by_particle_and_round(tmp_path, particle, round_, mutate):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc["ensembles"][particle][round_]["nodes"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"particle {particle}, round {round_}")):
        load_model(path)


@pytest.mark.parametrize(
    "first, second, named",
    [
        # file order (particle-major) meets particle 0 first; rounds-major, round 1 comes first
        ((0, 2, lambda nodes: nodes[0].update(feature=9)),
         (2, 1, lambda nodes: nodes[0].pop("threshold")), "particle 2, round 1"),
        ((1, 3, lambda nodes: nodes.__setitem__(0, 7)),
         (2, 3, lambda nodes: nodes[-1]["value"].append(0.5)), "particle 1, round 3"),
        ((0, 1, lambda nodes: nodes[-1]["value"].append(0.5)),
         (1, 0, lambda nodes: nodes[0].update(left=0)), "particle 1, round 0"),
    ],
    ids=["feature-then-threshold", "int-node-then-leaf-length", "leaf-length-then-cycle"],
)
def test_first_faulty_tree_in_rounds_major_order_is_named(tmp_path, first, second, named):
    doc = json.loads(V1_MODEL.read_text())
    for particle, round_, mutate in (first, second):
        mutate(doc["ensembles"][particle][round_]["nodes"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    particle, round_ = map(int, re.findall(r"\d+", named))
    with pytest.raises(DataError, match=re.escape(
            f"{named} (tree {round_} of ensembles[{particle}])")):
        load_model(path)


def _widen_leaves(tree):
    for nd in tree["nodes"]:
        if "value" in nd:
            nd["value"].append(0.5)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["ensembles"][1][2].update(n_features=7),
         "particle 1, round 2 (tree 2 of ensembles[1]) has n_features 7 and leaf lengths [2]"),
        (lambda doc: _widen_leaves(doc["ensembles"][2][1]),
         "particle 2, round 1 (tree 1 of ensembles[2]) has n_features 2 and leaf lengths [3]"),
        # every tree alike: no tree disagrees with another, the first disagrees with the model
        (lambda doc: [_widen_leaves(tree) for trees in doc["ensembles"] for tree in trees],
         "particle 0, round 0 (tree 0 of ensembles[0]) has n_features 2 and leaf lengths [3]"),
        (lambda doc: [tree.update(n_features=3) for trees in doc["ensembles"] for tree in trees],
         "particle 0, round 0 (tree 0 of ensembles[0]) has n_features 3 and leaf lengths [2]"),
    ],
    ids=["one-tree-features", "one-tree-leaf-length", "all-leaf-lengths", "all-tree-features"],
)
def test_tree_that_disagrees_with_the_model_is_named(tmp_path, mutate, message):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"{message}; the model needs 2 and [2]")):
        load_model(path)


@pytest.mark.parametrize("n_features", [0, -3])
def test_model_without_feature_columns_is_a_data_error(tmp_path, n_features):
    """A leaf-only model splits on no feature, so its trees check no feature count."""
    X, _, targets, _ = small_regression()
    path = tmp_path / "m.json"
    save_model(fit(X, targets, quick_cfg(max_iterations=2, tree=TreeParams(max_depth=0))), path)
    doc = json.loads(path.read_text())
    doc["n_features"] = n_features
    for trees in doc["ensembles"]:
        for tree in trees:
            tree["n_features"] = n_features
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(
            f"model n_features must be at least 1, got {n_features}")):
        load_model(path)


def test_feature_index_beyond_int32_is_a_data_error(tmp_path):
    """A file may claim 2**40 features, but a split's feature must fit the int32 column."""
    doc = json.loads(V1_MODEL.read_text())
    doc["n_features"] = 2**40
    for trees in doc["ensembles"]:
        for tree in trees:
            tree["n_features"] = 2**40
    doc["ensembles"][1][2]["nodes"][0]["feature"] = 2**35
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape("particle 1, round 2 (tree 2 of ensembles[1]) "
                                                  "node 0 splits on feature 34359738368")):
        load_model(path)


@pytest.mark.parametrize("text", ['{"format_version": 1,', "[" * 100_000 + "]" * 100_000],
                         ids=["truncated", "nested-too-deep"])
def test_model_file_that_is_not_json_is_a_data_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(DataError, match="JSON"):
        load_model(path)


def test_model_file_without_an_object_is_a_data_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    with pytest.raises(DataError, match="JSON object"):
        load_model(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["init_particles"][1].__setitem__(0, float("nan")),
        lambda doc: doc["init_particles"][0].__setitem__(1, float("-inf")),
        lambda doc: doc["ensembles"][2][1]["nodes"][2]["value"].__setitem__(1, float("nan")),
        lambda doc: doc["ensembles"][0][3]["nodes"][-1]["value"].__setitem__(0, float("inf")),
        lambda doc: doc.update(y_mean=float("nan")),
        lambda doc: doc.update(y_std=float("nan")),
        lambda doc: doc.update(y_std=float("-inf")),
    ],
    ids=["nan-init", "inf-init", "nan-leaf", "inf-leaf", "nan-y-mean", "nan-y-std", "inf-y-std"],
)
def test_non_finite_model_numbers_are_a_data_error(tmp_path, mutate):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="finite"):
        load_model(path)


def test_initializer_numeric_error_names_the_step(monkeypatch):
    import wgboost.boosting as boosting

    calls = []

    def fail_at_step_2(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NumericError("smoothed Hessian is singular for datum 0")
        return compute_direction(*args, **kwargs)

    monkeypatch.setattr(boosting, "compute_direction", fail_at_step_2)
    X, _, targets, _ = small_regression()
    with pytest.raises(NumericError, match="^initializer step 2: smoothed Hessian is singular"):
        fit(X, targets, quick_cfg())


class NanScoreTarget:
    """Targets whose score is nan at row ``bad``; ``take`` keeps that row's new position."""

    def __init__(self, inner, bad):
        self.inner, self.bad = inner, bad
        self.family, self.dim, self.n_data = inner.family, inner.dim, inner.n_data

    def take(self, idx):
        hit = np.nonzero(idx == self.bad)[0]
        return type(self)(self.inner.take(idx), int(hit[0]) if hit.size else None)

    def derivatives(self, theta, curvature=None):
        g, h = self.inner.derivatives(theta, curvature)
        if self.bad is not None:
            g[self.bad] = np.nan
        return g, h


def test_non_finite_direction_names_the_iteration_and_the_training_row():
    X, _, targets, _ = small_regression()
    cfg = quick_cfg()
    with pytest.raises(NumericError) as err:
        # init= skips the initializer
        fit(X, NanScoreTarget(targets, bad=30), cfg, init=np.zeros((cfg.n_particles, 2)))
    assert str(err.value) == "boosting iteration 0: non-finite direction for datum 30"
    assert err.value.datum == 30


@pytest.mark.parametrize("kind", ["first-order", "diag-newton", "langevin"])
def test_non_finite_initializer_direction_names_the_training_row(kind):
    X, _, targets, _ = small_regression()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            fit(X, NanScoreTarget(targets, bad=30), quick_cfg(direction=kind))
    assert str(err.value) == "initializer step 0: non-finite direction for datum 30"
    assert err.value.datum == 30


def test_early_stopping_initializer_error_names_the_training_row():
    """Row 17 sits at position 12 of the search fit's rows; the error maps it back."""
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
    y[17] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            fit_with_early_stopping(X, NormalLocationScaleTarget(y),
                                    BoostConfig(init=InitConfig(steps=5)))
    assert str(err.value) == "initializer step 0: non-finite direction for datum 17"
    assert err.value.datum == 17


class ZeroCurvatureTarget(NanScoreTarget):
    """Targets whose full curvature is zero at row ``bad``: with one particle, full
    Newton's smoothed Hessian there is zero, singular even after its ridge."""

    def derivatives(self, theta, curvature=None):
        g, h = self.inner.derivatives(theta, curvature)
        if self.bad is not None:
            h[self.bad] = 0.0
        return g, h


def test_singular_hessian_names_the_iteration_and_the_training_row():
    X, _, targets, _ = small_regression()
    cfg = quick_cfg(n_particles=1, direction="full-newton")
    with pytest.raises(NumericError) as err:
        # init= skips the initializer
        fit(X, ZeroCurvatureTarget(targets, bad=30), cfg, init=np.zeros((1, 2)))
    assert str(err.value) == (
        "boosting iteration 0: smoothed Hessian is singular for datum 30 even after ridge 0"
    )
    assert err.value.datum == 30


def test_full_newton_overflow_is_a_numeric_error_without_a_warning():
    """The regression benchmark's 100-row table: after full Newton's first round
    one datum's Hessian overflows, and round 1 names that datum."""
    rng = np.random.default_rng([0, 1])
    X = rng.standard_normal((100, 8))
    mean, sd = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1], 0.2 + 0.4 * np.abs(X[:, 2])
    targets, std = make_regression_targets(mean + sd * rng.standard_normal(100))
    cfg = task_config("regression", direction="full-newton", max_iterations=3,
                      init=InitConfig(steps=0), seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            fit(X, targets, cfg, standardization=std)
    assert str(err.value) == "boosting iteration 1: smoothed Hessian is not finite for datum 52"
    assert err.value.datum == 52


def test_early_stopping_numeric_error_names_the_training_row():
    """The search fit numbers its rows among the fit split; the error maps them back."""
    X = np.random.default_rng(3).normal(size=(60, 3))
    targets, std = make_regression_targets(np.sin(X[:, 0]))
    cfg = BoostConfig(learning_rate=1e6, max_iterations=5, init=InitConfig(steps=10), seed=4)
    with pytest.raises(NumericError) as err:
        fit_with_early_stopping(X, targets, cfg, 0.2, standardization=std)
    # row 0 is held out for validation, so the first fit row is row 1
    assert str(err.value) == "boosting iteration 1: non-finite direction for datum 1"
    assert err.value.datum == 1


def test_estimator_numeric_error_names_the_boosting_iteration(monkeypatch):
    import wgboost.boosting as boosting

    def fail(*args, **kwargs):
        raise NumericError("smoothed Hessian is singular for datum 0")

    monkeypatch.setattr(boosting, "compute_direction", fail)
    X, _, targets, _ = small_regression()
    with pytest.raises(NumericError, match="^boosting iteration 0: smoothed Hessian is singular"):
        fit(X, targets, quick_cfg(), init=np.zeros((3, 2)))


def _leaves(tree, X):
    """The leaf of every row of X, by a plain Python walk of the tree's nodes
    (a tree as ``trees_to_dicts`` gives it)."""
    nodes = tree["nodes"]
    leaves = []
    for x in X:
        node = 0
        while "value" not in nodes[node]:
            split = nodes[node]
            node = split["left"] if x[split["feature"]] <= split["threshold"] else split["right"]
        leaves.append(node)
    return leaves


def _tree_docs(model):
    """Every tree of ``model`` as ``trees_to_dicts`` gives it; round m of particle i
    is tree m * N + i."""
    return trees_to_dicts(model.trees, model.n_features)


def _walk_stages(model, X):
    """The particles of ``model`` on rows X after each round, summed tree by
    tree from :func:`_leaves`: the reference for packed routing."""
    n, d = model.init_particles.shape
    docs = _tree_docs(model)
    F = np.broadcast_to(model.init_particles, (len(X), n, d)).copy()
    stages = [F.copy()]
    for m in range(model.n_iterations):
        for i in range(n):
            nodes = docs[m * n + i]["nodes"]
            value = np.array([nodes[leaf]["value"] for leaf in _leaves(docs[m * n + i], X)])
            F[:, i, :] += model.config.learning_rate * value.reshape(len(X), d)
        stages.append(F.copy())
    return stages


def _packed_case(case):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 3))
    if case in ("unbalanced", "single-leaf"):
        targets, _ = make_regression_targets(np.sin(2 * X[:, 0]) + X[:, 1] ** 2)
        depth = 4 if case == "unbalanced" else 0
        model = fit(X, targets, quick_cfg(tree=TreeParams(max_depth=depth)))
    else:
        k = {"d=1": 2, "d=3": 4}[case]
        labels = 1 + np.digitize(X[:, 0] + 0.5 * X[:, 1], np.linspace(-1, 1, k + 1)[1:-1])
        model = fit(X, make_classification_targets(labels, k), quick_cfg(learning_rate=0.4))
    return model


@pytest.mark.parametrize("case", ["unbalanced", "single-leaf", "d=1", "d=3"])
def test_packed_prediction_matches_a_walk_of_every_tree(case):
    from wgboost.boosting import _ROUTE_PAIRS

    model = _packed_case(case)
    n, d = model.init_particles.shape
    sizes = {len(tree["nodes"]) for tree in _tree_docs(model)}
    if case == "unbalanced":
        assert sizes - {1, 3, 7, 15, 31}  # some tree is not complete
    elif case == "single-leaf":
        assert sizes == {1}
    else:
        assert d == {"d=1": 1, "d=3": 3}[case]
    rows = np.random.default_rng(12).normal(size=(4000, 3))
    rows[:6] = [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf],
                [-np.inf, np.nan, np.inf], [np.inf, -np.inf, np.nan], [np.nan] * 3]
    # the rows are enough that a block of routed rounds holds fewer than all
    assert _ROUTE_PAIRS // (len(rows) * n) < model.n_iterations
    want = _walk_stages(model, rows)
    got = [F.copy() for F in model.staged_predict(rows)]
    assert len(got) == len(want) == model.n_iterations + 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(model.predict(rows), want[-1])
    for m in (0, 4, model.n_iterations + 5):
        assert np.array_equal(model.predict(rows, num_trees=m), want[min(m, model.n_iterations)])
    for r in (0, 3, 1234):
        assert np.array_equal(model.predict(rows[r]), want[-1][r])
    assert model.predict(rows[:0]).shape == (0, n, d)
    # round 2 of particle 1 alone, routed for the table's depth
    root = model.trees.roots[2, 1]
    tree = RegressionTree(model.trees._replace(roots=root), model.n_features)
    leaves = root + np.array(_leaves(_tree_docs(model)[2 * n + 1], rows))
    assert np.array_equal(tree.predict(rows), model.trees.value[leaves])


@pytest.mark.parametrize("n_particles", [1, 2])
def test_predict_sums_rounds_in_order_where_numpy_would_pair(n_particles):
    # With one row, one particle and d = 1, a block of rounds is one
    # contiguous run of numbers, which np.add.reduce sums pairwise.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(80, 2))
    labels = 1 + (X[:, 0] + 0.5 * rng.normal(size=80) > 0)
    cfg = BoostConfig(n_particles=n_particles, max_iterations=300, learning_rate=0.4,
                      tree=TreeParams(max_depth=2), init=InitConfig(steps=20), seed=3)
    model = fit(X, make_classification_targets(labels, 2), cfg)
    assert model.init_particles.shape == (n_particles, 1)
    for x in rng.normal(size=(20, 2)):
        stages = [F.copy() for F in model.staged_predict(x)]
        for m in (1, 7, 8, 129, 299, 300):
            assert np.array_equal(model.predict(x, num_trees=m), stages[m])
        assert np.array_equal(model.predict(x), stages[-1])  # predict is the last stage


def _tree_depth(tree, node=0):
    """The most splits on a path from ``node`` of ``tree`` (as ``trees_to_dicts`` gives it)
    to a leaf, by recursion."""
    split = tree["nodes"][node]
    if "value" in split:
        return 0
    return 1 + max(_tree_depth(tree, split["left"]), _tree_depth(tree, split["right"]))


@pytest.mark.parametrize("max_depth", range(5))
def test_packed_depth_is_the_deepest_tree(tmp_path, max_depth):
    X, _, targets, _ = small_regression(n=60)
    model = fit(X, targets, quick_cfg(tree=TreeParams(max_depth=max_depth)))
    deepest = max(_tree_depth(tree) for tree in _tree_docs(model))
    assert deepest == max_depth  # 60 rows are enough to reach it
    assert model.trees.depth == deepest
    save_model(model, tmp_path / "m.json")
    assert load_model(tmp_path / "m.json").trees.depth == deepest


def _split(j, thr, lo, hi):
    return {"feature": j, "threshold": thr, "left": lo, "right": hi}


@pytest.mark.parametrize("case", ["ladder", "shortcut"])
def test_trees_that_share_children_load_once_and_route_to_the_end(tmp_path, case):
    """A loaded tree may send two splits to one child.  A ladder sends both
    children of each of 60 splits to the next node; a shortcut reaches a
    node by paths of two lengths, and routing must take the longer."""
    from wgboost.tree import _levels

    if case == "ladder":
        nodes = [_split(i % 2, 0.1 * (i % 7) - 0.3, i + 1, i + 1) for i in range(60)]
        depth = 61
    else:
        nodes = [_split(0, 0.0, 1, 2), _split(1, 0.5, 2, 2)]
        depth = 3
    n = len(nodes)
    nodes += [_split(1, 0.25, n + 1, n + 2), {"value": [1.0, -2.0]}, {"value": [-3.0, 0.5]}]
    doc = json.loads(V1_MODEL.read_text())
    doc["ensembles"][1][2]["nodes"] = nodes
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    packed = model.trees
    assert packed.depth == depth
    levels = _levels(packed.feature, packed.left, packed.right, packed.roots)
    assert len(levels) == depth + 1
    assert np.array_equal(np.sort(np.concatenate(levels)), np.arange(len(packed.feature)))
    rows = np.random.default_rng(5).normal(size=(200, 2))
    want = _walk_stages(model, rows)
    assert all(np.array_equal(a, b) for a, b in zip(model.staged_predict(rows), want))
    assert np.array_equal(model.predict(rows), want[-1])


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda doc: doc.update(target_family="categorical", k=5, label_values=None), "k = 3"),
        (lambda doc: doc.update(target_family="categorical", k=None, label_values=None), "k = 3"),
        (lambda doc: doc.update(target_family="categorical", k=3, label_values=[["a"], "b", "c"]),
         "label_values"),
        (lambda doc: doc.update(target_family="categorical", k=3, label_values=["a", "b"]),
         "label_values"),
        (lambda doc: doc.update(target_family="categorical", k=3, label_values=["a", "b", "a"]),
         "label_values"),
        (lambda doc: doc.update(y_std=0.0), "y_std"),
        (lambda doc: doc.update(y_std=-0.5), "y_std"),
        (lambda doc: doc.update(y_std=1e-9), "y_std"),  # below the floor that fitting applies
    ],
    ids=["k-vs-dimension", "categorical-without-k", "list-label", "too-few-labels",
         "repeated-label", "zero-y-std", "negative-y-std", "y-std-under-floor"],
)
def test_inconsistent_model_fields_are_a_data_error(tmp_path, mutate, match):
    doc = json.loads(V1_MODEL.read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_model(path)


def test_consistent_categorical_fields_load(tmp_path):
    doc = json.loads(V1_MODEL.read_text())
    doc.update(target_family="categorical", k=3, label_values=["a", "b", "c"])
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert (model.num_classes, model.label_values) == (3, ["a", "b", "c"])
    assert predictive_class_probs(model.predict(V1_ROWS), 3).shape == (3, 3)


def _json_paths(node, path=()):
    """The key path of every value inside a parsed JSON document, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, (*path, key))


V1_DOC = json.loads(V1_MODEL.read_text())
V1_PATHS = list(_json_paths(V1_DOC))[1:]
# half the draws go to the few values outside the trees, which the trees would outnumber
_MUTANT_PATHS = st.sampled_from([p for p in V1_PATHS if p[0] != "ensembles"]) | st.sampled_from(V1_PATHS)
# the family names let a mutant change a model's family
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=2)
                 | st.sampled_from(["normal", "categorical", "gaussian"]))


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)


_JSON_VALUES = _JSON_SCALARS | st.recursive(_JSON_SCALARS, _json_containers, max_leaves=6)


@settings(max_examples=150, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=_MUTANT_PATHS, action=st.sampled_from(["replace", "splice", "delete"]),
       data=st.data())
def test_mutated_model_is_a_data_error_or_predicts_finite_values(tmp_path, path, action, data):
    """Change, copy over or delete one value of a saved model: it loads and predicts, or fails cleanly."""
    doc = copy.deepcopy(V1_DOC)
    *parents, key = path
    parent = reduce(getitem, parents, doc)
    if action == "delete":
        del parent[key]
    elif action == "splice":
        parent[key] = copy.deepcopy(reduce(getitem, data.draw(st.sampled_from(V1_PATHS)), V1_DOC))
    else:
        parent[key] = data.draw(_JSON_VALUES)
    model_path = tmp_path / "mutant.json"
    model_path.write_text(json.dumps(doc))
    try:
        model = load_model(model_path)
    except DataError:
        return
    preds = model.predict(V1_ROWS)
    assert np.all(np.isfinite(preds))
    if model.target_family == "categorical":
        assert np.all(np.isfinite(predictive_class_probs(preds, model.num_classes)))
