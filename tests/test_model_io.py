"""Model files (format_version 1) of serving size: the bytes save_model writes,
the node table load_model gives back, and the memory each of them takes."""

import functools
import json
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from wgboost.boosting import (BoostConfig, InitConfig, WGBoostModel, _config_to_dict, fit,
                              load_model, make_regression_targets, save_model)
from wgboost.evaluate import Standardization
from wgboost.tree import PackedTrees, trees_to_dicts


def _full(depth, at=0):
    """A complete tree of ``depth`` in the node order of a saved tree: (is a split, left, right)
    per node, children relative to the root, a leaf its own children."""
    if depth == 0:
        return [(0, at, at)]
    left = _full(depth - 1, at + 1)
    right = _full(depth - 1, at + 1 + len(left))
    return [(1, at + 1, at + 1 + len(left)), *left, *right]


# a lone leaf, a stump, a complete tree of depth 3 and one that only grows right
SHAPES = [np.array(s) for s in (_full(0), _full(1), _full(3),
                                [(1, 1, 2), (0, 1, 1), (1, 3, 4), (0, 3, 3), (0, 4, 4)])]
N_FEATURES = 4


@functools.lru_cache
def big_model(n, d):
    """A model of about 60,000 nodes built from random node arrays, with no fit:
    n particles, outputs of length d, and a family and head keys that suit d."""
    rng = np.random.default_rng(10 * n + d)
    rounds = 60_000 // (6 * n) + 7  # not a whole number of the writer's chunks
    picks = rng.integers(len(SHAPES), size=rounds * n)
    nodes = np.concatenate([SHAPES[k] for k in picks])
    sizes = np.array([len(SHAPES[k]) for k in picks])
    split = nodes[:, 0] == 1
    trees = PackedTrees(
        np.where(split, rng.integers(N_FEATURES, size=len(nodes)), -1).astype(np.int32),
        np.where(split, rng.normal(size=len(nodes)), np.nan),
        nodes[:, [2, 1]].astype(np.int32),  # [right, left]
        np.where(split[:, None], 0.0, rng.normal(size=(len(nodes), d))),  # v1 zero-fills splits
        (np.cumsum(sizes) - sizes).astype(np.int32).reshape(rounds, n),
        3,
    )
    head = {1: dict(target_family="categorical", num_classes=2, label_values=["no", "yes"]),
            2: dict(target_family="normal", standardization=Standardization(0.25, 3.5)),
            3: dict(target_family="categorical", num_classes=4, label_values=[1, 2, 3, 4])}[d]
    return WGBoostModel(BoostConfig(n_particles=n, max_iterations=rounds, seed=d),
                        init_particles=rng.normal(size=(n, d)), trees=trees,
                        n_features=N_FEATURES, **head)


def whole_document_text(model):
    """The model file as one json.dumps of the whole document: the writer before save_model
    wrote it in pieces, kept as the oracle of its bytes."""
    trees, n = trees_to_dicts(model.trees, model.n_features), model.trees.roots.shape[1]
    std = model.standardization
    doc = {
        "format_version": 1,
        "target_family": model.target_family,
        "k": model.num_classes,
        "y_mean": None if std is None else std.y_mean,
        "y_std": None if std is None else std.y_std,
        "label_values": model.label_values,
        "n_features": model.n_features,
        "config": _config_to_dict(model.config),
        "init_particles": model.init_particles.tolist(),
        "ensembles": [trees[i::n] for i in range(n)],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_saved_bytes_are_the_whole_document_and_load_gives_back_the_table(tmp_path, n, d):
    model = big_model(n, d)
    assert 55_000 < model.trees.n_nodes < 65_000
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == whole_document_text(model)

    clone = load_model(path)
    want, got = model.trees, clone.trees
    for name in ("feature", "threshold", "children", "value", "roots"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.depth == want.depth == 3
    rows = np.random.default_rng(d).normal(size=(40, N_FEATURES))
    assert np.array_equal(clone.predict(rows), model.predict(rows))
    assert (clone.target_family, clone.num_classes, clone.label_values, clone.standardization) == (
        model.target_family, model.num_classes, model.label_values, model.standardization)


def _traced_peak(call):
    """The most memory Python objects and numpy arrays held at once during ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Traced peaks on big_model(3, 2), 59,752 nodes in a 3.7 MB file: a load took
# 25.8 MB and a save 26.5 MB when each built one object per node of the whole
# model, and 10.8 and 0.8 MB once load packs each tree as the parser ends it
# and save writes 100 trees at a time.

def test_load_holds_the_node_objects_of_one_tree_at_a_time(tmp_path):
    model = big_model(3, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    load_model(path)  # the first call's imports and caches are not the load's
    assert _traced_peak(lambda: load_model(path)) < 17.0


def test_save_holds_the_node_objects_of_one_chunk_at_a_time(tmp_path):
    model = big_model(3, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert _traced_peak(lambda: save_model(model, path)) < 8.0


def test_library_calls_print_nothing_and_leave_no_thread_or_process(tmp_path, capsys):
    """Benchmark drivers read the last stdout line of a run as its result."""
    threads = threading.active_count()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    targets, std = make_regression_targets(X[:, 0] + 0.1 * rng.normal(size=30))
    cfg = BoostConfig(n_particles=3, max_iterations=3, init=InitConfig(steps=20), seed=1)
    model = fit(X, targets, cfg, standardization=std)
    save_model(model, tmp_path / "m.json")
    load_model(tmp_path / "m.json").predict(X)
    assert capsys.readouterr().out == ""
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []
