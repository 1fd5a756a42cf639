import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wgboost.boosting
from wgboost.boosting import (BoostConfig, InitConfig, fit, make_classification_targets,
                              make_regression_targets, save_model)
from wgboost.errors import DataError
from wgboost.tree import (PackedTrees, RegressionTree, TreePacker, TreeParams, _squared_norms,
                          fit_tree, pack_trees, presort, trees_to_dicts)


def brute_force_best_sse(X, Y, min_leaf=1):
    """Exhaustive search over every (feature, midpoint) split.

    Returns the lowest achievable total SSE of a single split, or the parent
    SSE when nothing valid exists.  Quadratic and obvious on purpose.
    """
    n = X.shape[0]
    parent = float(np.sum((Y - Y.mean(axis=0)) ** 2))
    best = parent
    for j in range(X.shape[1]):
        for thr in np.unique(X[:, j])[:-1]:
            mask = X[:, j] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            sse = float(np.sum((Y[mask] - Y[mask].mean(axis=0)) ** 2))
            sse += float(np.sum((Y[~mask] - Y[~mask].mean(axis=0)) ** 2))
            best = min(best, sse)
    return best


def leaf_sse(tree, X, Y):
    """Total SSE of the tree's predictions on its own training data."""
    return float(np.sum((Y - RegressionTree(tree, X.shape[1]).predict(X)) ** 2))


def test_two_point_split():
    X = np.array([[0.0], [1.0]])
    Y = np.array([[0.0], [1.0]])
    tree = fit_tree(X, Y, TreeParams(max_depth=1))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5
    assert np.array_equal(RegressionTree(tree, 1).predict(X), Y)


def test_depth_zero_is_global_mean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 2))
    tree = fit_tree(X, Y, TreeParams(max_depth=0))
    assert tree.n_nodes == 1
    assert np.allclose(RegressionTree(tree, 3).predict(X), Y.mean(axis=0))


def test_constant_targets_never_split():
    X = np.random.default_rng(1).normal(size=(30, 2))
    Y = np.full((30, 3), 2.5)
    tree = fit_tree(X, Y, TreeParams(max_depth=4))
    assert tree.n_nodes == 1


def test_leaves_are_exact_routed_means():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 4))
    Y = rng.normal(size=(80, 3))
    tree = fit_tree(X, Y, TreeParams(max_depth=3))
    preds = RegressionTree(tree, 4).predict(X)
    # group rows by the leaf they land in and compare with the group mean
    leaf_of = np.zeros(80, dtype=int)
    for i in range(80):
        node = 0
        while tree.feature[node] >= 0:
            if X[i, tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        leaf_of[i] = node
    for leaf in np.unique(leaf_of):
        rows = leaf_of == leaf
        assert np.allclose(preds[rows][0], Y[rows].mean(axis=0), atol=1e-12)
        assert np.allclose(preds[rows], preds[rows][0])


def test_split_matches_brute_force_sse():
    """Depth-1 trees achieve exactly the SSE of the best exhaustive split."""
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(4, 30))
        p = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, p)), 1)  # duplicates on purpose
        Y = rng.normal(size=(n, 2))
        tree = fit_tree(X, Y, TreeParams(max_depth=1))
        assert leaf_sse(tree, X, Y) == pytest.approx(brute_force_best_sse(X, Y), abs=1e-9)


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 2))
    Y = rng.normal(size=(40, 1))
    tree = fit_tree(X, Y, TreeParams(max_depth=5, min_samples_leaf=7))
    leaf_counts = {}
    for i in range(40):
        node = 0
        while tree.feature[node] >= 0:
            node = tree.left[node] if X[i, tree.feature[node]] <= tree.threshold[node] else tree.right[node]
        leaf_counts[node] = leaf_counts.get(node, 0) + 1
    assert min(leaf_counts.values()) >= 7


def test_min_samples_split_respected():
    X = np.arange(3, dtype=float)[:, None]
    Y = X.copy()
    tree = fit_tree(X, Y, TreeParams(max_depth=5, min_samples_split=4))
    assert tree.n_nodes == 1


def test_tie_breaks_toward_lowest_feature():
    # both columns are identical, so every split gain ties; the scan must
    # keep feature 0 for reproducibility
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    Y = np.array([[0.0], [0.0], [1.0], [1.0]])
    tree = fit_tree(X, Y, TreeParams(max_depth=1))
    assert tree.feature[0] == 0


def test_duplicate_feature_values_are_not_split_points():
    X = np.array([[1.0], [1.0], [1.0], [2.0]])
    Y = np.array([[0.0], [1.0], [0.0], [5.0]])
    tree = fit_tree(X, Y, TreeParams(max_depth=1))
    # the only legal threshold separates the 1s from the 2
    assert tree.threshold[0] == 1.5
    assert np.allclose(RegressionTree(tree, 1).predict(np.array([1.0])), Y[:3].mean(axis=0))


def test_threshold_routes_like_the_scored_partition():
    # adjacent values whose midpoint rounds back up to the right value:
    # the fitted threshold must still send the left row left
    a = 1.0
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [b]])
    Y = np.array([[0.0], [1.0]])
    tree = fit_tree(X, Y, TreeParams(max_depth=1))
    assert tree.n_nodes == 3
    assert np.array_equal(RegressionTree(tree, 1).predict(X), Y)


def test_fit_is_deterministic():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(60, 3))
    Y = rng.normal(size=(60, 2))
    t1 = fit_tree(X, Y)
    t2 = fit_tree(X, Y)
    assert trees_to_dicts(t1, 3) == trees_to_dicts(t2, 3)


def test_packed_depth_counts_the_deepest_tree():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    Y = rng.normal(size=(80, 2))
    trees = [fit_tree(X, Y, TreeParams(max_depth=depth)) for depth in (2, 0, 4, 1)]
    assert [tree.depth for tree in trees] == [2, 0, 4, 1]
    assert pack_trees(trees[:2]).depth == 2
    assert pack_trees(trees).depth == 4
    hand = TreePacker().pack(trees_to_dicts(trees[2], 3), 3, 2)
    assert hand.depth == 4  # counted from the nodes
    probe = rng.normal(size=(50, 3))
    assert np.array_equal(RegressionTree(hand, 3).predict(probe)[:, 0],
                          RegressionTree(trees[2], 3).predict(probe))


def test_serialization_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    Y = rng.normal(size=(50, 2))
    tree = fit_tree(X, Y, TreeParams(max_depth=3))
    clone = TreePacker().pack(trees_to_dicts(tree, 3), 3, 2)
    probe = rng.normal(size=(200, 3))
    assert np.array_equal(RegressionTree(tree, 3).predict(probe),
                          RegressionTree(clone, 3).predict(probe)[:, 0])
    assert clone.n_nodes == tree.n_nodes


def test_predict_single_row():
    X = np.array([[0.0], [1.0]])
    Y = np.array([[0.0, 5.0], [1.0, 6.0]])
    tree = fit_tree(X, Y, TreeParams(max_depth=1))
    out = RegressionTree(tree, 1).predict(np.array([0.2]))
    assert out.shape == (2,)
    assert np.array_equal(out, Y[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 25), st.integers(0, 3), st.integers(0, 2**31 - 1))
def test_predictions_stay_within_target_hull(n, depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    Y = rng.normal(size=(n, 2))
    tree = fit_tree(X, Y, TreeParams(max_depth=depth))
    preds = RegressionTree(tree, 2).predict(rng.normal(size=(50, 2)))
    assert np.all(preds >= Y.min(axis=0) - 1e-12)
    assert np.all(preds <= Y.max(axis=0) + 1e-12)


def test_input_validation():
    X = np.zeros((3, 1))
    Y = np.zeros((3, 1))
    with pytest.raises(DataError):
        fit_tree(X[:2], Y)
    with pytest.raises(DataError):
        fit_tree(np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(DataError):
        fit_tree(np.zeros((3, 0)), Y)
    with pytest.raises(DataError):
        fit_tree(X, np.array([[np.nan]] * 3))
    with pytest.raises(DataError):
        fit_tree(np.zeros(3), Y)
    tree = fit_tree(X, Y)
    with pytest.raises(ValueError):
        RegressionTree(tree, 1).predict(np.zeros((2, 5)))


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(max_depth=-1)
    with pytest.raises(ValueError):
        TreeParams(min_samples_leaf=0)
    with pytest.raises(ValueError):
        TreeParams(min_samples_split=1)


def reference_fit_tree(X, Y, params=TreeParams(), order=None):
    """``fit_tree`` as it was before presorting: every node argsorts its own rows.

    ``order`` is accepted and ignored, so that this can stand in for fit_tree.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node():
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(node)
        right.append(node)
        value.append(np.zeros(Y.shape[1]))
        return node

    def build(Xs, Ys, depth):
        node = add_node()
        value[node] = Ys.mean(axis=0)
        n = Xs.shape[0]
        if depth >= params.max_depth or n < params.min_samples_split:
            return node
        split = reference_best_split(Xs, Ys, params.min_samples_leaf)
        if split is None:
            return node
        j, thr = split
        mask = Xs[:, j] <= thr
        if not mask.any() or mask.all():
            return node
        feature[node] = j
        threshold[node] = thr
        left[node] = build(Xs[mask], Ys[mask], depth + 1)
        right[node] = build(Xs[~mask], Ys[~mask], depth + 1)
        return node

    build(X, Y, 0)
    # built directly, not through TreePacker, which zero-fills the splits' means
    return PackedTrees(np.array(feature, dtype=np.int32), np.array(threshold),
                       np.array([right, left], dtype=np.int32).T.copy(), np.stack(value),
                       np.zeros((), dtype=np.int32), _tree_depth(feature, left, right))


def _tree_depth(feature, left, right, node=0):
    """The most splits on a path from ``node`` to a leaf, by recursion."""
    if feature[node] < 0:
        return 0
    return 1 + max(_tree_depth(feature, left, right, left[node]),
                   _tree_depth(feature, left, right, right[node]))


def reference_best_split(Xs, Ys, min_leaf):
    n, p = Xs.shape
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    ys = Ys[order]  # (n, p, d)
    csum = np.cumsum(ys, axis=0)
    total = csum[-1, 0]
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    left_sum = csum[:-1]
    right_sum = total[None, None, :] - left_sum
    score = np.sum(left_sum**2, axis=2) / n_left + np.sum(right_sum**2, axis=2) / n_right
    parent = float(np.sum(total**2) / n)
    gain = score - parent
    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    gain[~valid] = -np.inf
    flat = gain.T.ravel()
    best = int(np.argmax(flat))
    if not flat[best] > 1e-12 * max(1.0, abs(parent)):
        return None
    j, pos = divmod(best, n - 1)
    thr = 0.5 * (xs[pos, j] + xs[pos + 1, j])
    if thr >= xs[pos + 1, j]:
        thr = xs[pos, j]
    return int(j), float(thr)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 60),
    p=st.integers(1, 4),
    d=st.sampled_from([1, 2, 3, 7, 8, 9]),  # numpy sums 8 or more terms pairwise
    min_leaf=st.integers(1, 5),
    min_split=st.integers(2, 8),
    depth=st.integers(0, 5),
    integer_targets=st.booleans(),  # exact sums, so equal gains tie exactly
    seed=st.integers(0, 2**32 - 1),
)
def test_presorted_fit_matches_the_per_node_sort(n, p, d, min_leaf, min_split, depth,
                                                 integer_targets, seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, p)), 1)  # duplicates on purpose
    if integer_targets:
        Y = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        Y = rng.normal(size=(n, d))
    params = TreeParams(depth, min_leaf, min_split)
    got, want = fit_tree(X, Y, params), reference_fit_tree(X, Y, params)
    assert trees_to_dicts(got, p) == trees_to_dicts(want, p)
    assert np.array_equal(got.value, want.value)
    assert trees_to_dicts(fit_tree(X, Y, params, presort(X)), p) == trees_to_dicts(want, p)


@pytest.mark.parametrize("a, b", [(1.0, np.nextafter(1.0, 2.0)), (np.nextafter(1.0, 0.0), 1.0)],
                         ids=["midpoint-is-a", "midpoint-rounds-up-to-b"])
def test_children_of_a_fallback_threshold_split_further(a, b):
    # adjacent floats: the midpoint of 1 and the next float up is exactly a, but
    # that of 1 and the next one down rounds up to b, and the threshold falls
    # back to a; the presorted rows of both children must follow "<= threshold"
    assert 0.5 * (a + b) == (a if a == 1.0 else b)
    X = np.array([[a, 0.0], [a, 1.0], [b, 0.0], [b, 1.0]])
    Y = np.array([[0.0], [1.0], [10.0], [11.0]])
    tree = fit_tree(X, Y, TreeParams(max_depth=2))
    want = reference_fit_tree(X, Y, TreeParams(max_depth=2))
    assert trees_to_dicts(tree, 2) == trees_to_dicts(want, 2)
    assert tree.threshold[0] == a and tree.n_nodes == 7
    assert np.array_equal(RegressionTree(tree, 2).predict(X), Y)


@pytest.mark.parametrize("exponent, min_leaf", [
    pytest.param(600, 1, id="600"), pytest.param(1000, 1, id="1000"),
    pytest.param(1000, 3, id="1000-min_leaf3"),  # the redo scans a min-leaf slice too
])
def test_targets_near_the_float_range_split_like_small_ones(exponent, min_leaf):
    """Y * 2^e squares past the float range, yet splits exactly as Y, with no warning."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    Y = np.column_stack([np.sin(2 * X[:, 0]), X[:, 1] + 0.1 * rng.normal(size=40)])
    params = TreeParams(max_depth=3, min_samples_leaf=min_leaf)
    small = fit_tree(X, Y, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = fit_tree(X, np.ldexp(Y, exponent), params)
    assert np.array_equal(huge.feature, small.feature)
    assert np.array_equal(huge.threshold, small.threshold, equal_nan=True)
    assert np.array_equal(huge.value, np.ldexp(small.value, exponent))


@pytest.mark.parametrize("d", range(1, 13))
def test_squared_norms_add_like_numpy_sum(d):
    # the per-node search summed each contiguous d-vector with np.sum
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, 4, 50)) * np.exp(rng.normal(scale=5.0, size=(d, 4, 50)))
    want = np.sum(np.ascontiguousarray(np.moveaxis(a, 0, -1)) ** 2, axis=-1)
    assert np.array_equal(_squared_norms(a), want)


def test_order_must_have_the_presort_shape():
    X = np.random.default_rng(2).normal(size=(10, 3))
    Y = np.ones((10, 1))
    with pytest.raises(ValueError, match="presort"):
        fit_tree(X, Y, order=presort(X).T)
    with pytest.raises(ValueError, match="presort"):
        fit_tree(X, Y, order=presort(X[:9]))


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_presorted_boosting_saves_the_same_bytes(tmp_path, monkeypatch, task):
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(70, 3)), 1)
    if task == "regression":
        targets, _ = make_regression_targets(np.sin(X[:, 0]) + 0.3 * rng.normal(size=70))
    else:
        targets = make_classification_targets(1 + (X[:, 0] > 0) + (X[:, 1] > 0.5))
    cfg = BoostConfig(n_particles=4, max_iterations=6, learning_rate=0.3,
                      tree=TreeParams(max_depth=3), init=InitConfig(steps=10), seed=3)
    paths = []
    for fitter in (fit_tree, reference_fit_tree):
        monkeypatch.setattr(wgboost.boosting, "fit_tree", fitter)
        paths.append(tmp_path / f"{fitter.__name__}.json")
        save_model(fit(X, targets, cfg), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
