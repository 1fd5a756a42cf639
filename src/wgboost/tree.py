"""Multi-output regression trees (CART, exhaustive squared-error search).

The weak learner of the boosting loop.  Fitting is greedy and top-down: at
each node every feature is scanned in sorted order and the split maximizing
the total squared-error reduction, summed over all output coordinates, is
taken.  Candidate thresholds are midpoints between consecutive distinct
feature values; rows with value <= threshold go left.  Ties are broken toward
the lowest feature index, then the lowest threshold, so refits are
reproducible bit for bit.

Features are sorted once per fit, not once per node (CART presorting, as in
XGBoost's exact-greedy column blocks): :func:`presort` gives, for every
feature, the row ids stably sorted by that feature.  A node holds its rows in
that sorted order, together with their values of each feature in the same
order, and its children get both by one stable partition of the node's.  A
stable partition of a stable argsort is the stable argsort of the subset, so
every split is the one a per-node sort would find.  The boosting loop
presorts its rows once and hands the order to all the trees it fits.

A fitted tree is a one-tree :class:`PackedTrees`, the node table a model keeps
for all of its trees; :class:`RegressionTree` adds its feature count, for
checked prediction.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError

#: Gains at or below this (relative to the parent score) do not split a node.
_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 3
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


class PackedTrees(NamedTuple):
    """The node arrays of one or more trees, concatenated in the order of ``roots.ravel()``.

    ``roots`` may have any shape, such as a model's (M, N): round m's tree for
    particle i is ``roots[m, i]``.  Every tree keeps its own encoding:
    feature -1 marks a leaf, children are indices relative to the tree's
    root, and a leaf is its own left and right child, so routing that steps
    past a leaf stays there.  ``depth`` bounds the splits on any path from a
    root to a leaf (0 when every tree is a lone leaf): :func:`route` takes
    exactly that many steps.

    ``children`` holds each node's children as ``[right, left]``, so that
    ``children[node, x <= threshold]`` is the next node, and NaN, which
    compares False, goes right.  ``left`` and ``right`` are views of it.
    """

    feature: np.ndarray  # (n_nodes,) int32
    threshold: np.ndarray  # (n_nodes,) float
    children: np.ndarray  # (n_nodes, 2) int32: [right, left]
    value: np.ndarray  # (n_nodes, d) float
    roots: np.ndarray  # int32, any shape: each tree's root node
    depth: int  # the most splits on a path from a root to a leaf

    left = property(lambda self: self.children[:, 1])
    right = property(lambda self: self.children[:, 0])
    n_nodes = property(lambda self: self.feature.shape[0])


_COLUMNS = ("feature", "threshold", "children", "value")


class RegressionTree:
    """Packed trees (``nodes``, see :class:`PackedTrees`) and the number of
    features their splits index, for checked prediction: wrap a
    :func:`fit_tree` result as ``RegressionTree(nodes, n_features)``."""

    __slots__ = ("nodes", "n_features")

    def __init__(self, nodes: PackedTrees, n_features: int):
        self.nodes, self.n_features = nodes, n_features

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route rows to the leaves of every tree: (T, p) -> (T, *roots.shape, d);
        (p,) -> (*roots.shape, d)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        Xb = X[None, :] if single else X
        if Xb.ndim != 2 or Xb.shape[1] != self.n_features:
            raise ValueError(f"expected rows with {self.n_features} features, got shape {X.shape}")
        out = np.take(self.nodes.value, route(self.nodes, Xb, self.nodes.roots), axis=0)
        return out[0] if single else out


def trees_to_dicts(packed: PackedTrees, n_features: int, trees=slice(None)) -> list[dict]:
    """Trees of ``packed`` as a model file (format_version 1) writes them:
    ``{"n_features": n_features, "nodes": [...]}``, a leaf ``{"value": [...]}`` and a split
    ``{"feature", "threshold", "left", "right"}``, children relative to the tree's root.

    ``trees`` picks them by their position in ``roots.ravel()`` (all, by default),
    in the order it gives; a tree's nodes run from its root to the next tree's.
    The node objects of every picked tree exist at once: a caller that writes many
    trees asks for a few at a time."""
    first = packed.roots.ravel()
    last = np.append(first[1:], packed.n_nodes)  # one past each tree's last node
    columns = [packed.feature, packed.threshold, packed.left, packed.right, packed.value]
    docs = []
    for a, b in zip(first[trees].tolist(), last[trees].tolist()):
        nodes = [{"value": v} if j < 0 else {"feature": j, "threshold": t, "left": lo, "right": hi}
                 for j, t, lo, hi, v in zip(*(column[a:b].tolist() for column in columns))]
        docs.append({"n_features": n_features, "nodes": nodes})
    return docs


class _Tree:
    """What :class:`TreePacker` keeps of a tree: where its nodes and its values start in
    the packer's lists, its node count and n_features, the lengths of its leaf values
    (None when they could not be read), and the end of the message naming its fault."""

    __slots__ = ("start", "value_start", "size", "n_features", "dims", "error")


class TreePacker:
    """Packs the tree objects of a model file (format_version 1) into flat node lists.

    As the ``object_hook`` of ``json.load`` (:meth:`hook`), it packs each tree
    object (any object with ``"nodes"``, wherever it sits) as soon as the parser
    has read it and leaves a :class:`_Tree` in its place, so the objects of one
    tree at most are alive at a time.  A fault is recorded, not raised: the
    parser meets the trees in file order, before the model's feature count and
    particles, and :meth:`pack` checks every tree against those and names the
    first faulty tree in the order it is given.  :meth:`pack` empties the
    packer's lists as it turns them into arrays.
    """

    def __init__(self):
        # one flat list per node array: tuples per node would be tracked by the garbage collector
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children: list[int] = []  # [right, left] pairs, flattened
        self.value: list[float] = []  # value rows, flattened; zeros at splits

    def hook(self, obj: dict):
        """The ``object_hook``: a tree object is packed, any other object returned as it is."""
        return self.add(obj) if "nodes" in obj else obj

    def add(self, doc) -> _Tree:
        """Pack one tree object, or record why it is not one."""
        tree = _Tree()
        tree.start, tree.value_start, tree.size = len(self.feature), len(self.value), 0
        tree.n_features = tree.dims = tree.error = None
        feature, threshold, children, value = (self.feature, self.threshold, self.children,
                                               self.value)
        try:
            nodes, n_features = doc["nodes"], doc["n_features"]
            if type(nodes) is not list or type(n_features) is not int:
                tree.error = (f" needs a list of 'nodes' and an integer 'n_features', got "
                              f"{type(nodes).__name__} and {n_features!r}")
                return tree
            tree.n_features = n_features
            tree.dims = tuple(sorted({len(nd["value"]) for nd in nodes if "value" in nd}))
            if len(tree.dims) != 1:
                return tree
            n = tree.size = len(nodes)
            features = min(n_features, 2**31)  # the feature column is int32
            zeros = [0.0] * tree.dims[0]
            for i, nd in enumerate(nodes):
                if "value" in nd:
                    j, thr, lo, hi = -1, np.nan, i, i
                    value.extend(nd["value"])
                else:
                    j, thr, lo, hi = nd["feature"], nd["threshold"], nd["left"], nd["right"]
                    if not (type(j) is type(lo) is type(hi) is int and type(thr) is float
                            and thr == thr and 0 <= j < features and i < lo < n and i < hi < n):
                        tree.error = (f" node {i} splits on feature {j!r} at {thr!r} into nodes "
                                      f"{lo!r} and {hi!r}; need a float threshold and integers "
                                      f"with 0 <= feature < {features} and {i} < child < {n}")
                        return tree
                    value.extend(zeros)
                feature.append(j)
                threshold.append(thr)
                children.append(hi)
                children.append(lo)
        except KeyError as err:
            tree.error = f" or a node of it lacks the key {err.args[0]!r}"
        except TypeError as err:  # a tree or node that is not an object, a value without a length
            tree.error = f" is malformed: {err}"
        return tree

    def pack(self, trees: Sequence, n_features: int, dim: int,
             name: Callable[[int], str] = "tree {}".format) -> PackedTrees:
        """The trees, in the order given, as one packed set of a model that maps
        ``n_features`` features to ``dim`` outputs.

        ``trees`` holds what the packer left in a parsed document, or tree
        objects, which are packed here.  Raises DataError unless every tree is an
        object with a list of node objects and the model's ``n_features``, every
        tree has leaves, all with ``dim`` finite numbers, and every split has a
        float threshold (not NaN), an integer feature in [0, n_features), and
        below 2**31, and integer children after it, so that routing always ends
        at a leaf.  The error names the first faulty tree as ``name(t)``, t its
        position in ``trees``.
        """
        trees = [t if type(t) is _Tree else self.add(t) for t in trees]
        if not trees:
            return pack_trees([])
        for t, tree in enumerate(trees):
            if tree.error is not None:
                raise DataError(name(t) + tree.error)
            if tree.n_features != n_features or tree.dims != (dim,):
                raise DataError(f"{name(t)} has n_features {tree.n_features} and leaf lengths "
                                f"{list(tree.dims)}; the model needs {n_features} and [{dim}]")
        try:
            values = _drain(self.value)  # no dtype: strings or nulls must not convert
        except ValueError as err:  # nested lists of uneven shape
            raise DataError(f"tree leaf 'value' entries must be lists of numbers: {err}") from None
        if values.dtype.kind not in "fi" or values.ndim != 1:
            raise DataError(f"tree leaf 'value' entries must be lists of numbers, got "
                            f"{values.dtype} entries")
        start, value_start, size = (np.array([getattr(tree, key) for tree in trees])
                                    for key in ("start", "value_start", "size"))
        roots = np.cumsum(size) - size  # each tree's root in the packed set
        # each packed node's place in the lists, and the place of its value row
        node = np.repeat(start - roots, size) + np.arange(roots[-1] + size[-1])
        row = np.repeat(value_start - start * dim, size) + node * dim
        feature = _drain(self.feature, np.int32)[node]
        children = _drain(self.children, np.int32).reshape(-1, 2)[node]
        threshold = _drain(self.threshold, float)[node]
        value = values.astype(float, copy=False)[row[:, None] + np.arange(dim)]
        if not np.isfinite(value).all():
            raise DataError("tree leaf 'value' entries must be finite numbers")
        roots = roots.astype(np.int32)
        return PackedTrees(feature, threshold, children, value, roots,
                           len(_levels(feature, children[:, 1], children[:, 0], roots)) - 1)


def _drain(items: list, dtype=None) -> np.ndarray:
    """``items`` as an array, emptying the list: its number objects take several times the room."""
    out = np.array(items, dtype=dtype)
    items.clear()
    return out


def pack_trees(parts: Sequence[PackedTrees]) -> PackedTrees:
    """Concatenate packed sets (outputs of one length), their trees in order, with flat roots."""
    if not parts:
        empty = np.zeros(0, dtype=np.int32)
        return PackedTrees(empty, np.zeros(0), empty.reshape(0, 2), np.zeros((0, 0)), empty, 0)
    offsets = np.cumsum([0, *(p.n_nodes for p in parts[:-1])], dtype=np.int32)
    return PackedTrees(
        *(np.concatenate([getattr(p, name) for p in parts]) for name in _COLUMNS),
        np.concatenate([p.roots.ravel() + a for p, a in zip(parts, offsets)]),
        max(p.depth for p in parts),
    )


def _levels(feature: np.ndarray, left: np.ndarray, right: np.ndarray,
            roots: np.ndarray) -> list[np.ndarray]:
    """The node ids of packed trees, level by level; the set's depth is one less than their count.

    A node's level is the most splits on a path to it from a node that no
    split points to (a root, or a node nothing reaches).  Each node is placed
    once, when the last split pointing to it has been placed (Kahn's
    topological order, a level at a time): a loaded tree may send two splits
    to one child, and a frontier that followed every edge would then double
    with every level.  Children must come after their parents.
    """
    n = feature.shape[0]
    roots = np.ravel(roots)
    base = np.repeat(roots, np.diff(roots, append=n))  # each node's root
    split = feature >= 0
    left, right = left + base, right + base  # node ids in the packed set
    # the splits pointing to each node that are not placed yet
    pending = np.bincount(np.concatenate([left[split], right[split]]), minlength=n)
    seen = np.empty(n, dtype=np.intp)
    out = []
    level = np.flatnonzero(pending == 0)
    while level.size:
        out.append(level)
        parents = level[split[level]]
        level = np.concatenate([left[parents], right[parents]])
        np.subtract.at(pending, level, 1)
        level = level[pending[level] == 0]  # a child of two of these splits comes twice
        # keep one position of each node: the last write to ``seen`` wins.
        # (np.unique would sort, and raised the serve workload's peak RSS by 2%)
        at = np.arange(level.size)
        seen[level] = at
        level = level[seen[level] == at]
    return out


def route(packed: PackedTrees, X: np.ndarray, roots) -> np.ndarray:
    """The leaf of every (row, tree) pair: X (T, p), roots (*s) -> node ids (T, *s).

    Every pair steps down ``packed.depth`` times, with no test for the end: a
    pair that reaches a leaf early stays there, as a leaf is its own child.
    Rows with value <= threshold go left; NaN goes right.  A step is one take
    from the flat ``[right, left]`` pairs of ``packed.children``, at
    ``2 * node + (x <= threshold)``.  Callers gather the leaf values
    (``packed.value``) in the layout they need.
    """
    roots = np.asarray(roots)
    rel = np.zeros((X.shape[0], *roots.shape), dtype=np.int32)  # each pair's node, from its root
    # Each pair's row offset into X, so that one 1-d take reads the features
    # (int32 while it fits: mixed-width index sums are slow).  At a leaf,
    # feature -1 reads another entry of X, harmless as a leaf is its own child.
    offset = np.arange(X.shape[0], dtype=np.int32 if X.size < 2**31 else np.intp) * X.shape[1]
    base = offset.reshape(-1, *(1,) * roots.ndim)
    flat = np.ascontiguousarray(X).ravel()
    pairs = packed.children.ravel()
    for _ in range(packed.depth):
        node = roots + rel
        x = np.take(flat, base + np.take(packed.feature, node))
        rel = np.take(pairs, 2 * node + (x <= np.take(packed.threshold, node)))
    return roots + rel


def presort(X: np.ndarray) -> np.ndarray:
    """Row ids of X (D, p) stably sorted by each feature: a (p, D) array."""
    return np.argsort(np.asarray(X, dtype=float).T, axis=1, kind="stable")


def fit_tree(X: np.ndarray, Y: np.ndarray, params: TreeParams = TreeParams(),
             order: np.ndarray | None = None) -> PackedTrees:
    """Fit a tree to features X (D, p) and targets Y (D, d): a one-tree set, roots of shape ().

    Every leaf value is the exact mean of the target rows routed to it.  A
    node becomes a leaf when it reaches max_depth, holds fewer than
    min_samples_split rows, or no candidate split reduces the squared error.

    ``order`` is ``presort(X)``, for callers that fit many trees on one X;
    it is computed here when None.  Only its shape, (p, D), is checked.
    Such callers also pass X column-major (``np.asfortranarray``), which
    spares every tree a transposed copy.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise DataError(f"expected 2-d features and targets, got {X.shape} and {Y.shape}")
    if X.shape[0] != Y.shape[0]:
        raise DataError(f"features and targets disagree in length: {X.shape[0]} vs {Y.shape[0]}")
    if X.shape[0] == 0:
        raise DataError("cannot fit a tree on an empty dataset")
    if X.shape[1] == 0:
        raise DataError("cannot fit a tree without feature columns")
    if not np.all(np.isfinite(X)):
        raise DataError("tree features contain non-finite values")
    if not np.all(np.isfinite(Y)):
        raise DataError("tree targets contain non-finite values")
    if order is None:
        order = presort(X)
    elif np.shape(order) != X.shape[::-1]:
        raise ValueError(f"order must be presort(X), of shape {X.shape[::-1]}, got "
                         f"{np.shape(order)}")
    XT, YT, Y = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T), np.ascontiguousarray(Y)
    p = XT.shape[0]
    max_depth, min_leaf = params.max_depth, params.min_samples_leaf
    min_split = max(params.min_samples_split, 2 * min_leaf)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []
    deepest = 0

    def build(rows: np.ndarray, order: np.ndarray, xs: np.ndarray, keep: np.ndarray | None,
              depth: int) -> int:
        """Grow the subtree of ``rows`` (in index order).

        Its rows sorted by each feature, and their values of that feature, are
        ``order[keep]`` and ``xs[keep]``: a stable partition of the parent's
        (all of ``order`` and ``xs`` when ``keep`` is None), taken only if the
        node can split.
        """
        nonlocal deepest
        deepest = max(deepest, depth)
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(node)
        right.append(node)
        value.append(np.add.reduce(Y.take(rows, axis=0), axis=0) / rows.size)  # Y[rows].mean(0)
        if depth >= max_depth or rows.size < min_split:
            return node
        if keep is not None:  # a take by index: boolean gathers branch on every entry
            keep = keep.ravel().nonzero()[0]
            order, xs = order.take(keep).reshape(p, rows.size), xs.take(keep).reshape(p, rows.size)
        split = _best_split(xs, YT, order, min_leaf)
        if split is None:
            return node
        j, thr = split
        feature[node] = j
        threshold[node] = thr
        # The threshold sends the pos + 1 >= min_leaf smallest values of
        # feature j left and at least min_leaf rows right: both children hold rows.
        x = XT[j]
        mask = x.take(rows) <= thr
        goes_left = x.take(order) <= thr  # (p, n), in each feature's sorted order
        left[node] = build(rows[mask], order, xs, goes_left, depth + 1)
        right[node] = build(rows[~mask], order, xs, ~goes_left, depth + 1)
        return node

    # the split search redoes an overflow scaled (see _best_split); a leaf
    # mean whose sum overflows is inf, which the boosting loop reports
    with np.errstate(over="ignore", invalid="ignore"):
        build(np.arange(X.shape[0]), order, np.take_along_axis(XT, order, axis=1), None, 0)
    return PackedTrees(np.array(feature, dtype=np.int32), np.array(threshold),
                       np.array([right, left], dtype=np.int32).T.copy(), np.array(value),
                       np.zeros((), dtype=np.int32), deepest)


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """Squared norms over the first axis of ``a`` (d, ...).

    Bit for bit what ``np.sum(v**2, axis=-1)`` gives for each contiguous
    vector ``v``: numpy sums fewer than 8 terms left to right, which the
    whole-array adds here repeat; from 8 terms on it sums pairwise, so np.sum
    stays.
    """
    if a.shape[0] >= 8:
        return np.sum(np.ascontiguousarray(np.moveaxis(a, 0, -1)) ** 2, axis=-1)
    out = a[0] ** 2
    for k in range(1, a.shape[0]):
        out += a[k] ** 2
    return out


def _best_split(xs: np.ndarray, YT: np.ndarray, order: np.ndarray,
                min_leaf: int) -> tuple[int, float] | None:
    """Scan all features at once; return (feature, threshold) or None.

    ``order`` holds the node's (p, n) row ids sorted by each feature, ``xs``
    their values of that feature, and YT (d, D) the transposed targets; the
    node has at least 2 * min_leaf rows.  Uses the identity SSE(parent) -
    SSE(children) = sum_parts |sum Y|^2 / count - |sum Y|^2 / n, evaluated
    from per-feature prefix sums for every split position that leaves
    min_leaf rows on each side.  The caller ignores overflow and invalid
    warnings: an overflow is redone scaled, below.
    """
    p, n = order.shape
    lo, hi = min_leaf - 1, n - min_leaf  # split after sorted position lo, ..., hi - 1
    csum = YT.take(order, axis=1).cumsum(axis=2)  # (d, p, n): contiguous prefix sums
    total = csum[:, 0, -1]  # (d,), identical across features
    left_sum = csum[..., lo:hi]
    right_sum = total[:, None, None] - left_sum
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    score = _squared_norms(left_sum) / n_left + _squared_norms(right_sum) / (n - n_left)
    parent = float(np.add.reduce(total**2) / n)
    gain = score - parent
    gain[xs[:, lo + 1:hi + 1] == xs[:, lo:hi]] = -np.inf  # no threshold between equal values
    flat = gain.ravel()  # feature-major, so argmax tie-breaks on feature then threshold
    best = int(flat.argmax())  # the first nan, if there is one
    if not (math.isfinite(parent) and flat[best] < np.inf):
        # Sums or squares of targets near the float range overflowed.  Every
        # gain scales with the square of Y, so Y / 2^e, exact and at most 1 in
        # size, has the same best split.
        e = np.frexp(np.max(np.abs(YT[:, order[0]])))[1]
        return _best_split(xs, np.ldexp(YT, -e), order, min_leaf)
    if not flat[best] > _GAIN_TOL * max(1.0, abs(parent)):
        return None
    j, pos = divmod(best, hi - lo)
    pos += lo
    thr = 0.5 * (xs[j, pos] + xs[j, pos + 1])
    if thr >= xs[j, pos + 1]:
        # midpoint rounded up to the right value; fall back to the left one
        # so that "<= threshold" reproduces the scored partition
        thr = xs[j, pos]
    return int(j), float(thr)
