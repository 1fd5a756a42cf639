"""Multi-output regression trees (CART, exhaustive squared-error search).

The weak learner of the boosting loop.  Fitting is greedy and top-down: at
each node every feature is scanned in sorted order and the split maximizing
the total squared-error reduction, summed over all output coordinates, is
taken.  Candidate thresholds are midpoints between consecutive distinct
feature values; rows with value <= threshold go left.  Ties are broken toward
the lowest feature index, then the lowest threshold, so refits are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class RegressionTree:
    """Fitted tree stored as flat parallel node arrays (feature -1 marks a leaf)."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "n_features")

    def __init__(self, feature, threshold, left, right, value, n_features: int):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=float)
        self.n_features = int(n_features)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.value.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route rows to leaves.  (p,) -> (d,); (T, p) -> (T, d)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        Xb = X[None, :] if single else X
        if Xb.ndim != 2 or Xb.shape[1] != self.n_features:
            raise ValueError(f"expected rows with {self.n_features} features, got shape {X.shape}")
        idx = np.zeros(Xb.shape[0], dtype=np.int32)
        active = self.feature[idx] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            cur = idx[rows]
            go_left = Xb[rows, self.feature[cur]] <= self.threshold[cur]
            idx[rows] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[idx] >= 0
        out = self.value[idx]
        return out[0] if single else out

    def to_dict(self) -> dict:
        nodes = []
        for i in range(self.n_nodes):
            if self.feature[i] < 0:
                nodes.append({"value": self.value[i].tolist()})
            else:
                nodes.append(
                    {
                        "feature": int(self.feature[i]),
                        "threshold": float(self.threshold[i]),
                        "left": int(self.left[i]),
                        "right": int(self.right[i]),
                    }
                )
        return {"n_features": self.n_features, "nodes": nodes}

    @classmethod
    def from_dict(cls, doc: dict) -> "RegressionTree":
        """Rebuild a tree from :meth:`to_dict` output.

        Raises DataError unless the tree has leaves, all with values of one
        length, and every split has a float threshold (not NaN), an integer
        feature in [0, n_features) and integer children after it, so that
        routing always ends at a leaf.
        """
        nodes, n_features = doc["nodes"], doc["n_features"]
        n = len(nodes)
        dims = {len(nd["value"]) for nd in nodes if "value" in nd}
        if len(dims) != 1:
            raise DataError(f"tree needs leaves with values of one length, got lengths {sorted(dims)}")
        value = np.zeros((n, dims.pop()))
        splits = [(-1, np.nan, -1, -1)] * n  # (feature, threshold, left, right); leaves keep this
        for i, nd in enumerate(nodes):
            if "value" in nd:
                value[i] = nd["value"]
            else:
                j, thr, lo, hi = nd["feature"], nd["threshold"], nd["left"], nd["right"]
                if not (type(j) is type(lo) is type(hi) is int and type(thr) is float and thr == thr
                        and 0 <= j < n_features and i < lo < n and i < hi < n):
                    raise DataError(
                        f"tree node {i} splits on feature {j!r} at {thr!r} into nodes {lo!r} and "
                        f"{hi!r}; need a float threshold and integers with 0 <= feature < "
                        f"{n_features} and {i} < child < {n}"
                    )
                splits[i] = (j, thr, lo, hi)
        return cls(*zip(*splits), value, n_features)


def fit_tree(X: np.ndarray, Y: np.ndarray, params: TreeParams = TreeParams()) -> RegressionTree:
    """Fit a tree to features X (D, p) and targets Y (D, d).

    Every leaf value is the exact mean of the target rows routed to it.  A
    node becomes a leaf when it reaches max_depth, holds fewer than
    min_samples_split rows, or no candidate split reduces the squared error.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2:
        raise DataError(f"expected 2-d features and targets, got {X.shape} and {Y.shape}")
    if X.shape[0] != Y.shape[0]:
        raise DataError(f"features and targets disagree in length: {X.shape[0]} vs {Y.shape[0]}")
    if X.shape[0] == 0:
        raise DataError("cannot fit a tree on an empty dataset")
    if not np.all(np.isfinite(X)):
        raise DataError("tree features contain non-finite values")
    if not np.all(np.isfinite(Y)):
        raise DataError("tree targets contain non-finite values")

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []

    def add_node() -> int:
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(np.zeros(Y.shape[1]))
        return len(feature) - 1

    def build(Xs: np.ndarray, Ys: np.ndarray, depth: int) -> int:
        node = add_node()
        value[node] = Ys.mean(axis=0)
        n = Xs.shape[0]
        if depth >= params.max_depth or n < params.min_samples_split:
            return node
        split = _best_split(Xs, Ys, params.min_samples_leaf)
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
    return RegressionTree(feature, threshold, left, right, np.stack(value), X.shape[1])


def _best_split(Xs: np.ndarray, Ys: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """Scan all features at once; return (feature, threshold) or None.

    Uses the identity SSE(parent) - SSE(children) =
    sum_parts |sum Y|^2 / count - |sum Y|^2 / n, evaluated for all split
    positions from per-feature prefix sums.
    """
    n, p = Xs.shape
    if n < 2 * min_leaf:
        return None
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    ys = Ys[order]  # (n, p, d)
    csum = np.cumsum(ys, axis=0)
    total = csum[-1, 0]  # (d,), identical across features
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    left_sum = csum[:-1]
    right_sum = total[None, None, :] - left_sum
    score = np.sum(left_sum**2, axis=2) / n_left + np.sum(right_sum**2, axis=2) / n_right
    parent = float(np.sum(total**2) / n)
    gain = score - parent

    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    gain[~valid] = -np.inf
    flat = gain.T.ravel()  # feature-major, so argmax tie-breaks on feature then threshold
    best = int(np.argmax(flat))
    if not flat[best] > _GAIN_TOL * max(1.0, abs(parent)):
        return None
    j, pos = divmod(best, n - 1)
    thr = 0.5 * (xs[pos, j] + xs[pos + 1, j])
    if thr >= xs[pos + 1, j]:
        # midpoint rounded up to the right value; fall back to the left one
        # so that "<= threshold" reproduces the scored partition
        thr = xs[pos, j]
    return int(j), float(thr)
