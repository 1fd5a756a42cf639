"""The boosting loop: N parallel tree ensembles emitting particles.

A model maps an input x to N particles in R^d.  Fitting keeps a cached
particle matrix F of shape (D, N, d) over the training rows; each iteration
computes the chosen update direction for every row, fits one tree per
particle index to the direction rows, and advances the whole cache by
learning_rate times the tree predictions.  The features are sorted once per
fit (``tree.presort``), and every tree reads its split candidates in that order.

A model is one table of node arrays (``tree.PackedTrees``), roots[m, i] the
tree of round m for particle i.  Prediction replays the cache update from it:
it routes every row through the trees of a block of rounds at once
(``tree.route``), then adds each round's learning_rate times leaf values in
round order, so staged predictions agree with the cache bit for bit.

All randomness (initializer draw, Langevin noise, the early-stopping
validation split) comes from independent streams derived from the single
config seed, which makes repeat runs byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataio import FORMAT_VERSION, atomic_file
from .directions import DirectionKind, compute_direction
from .errors import ConfigError, DataError, NumericError
from .evaluate import STD_FLOOR, Standardization, predictive_nll_categorical, predictive_nll_normal
from .kernel import KernelConfig
from .targets import CategoricalTarget, EvidentialTarget, NormalLocationScaleTarget
from .tree import (PackedTrees, RegressionTree, TreePacker, TreeParams, fit_tree, pack_trees,
                   presort, route, trees_to_dicts)

#: Most (row, tree) pairs one ``route`` call of prediction holds: it bounds
#: the rounds-major (B, T, N, d) block of leaf values that ``predict`` sums
#: in one call, while keeping the per-call overhead small.
_ROUTE_PAIRS = 1 << 16


@dataclass(frozen=True)
class InitConfig:
    """Initializer: averaged particle updates before any tree is fitted."""

    rate: float = 0.01
    steps: int = 5000

    def __post_init__(self) -> None:
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"init.rate must be a positive finite number, got {self.rate}")
        if self.steps < 0:
            raise ValueError("init.steps must be >= 0")


@dataclass(frozen=True)
class BoostConfig:
    """Everything a fit depends on besides the data.

    The learning rate default suits regression; classification runs are
    usually trained with 0.4 (see :func:`task_config`).
    """

    n_particles: int = 10
    max_iterations: int = 500
    learning_rate: float = 0.1
    direction: DirectionKind = DirectionKind.DIAG_NEWTON
    kernel: KernelConfig = KernelConfig()
    tree: TreeParams = TreeParams()
    init: InitConfig = InitConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", DirectionKind(self.direction))
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be a positive finite number, got "
                             f"{self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class Setting(NamedTuple):
    """One boost setting: its flat key, where it lives in BoostConfig, its type."""

    key: str
    group: str | None  # None for a BoostConfig field, else "kernel", "tree" or "init"
    name: str  # the field name inside the group
    type: type


#: Every BoostConfig setting once.  The flat keys are the CLI's ``boost`` keys
#: and flags (the seed is a top-level run key there) and the model JSON keys.
SETTINGS = (
    Setting("n_particles", None, "n_particles", int),
    Setting("max_iterations", None, "max_iterations", int),
    Setting("learning_rate", None, "learning_rate", float),
    Setting("direction", None, "direction", str),
    Setting("kernel_scale", "kernel", "scale", float),
    Setting("max_depth", "tree", "max_depth", int),
    Setting("min_samples_leaf", "tree", "min_samples_leaf", int),
    Setting("min_samples_split", "tree", "min_samples_split", int),
    Setting("init_rate", "init", "rate", float),
    Setting("init_steps", "init", "steps", int),
    Setting("seed", None, "seed", int),
)

#: Groups that the model JSON (format_version 1) nests by their field names;
#: the other settings sit at the top level under their flat keys.
_JSON_GROUPS = ("tree", "init")

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def check_type(key: str, value, kind: type | tuple) -> None:
    """Raise ConfigError naming ``key`` unless ``value`` is of type ``kind``.

    An int passes for a float; a bool passes only for a bool.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if isinstance(value, bool) and k is not bool:
            continue
        if isinstance(value, (int, float) if k is float else k):
            return
    names = " or ".join(_TYPE_NAMES[k] for k in kinds)
    raise ConfigError(f"{key} must be {names}, got {value!r}")


def config_from_settings(flat: dict, base: BoostConfig = BoostConfig()) -> BoostConfig:
    """``base`` with the flat settings applied; a None value keeps the base one.

    A value of the wrong type raises ConfigError, an out-of-range one ValueError.
    """
    groups: dict = {None: {}, "kernel": {}, "tree": {}, "init": {}}
    for s in SETTINGS:
        value = flat.get(s.key)
        if value is not None:
            check_type(s.key, value, s.type)
            groups[s.group][s.name] = value
    nested = {g: replace(getattr(base, g), **groups[g]) for g in ("kernel", "tree", "init")}
    return replace(base, **groups[None], **nested)


def task_config(task: str, **overrides) -> BoostConfig:
    """Benchmark defaults per task: lr 0.1 (regression) or 0.4 (classification)."""
    if task == "regression":
        base = {"learning_rate": 0.1, "max_iterations": 4000}
    elif task == "classification":
        base = {"learning_rate": 0.4, "max_iterations": 4000}
    else:
        raise ValueError(f"unknown task {task!r}")
    base.update(overrides)
    return BoostConfig(**base)


@dataclass
class WGBoostModel:
    config: BoostConfig
    target_family: str
    init_particles: np.ndarray  # (N, d)
    trees: PackedTrees  # roots (M, N): the tree of round m for particle i is roots[m, i]
    n_features: int
    num_classes: int | None = None
    standardization: Standardization | None = None
    label_values: list | None = None
    train_trace: list[float] = field(default_factory=list, repr=False, compare=False)

    @property
    def n_iterations(self) -> int:
        return self.trees.roots.shape[0]

    def predict(self, X: np.ndarray, num_trees: int | None = None) -> np.ndarray:
        """Particle outputs for rows of X: (T, p) -> (T, N, d), (p,) -> (N, d).

        ``num_trees`` truncates the ensembles.  Each block of rounds is summed
        in one call, in round order, so the result is the last stage of
        :meth:`staged_predict` bit for bit.
        """
        blocks = self._blocks(X, num_trees)
        F = next(blocks)
        for V in blocks:
            V[0] += F
            # reduce adds the rounds one after another, unless a round is a
            # single number: it then sums them pairwise, and accumulate does not
            F = np.add.reduce(V, axis=0) if V[0].size > 1 else np.add.accumulate(V, axis=0)[-1]
        return F[0] if np.ndim(X) == 1 else F

    def staged_predict(self, X: np.ndarray, num_trees: int | None = None) -> Iterator[np.ndarray]:
        """Yield the particle outputs after 0, 1, ..., ``num_trees`` rounds.

        Every stage is the same array, advanced in place one round at a time;
        copy a stage to keep it.  The stages match the training cache bit for
        bit.
        """
        blocks = self._blocks(X, num_trees)
        F = next(blocks)
        out = F[0] if np.ndim(X) == 1 else F
        yield out
        for V in blocks:
            for b in range(V.shape[0]):
                F += V[b]
                yield out

    def _blocks(self, X: np.ndarray, num_trees: int | None) -> Iterator[np.ndarray]:
        """Check X; yield the initial particles (T, N, d) of its rows, then the
        learning_rate times leaf values of the first ``num_trees`` rounds, a
        block of rounds at a time, rounds-major: (B, T, N, d) arrays."""
        X = np.asarray(X, dtype=float)
        Xb = X[None, :] if X.ndim == 1 else X
        if Xb.ndim != 2 or Xb.shape[1] != self.n_features:
            raise ValueError(f"expected rows with {self.n_features} features, got shape {X.shape}")
        if num_trees is not None and num_trees < 0:
            raise ValueError(f"num_trees must be >= 0, got {num_trees}")
        trees, n = self.trees, self.trees.roots.shape[1]
        yield np.broadcast_to(self.init_particles, (Xb.shape[0], *self.init_particles.shape)).copy()
        stop = self.n_iterations if num_trees is None else min(num_trees, self.n_iterations)
        block = max(1, _ROUTE_PAIRS // max(1, Xb.shape[0] * n))
        for start in range(0, stop, block):
            node = route(trees, Xb, trees.roots[start:min(start + block, stop)])  # (T, B, N)
            V = np.take(trees.value, node.transpose(1, 0, 2), axis=0)
            V *= self.config.learning_rate  # the products lr * value that fit adds
            yield V


def _first_non_finite_row(a: np.ndarray) -> int | None:
    """The first datum of ``a`` (D, N, d) holding a non-finite value; an (N, d) ``a`` is datum 0."""
    if np.isfinite(a).all():
        return None
    return int(np.argmin(np.isfinite(a.reshape(-1, *a.shape[-2:])).all(axis=(1, 2))))


def _name_row(err: NumericError, rows: np.ndarray) -> NumericError:
    """``err`` with its datum mapped through ``rows`` to a row of the caller's data."""
    detail, datum = str(err), err.datum
    if datum is not None:
        datum = int(rows[datum])
        detail = detail.replace(f"datum {err.datum}", f"datum {datum}", 1)
    return NumericError(detail, datum=datum)


def _direction(cfg: BoostConfig, theta: np.ndarray, targets: EvidentialTarget, rate: float,
               rng: np.random.Generator, prefix: str) -> np.ndarray:
    """The configured direction at ``theta``.  An estimator's NumericError, or its first non-finite
    datum, raises NumericError with ``prefix``."""
    try:
        g = compute_direction(cfg.direction, theta, targets, cfg.kernel, rate=rate, rng=rng)
        if (bad := _first_non_finite_row(g)) is not None:
            raise NumericError(f"non-finite direction for datum {bad}", datum=bad)
    except NumericError as err:
        raise NumericError(prefix + str(err), datum=err.datum) from err
    return g


def _streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent generators for init draw, Langevin noise, (unused) and the validation split.
    The unused third child keeps the split at child 3, which fixes every seed's split."""
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


def init_particles(targets: EvidentialTarget, cfg: BoostConfig) -> np.ndarray:
    """Run the initializer from the config seed alone (no trees involved)."""
    rng_draw, rng_noise, _, _ = _streams(cfg.seed)
    return _run_init(targets, cfg, rng_draw, rng_noise)


def _run_init(
    targets: EvidentialTarget,
    cfg: BoostConfig,
    rng_draw: np.random.Generator,
    rng_noise: np.random.Generator,
) -> np.ndarray:
    """Draw N x d standard normals, then ascend the averaged direction.

    The particle set is shared by all D targets; each step moves it by
    init.rate times the direction averaged over the targets.  The Langevin
    kind uses init.rate as its rate here.
    """
    theta = rng_draw.standard_normal((cfg.n_particles, targets.dim))
    for step in range(cfg.init.steps):
        g = _direction(cfg, theta, targets, cfg.init.rate, rng_noise, f"initializer step {step}: ")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            if g.ndim == 3:
                g = g.mean(axis=0)
            theta = theta + cfg.init.rate * g
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"initializer step {step}: non-finite particles")
    return theta


def _check_training_data(X: np.ndarray, targets: EvidentialTarget) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"features must be a 2-d array, got shape {X.shape}")
    if X.shape[0] == 0:
        raise DataError("cannot fit on an empty dataset")
    if X.shape[1] == 0:
        raise DataError("cannot fit without feature columns")
    if not np.all(np.isfinite(X)):
        raise DataError("features contain non-finite values")
    if targets.n_data != X.shape[0]:
        raise DataError(f"{X.shape[0]} feature rows but {targets.n_data} targets")
    return X


def fit(
    X: np.ndarray,
    targets: EvidentialTarget,
    cfg: BoostConfig,
    *,
    init: np.ndarray | None = None,
    standardization: Standardization | None = None,
    label_values: list | None = None,
    on_iteration: Callable[[PackedTrees], None] | None = None,
) -> WGBoostModel:
    """Fit the full model: initializer plus max_iterations boosting rounds.

    ``init`` overrides the initializer with an explicit (N, d) particle set.
    ``standardization`` and ``label_values`` are carried into the model for
    prediction-time convenience; they do not affect fitting.
    ``on_iteration``, if given, is called after every boosting round with the
    N trees fitted in it, packed with roots (N,).
    """
    X = _check_training_data(X, targets)
    rng_draw, rng_noise, _, _ = _streams(cfg.seed)
    if init is None:
        init = _run_init(targets, cfg, rng_draw, rng_noise)
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != (cfg.n_particles, targets.dim):
            raise DataError(
                f"init particles have shape {init.shape}, expected {(cfg.n_particles, targets.dim)}"
            )
    n, d = init.shape
    F = np.broadcast_to(init, (X.shape[0], n, d)).copy()
    rounds: list[PackedTrees] = []
    trace: list[float] = []
    # Column-major features, so that every tree reads X.T without a copy (a
    # copy per tree raised a fit's peak memory by 8 MB at 1200 x 16), and
    # their presort: the trees of the fit share both.
    X_cols, order = np.asfortranarray(X), presort(X)
    for m in range(cfg.max_iterations):
        g = _direction(cfg, F, targets, cfg.learning_rate, rng_noise, f"boosting iteration {m}: ")
        packed = pack_trees([fit_tree(X_cols, g[:, i, :], cfg.tree, order) for i in range(n)])
        rounds.append(packed)
        with np.errstate(over="ignore"):  # an overflow is reported below, naming its row
            F += cfg.learning_rate * RegressionTree(packed, X.shape[1]).predict(X)
        if (bad := _first_non_finite_row(F)) is not None:
            raise NumericError(f"boosting iteration {m}: non-finite particles for datum {bad}",
                               datum=bad)
        with np.errstate(over="ignore"):  # a direction above ~1e154 squares to inf, logged as such
            trace.append(float(np.mean(g * g)))
        if on_iteration is not None:
            on_iteration(packed)
    table = pack_trees(rounds)
    return WGBoostModel(
        config=cfg,
        target_family=targets.family,
        init_particles=init,
        trees=table._replace(roots=table.roots.reshape(len(rounds), n)),
        n_features=X.shape[1],
        num_classes=getattr(targets, "k", None),
        standardization=standardization,
        label_values=label_values,
        train_trace=trace,
    )


def fit_with_early_stopping(
    X: np.ndarray,
    targets: EvidentialTarget,
    cfg: BoostConfig,
    val_fraction: float = 0.2,
    *,
    standardization: Standardization | None = None,
    label_values: list | None = None,
) -> tuple[WGBoostModel, list[float]]:
    """Pick the iteration count on a held-out split, then refit from scratch.

    A seeded split holds out ``val_fraction`` of the rows.  A search fit on
    the rest, replayed stage by stage on the held-out rows, gives the
    validation NLL after every iteration (index 0 is the bare initializer);
    the refit on all rows uses the argmin, ties resolved toward fewer trees.
    Returns the refit model and the recorded curve.
    """
    X = _check_training_data(X, targets)
    if targets.family not in ("normal", "categorical"):
        raise ValueError(f"early stopping has no NLL metric for family {targets.family!r}")
    n_data = X.shape[0]
    n_val = int(round(val_fraction * n_data))
    if n_val < 1 or n_val >= n_data:
        raise DataError(
            f"validation split of {n_val} rows out of {n_data} leaves nothing to fit or score"
        )
    perm = _streams(cfg.seed)[3].permutation(n_data)
    val_idx = np.sort(perm[:n_val])
    fit_idx = np.sort(perm[n_val:])
    t_val = targets.take(val_idx)
    if targets.family == "normal":
        metric = lambda F: predictive_nll_normal(F, t_val.y, Standardization())
    else:
        metric = lambda F: predictive_nll_categorical(F, t_val.y, t_val.k)
    try:
        search = fit(X[fit_idx], targets.take(fit_idx), cfg)
    except NumericError as err:
        raise _name_row(err, fit_idx) from err
    curve = [metric(F) for F in search.staged_predict(X[val_idx])]
    del search  # its trees need not outlive the curve into the refit
    best = int(np.argmin(curve))
    final = fit(
        X,
        targets,
        replace(cfg, max_iterations=best),
        standardization=standardization,
        label_values=label_values,
    )
    return final, curve


#: The model config key (format_version 1) of the share of rows each round fitted: saved as 1.0,
#: since every fit uses all rows; a loaded share must lie in (0, 1] and is then dropped.
_ROW_SHARE = "subsample_fraction"


def _config_to_dict(cfg: BoostConfig) -> dict:
    doc: dict = {_ROW_SHARE: 1.0}
    for s in SETTINGS:
        value = getattr(cfg if s.group is None else getattr(cfg, s.group), s.name)
        if s.group in _JSON_GROUPS:
            doc.setdefault(s.group, {})[s.name] = value
        else:
            doc[s.key] = value
    return doc


def _config_from_dict(doc: dict) -> BoostConfig:
    flat = {}
    paths = [(s.key, (s.group, s.name) if s.group in _JSON_GROUPS else (s.key,)) for s in SETTINGS]
    for key, path in [*paths, (_ROW_SHARE, (_ROW_SHARE,))]:
        value = doc
        for part in path:
            value = value.get(part) if isinstance(value, dict) else None
        if value is None:
            raise DataError(f"model config lacks a value for {'.'.join(path)}")
        flat[key] = value
    try:
        check_type(_ROW_SHARE, flat[_ROW_SHARE], float)
        if not 0.0 < flat[_ROW_SHARE] <= 1.0:
            raise ValueError(f"{_ROW_SHARE} must lie in (0, 1], got {flat[_ROW_SHARE]!r}")
        return config_from_settings(flat)
    except (ConfigError, ValueError) as err:
        raise DataError(f"model config: {err}") from None


def _model_field(doc: dict, key: str, kind: type, nullable: bool = False):
    """``doc[key]`` if it is of type ``kind`` (or None, if ``nullable``); else DataError."""
    if key not in doc:
        raise DataError(f"model lacks the key {key!r}")
    value = doc[key]
    if not (nullable and value is None):
        try:
            check_type(f"model key {key!r}", value, kind)
        except ConfigError as err:
            raise DataError(str(err)) from None
    return value


#: Trees per ``json.dumps`` call of :func:`save_model`: the node objects of at
#: most this many trees exist at a time.
_SAVE_TREES = 100


def _dumps(value) -> str:
    """``value`` as the model file writes it (the C encoder; ``json.dump`` to a file is not)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _ensembles_json(model: WGBoostModel) -> Iterator[str]:
    """The model's ``ensembles`` (format_version 1) as JSON text, ``_SAVE_TREES`` trees a piece:
    the ensemble of particle i holds round m's tree at position m."""
    (m, n), step = model.trees.roots.shape, _SAVE_TREES
    yield "["
    for i in range(n):
        yield "," * (i > 0) + "["
        for a in range(0, m, step):  # round r of particle i is position r * n + i of roots.ravel()
            trees = slice(a * n + i, min(a + step, m) * n, n)
            yield "," * (a > 0) + _dumps(trees_to_dicts(model.trees, model.n_features, trees))[1:-1]
        yield "]"
    yield "]"


def save_model(model: WGBoostModel, path: str | os.PathLike) -> None:
    """Serialize to JSON, writing a temp file first so failures leave no stub.

    The file is what one ``json.dumps`` of the whole document gives, with
    sorted keys, written a key at a time and the ensembles a few trees at a
    time (:func:`_ensembles_json`), so that no whole-model node objects exist.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "target_family": model.target_family,
        "k": model.num_classes,
        "y_mean": None if model.standardization is None else model.standardization.y_mean,
        "y_std": None if model.standardization is None else model.standardization.y_std,
        "label_values": model.label_values,
        "n_features": model.n_features,
        "config": _config_to_dict(model.config),
        "init_particles": model.init_particles.tolist(),
        "ensembles": None,
    }
    with atomic_file(path) as fh:
        for k, key in enumerate(sorted(doc)):
            fh.write(("," if k else "{") + _dumps(key) + ":")
            fh.writelines(_ensembles_json(model) if key == "ensembles" else [_dumps(doc[key])])
        fh.write("}\n")


def load_model(path: str | os.PathLike) -> WGBoostModel:
    """Read a model saved by :func:`save_model`.

    A file that is not such a model raises DataError naming the bad key; a
    file that cannot be opened raises OSError.
    """
    packer = TreePacker()  # packs each tree as the parser ends it
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_hook=packer.hook)
    except (ValueError, RecursionError) as err:  # not UTF-8 JSON, or nested too deep to parse
        raise DataError(f"model {os.fspath(path)} is not readable JSON: {err}") from None
    if not isinstance(doc, dict):
        raise DataError(f"a model file must hold a JSON object, got {type(doc).__name__}")
    if _model_field(doc, "format_version", int) != FORMAT_VERSION:
        raise DataError(f"unsupported model format_version {doc['format_version']!r}")
    y_mean = _model_field(doc, "y_mean", float, nullable=True)
    y_std = _model_field(doc, "y_std", float, nullable=y_mean is None)
    std = None
    if y_mean is not None:
        if not (math.isfinite(y_mean) and math.isfinite(y_std) and y_std >= STD_FLOOR):
            raise DataError(f"model has y_mean {y_mean!r} and y_std {y_std!r}; both must be finite "
                            f"and y_std at least {STD_FLOOR}")
        std = Standardization(y_mean, y_std)
    cfg = _config_from_dict(_model_field(doc, "config", dict))
    n_features = _model_field(doc, "n_features", int)
    if n_features < 1:
        raise DataError(f"model n_features must be at least 1, got {n_features}")
    init = np.array(_model_field(doc, "init_particles", list), dtype=object)
    ensembles_doc = _model_field(doc, "ensembles", list)
    n = cfg.n_particles
    if (init.ndim != 2 or init.shape[0] != n or init.shape[1] == 0
            or not all(type(v) is float or type(v) is int for v in init.flat)):
        raise DataError(f"model init_particles must be {n} lists of numbers of one length, at "
                        f"least 1, got an array of shape {init.shape}")
    init = init.astype(float)
    d = init.shape[1]
    if not all(type(trees) is list for trees in ensembles_doc):
        raise DataError("model key 'ensembles' must be a list of lists of trees")
    lengths = [len(trees) for trees in ensembles_doc]
    if len(lengths) != n or len(set(lengths)) != 1:
        raise DataError(f"model has ensembles of lengths {lengths}; expected {n} ensembles of "
                        f"one length")
    if not np.all(np.isfinite(init)):
        raise DataError("model init particles contain non-finite values")
    # rounds-major, as fit packs them: tree m * n + i is round m of particle i
    trees = packer.pack(
        [t for trees in zip(*ensembles_doc) for t in trees], n_features, d,
        lambda t: "particle {1}, round {0} (tree {0} of ensembles[{1}])".format(*divmod(t, n)))
    family = _model_field(doc, "target_family", str)
    k = _model_field(doc, "k", int, nullable=True)
    if family == "categorical" and k != d + 1:
        raise DataError(f"a categorical model over {d} log-ratio coordinates needs k = {d + 1}, "
                        f"got {k!r}")
    if family == "normal" and d != 2:
        raise DataError(f"a normal model needs particles of 2 coordinates (location and log "
                        f"scale), got {d}")
    labels = _model_field(doc, "label_values", list, nullable=True)
    if labels is not None and not (
        all(type(v) in (str, int, float) for v in labels) and len(set(labels)) == len(labels)
        and (family != "categorical" or len(labels) == k)
    ):
        raise DataError(f"model label_values must be distinct strings or numbers, one per class; "
                        f"got {labels!r}")
    return WGBoostModel(
        config=cfg,
        target_family=family,
        init_particles=init,
        trees=trees._replace(roots=trees.roots.reshape(lengths[0], n)),
        n_features=n_features,
        num_classes=k,
        standardization=std,
        label_values=labels,
    )


def make_regression_targets(y: np.ndarray) -> tuple[NormalLocationScaleTarget, Standardization]:
    """Standardize raw responses and wrap them as location-scale targets."""
    std = Standardization.from_responses(y)
    return NormalLocationScaleTarget(std.standardize(y)), std


def make_classification_targets(labels, k: int | None = None) -> CategoricalTarget:
    """Wrap integer labels 1..k as categorical targets (k inferred if omitted)."""
    labels = np.asarray(labels)
    if k is None:
        k = int(labels.max())
    return CategoricalTarget(labels, k)


__all__ = [
    "SETTINGS",
    "BoostConfig",
    "InitConfig",
    "Setting",
    "WGBoostModel",
    "check_type",
    "config_from_settings",
    "fit",
    "fit_with_early_stopping",
    "init_particles",
    "load_model",
    "make_classification_targets",
    "make_regression_targets",
    "save_model",
    "task_config",
]
