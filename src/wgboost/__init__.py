"""Gradient boosting over particle sets.

Each input row is mapped to a small set of particles that together act as a
sample from a fitted distribution over the target's parameters, so the model
reports uncertainty (predictive intervals, class-probability spread) instead
of a single point.
"""

from .boosting import (
    BoostConfig,
    InitConfig,
    WGBoostModel,
    fit,
    fit_with_early_stopping,
    init_particles,
    load_model,
    make_classification_targets,
    make_regression_targets,
    save_model,
    task_config,
)
from .directions import DirectionKind, compute_direction
from .errors import ConfigError, DataError, NumericError, WGBoostError
from .evaluate import (
    NormalRef,
    Standardization,
    classification_accuracy,
    mmd_squared,
    ood_score,
    point_predictions,
    point_predict_rmse,
    pr_auc,
    predicted_class,
    predictive_class_probs,
    predictive_interval_normal,
    predictive_nll_categorical,
    predictive_nll_normal,
)
from .kernel import KernelConfig, kernel_eval, kernel_grad
from .targets import (
    CategoricalTarget,
    GaussianTarget,
    NormalLocationScaleTarget,
    from_simplex,
    to_simplex,
)
from .tree import TreeParams, fit_tree

__version__ = "0.1.0"

__all__ = [
    "BoostConfig",
    "CategoricalTarget",
    "ConfigError",
    "DataError",
    "DirectionKind",
    "GaussianTarget",
    "InitConfig",
    "KernelConfig",
    "NormalLocationScaleTarget",
    "NormalRef",
    "NumericError",
    "Standardization",
    "TreeParams",
    "WGBoostError",
    "WGBoostModel",
    "classification_accuracy",
    "compute_direction",
    "fit",
    "fit_tree",
    "fit_with_early_stopping",
    "from_simplex",
    "init_particles",
    "kernel_eval",
    "kernel_grad",
    "load_model",
    "make_classification_targets",
    "make_regression_targets",
    "mmd_squared",
    "ood_score",
    "point_predictions",
    "point_predict_rmse",
    "pr_auc",
    "predicted_class",
    "predictive_class_probs",
    "predictive_interval_normal",
    "predictive_nll_categorical",
    "predictive_nll_normal",
    "save_model",
    "task_config",
    "to_simplex",
    "__version__",
]
