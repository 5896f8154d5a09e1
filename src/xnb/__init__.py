"""Class-specific naive Bayes with KDE densities and Hellinger selection.

The pipeline fits one kernel density estimate per (class, variable),
measures how well each variable separates every class pair with the
Hellinger distance, greedily selects a small variable subset per class,
and classifies with class-specific posterior scores. Gaussian naive Bayes
and the all-variables KDE variant are included as baselines, along with
dataset diagnostics and a stratified cross-validation harness.
"""

from .classifier import (
    GnbModel,
    Prediction,
    XnbConfig,
    XnbModel,
    fit_fnb,
    fit_gnb,
    fit_xnb,
    load_model,
    predict,
    save_model,
    score,
)
from .dataset import Dataset, FoldPlan, class_priors, load_csv, save_csv, stratified_kfold
from .diagnostics import (
    DiagnosticsReport,
    conditional_independence_scan,
    normality_scan,
    run_diagnostics,
    shapiro_wilk,
    within_class_residuals,
)
from .errors import DataError, ModelFormatError, XnbError
from .evaluation import EvaluationReport, accuracy, emit_report, evaluate_cv
from .hellinger import HellingerTable, hellinger, hellinger_table
from .kde import (
    PackedKde,
    column_bandwidths,
    kernel_eval,
    scott_bandwidth,
    silverman_adaptive_bandwidth,
    silverman_bandwidth,
)
from .selection import (
    ClassFeatureMap,
    SelectionConfig,
    select_class_specific,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
    "save_csv",
    "class_priors",
    "stratified_kfold",
    "PackedKde",
    "kernel_eval",
    "column_bandwidths",
    "scott_bandwidth",
    "silverman_bandwidth",
    "silverman_adaptive_bandwidth",
    "HellingerTable",
    "hellinger",
    "hellinger_table",
    "ClassFeatureMap",
    "SelectionConfig",
    "select_class_specific",
    "XnbConfig",
    "XnbModel",
    "GnbModel",
    "Prediction",
    "fit_xnb",
    "fit_fnb",
    "fit_gnb",
    "predict",
    "score",
    "save_model",
    "load_model",
    "DiagnosticsReport",
    "shapiro_wilk",
    "normality_scan",
    "within_class_residuals",
    "conditional_independence_scan",
    "run_diagnostics",
    "EvaluationReport",
    "accuracy",
    "evaluate_cv",
    "emit_report",
    "XnbError",
    "DataError",
    "ModelFormatError",
    "__version__",
]
