"""Stratified cross-validation harness comparing the three classifiers."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classifier import FIT_STAGES, METHODS, XnbConfig, fit_fnb, fit_gnb, fit_xnb, predict
from .dataset import FOLD_GENERATOR, Dataset, stratified_kfold, write_json, write_output
from .errors import XnbError

logger = logging.getLogger(__name__)

DEFAULT_METHODS = ("gnb", "xnb")
REPORT_SCHEMA_VERSION = 3


def check_methods(methods) -> tuple[str, ...]:
    """The methods as a tuple: one or more of ``METHODS``, each named once; ValueError otherwise."""
    methods = tuple(methods)
    unknown = [str(m) for m in methods if m not in METHODS]
    if unknown:
        problem = f"unknown methods: {', '.join(unknown)}"
    elif len(set(methods)) < len(methods):
        problem = f"repeated methods: {', '.join(sorted({m for m in methods if methods.count(m) > 1}))}"
    elif not methods:
        problem = "no methods"
    else:
        return methods
    raise ValueError(f"{problem}; expected one or more of {', '.join(METHODS)}, each once")


def accuracy(predictions, truth) -> float:
    """Fraction of matching labels."""
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(truth)} labels")
    if not truth:
        raise ValueError("empty label sequences")
    return sum(p == t for p, t in zip(predictions, truth)) / len(truth)


@dataclass(frozen=True)
class EvaluationReport:
    """Per-fold and mean accuracies, XNB selection sizes, stage timings.

    ``n_variables`` is the dataset's variable count, which gnb and fnb score in full.
    """

    methods: tuple[str, ...]
    n_variables: int
    k: int
    seed: int
    config: dict
    fold_accuracies: dict[str, tuple[float, ...]]
    xnb_fold_class_counts: tuple[dict[str, int], ...] | None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> dict[str, float]:
        return {m: float(np.mean(a)) for m, a in self.fold_accuracies.items()}

    @property
    def xnb_fold_mean_counts(self) -> tuple[float, ...] | None:
        """Each XNB fold's mean selected-variable count over its classes."""
        if self.xnb_fold_class_counts is None:
            return None
        return tuple(float(np.mean(list(counts.values()))) for counts in self.xnb_fold_class_counts)

    @property
    def xnb_mean_class_counts(self) -> dict[str, float] | None:
        """Each class's selected-variable count, averaged over the folds that trained it."""
        if self.xnb_fold_class_counts is None:
            return None
        # tiny classes can drop out of a fold's training split entirely
        folds = self.xnb_fold_class_counts
        classes = sorted({c for counts in folds for c in counts})
        return {c: float(np.mean([counts[c] for counts in folds if c in counts])) for c in classes}

    @property
    def xnb_mean_selected(self) -> float | None:
        if self.xnb_fold_class_counts is None:
            return None
        return float(np.mean(self.xnb_fold_mean_counts))

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "methods": list(self.methods),
            "n_variables": self.n_variables,
            "k": self.k,
            "seed": self.seed,
            "fold_generator": FOLD_GENERATOR,
            "config": dict(self.config),
            "fold_accuracies": {m: list(a) for m, a in self.fold_accuracies.items()},
            "mean_accuracy": self.mean_accuracy,
            "xnb_fold_class_counts": (
                [dict(c) for c in self.xnb_fold_class_counts]
                if self.xnb_fold_class_counts is not None
                else None
            ),
            "xnb_fold_mean_counts": (
                list(self.xnb_fold_mean_counts) if self.xnb_fold_mean_counts is not None else None
            ),
            "xnb_mean_class_counts": self.xnb_mean_class_counts,
            "xnb_mean_selected": self.xnb_mean_selected,
            "timings": dict(self.timings),
        }


def _fit_for(method: str, train: Dataset, config: XnbConfig, jobs: int):
    if method == "gnb":
        return fit_gnb(train)
    if method == "fnb":
        return fit_fnb(train, config)
    return fit_xnb(train, config, jobs=jobs)


def evaluate_cv(
    d: Dataset,
    methods=DEFAULT_METHODS,
    k: int = 10,
    seed: int = 0,
    config: XnbConfig = XnbConfig(),
    jobs: int = 1,
) -> EvaluationReport:
    """Stratified k-fold comparison; deterministic for a given seed.

    Per fold, each method is fit on the training split and scored on the
    held-out fold. XNB folds additionally record how many variables each
    class selected. Stage timings aggregate every KDE-based fit across
    folds and vary run to run; everything else is reproducible. An
    ``XnbError`` from a fold's fit or prediction is raised again with the fold named.
    """
    methods = check_methods(methods)
    smallest = min(len(rows) for rows in d.class_rows.values())
    if k > smallest:
        logger.warning("k=%d exceeds the smallest class size %d; some folds will miss that class", k, smallest)
    folds = stratified_kfold(d, k, seed)

    fold_acc: dict[str, list[float]] = {m: [] for m in methods}
    fold_counts: list[dict[str, int]] = []
    timings = {stage: 0.0 for stage in FIT_STAGES}

    for fold in range(k):
        train = d.subset(np.flatnonzero(folds != fold))
        test_rows = np.flatnonzero(folds == fold)
        truth = [d.labels[i] for i in test_rows]
        for method in methods:
            try:
                model = _fit_for(method, train, config, jobs)
                labels = [predict(model, d.values[i]).label for i in test_rows]
            except XnbError as exc:
                raise type(exc)(f"fold {fold}: {exc}") from exc
            fold_acc[method].append(accuracy(labels, truth))
            for stage, t in (getattr(model, "timings", None) or {}).items():
                timings[stage] += t
            if method == "xnb":
                fold_counts.append({c: model.features.count(c) for c in model.classes})
            del model  # so that the next fit does not hold this model's bank beside its own
        del train  # and the next fold's subset is made without this one

    return EvaluationReport(
        methods=methods,
        n_variables=d.m,
        k=k,
        seed=seed,
        config=asdict(config),
        fold_accuracies={m: tuple(a) for m, a in fold_acc.items()},
        xnb_fold_class_counts=tuple(fold_counts) if "xnb" in methods else None,
        timings=timings,
    )


def _tsv_lines(report: EvaluationReport) -> list[str]:
    lines = ["method\tmean_accuracy\tmean_selected"]
    for method in report.methods:
        selected = f"{report.xnb_mean_selected:.6f}" if method == "xnb" else str(report.n_variables)
        lines.append(f"{method}\t{report.mean_accuracy[method]:.6f}\t{selected}")
    return lines


def emit_report(report: EvaluationReport, format: str = "json", path: str | Path | None = None) -> None:
    """Write a report as JSON (full detail) or TSV (one row per method)."""
    if format == "json":
        write_json(report.to_dict(), path)
    elif format == "tsv":
        write_output("\n".join(_tsv_lines(report)) + "\n", path)
    else:
        raise ValueError(f"unknown report format {format!r}")
