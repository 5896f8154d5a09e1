"""Output checks for one CLI session; each returns a list of problems.

The checks read what the `xnb` verbs wrote. A non-empty list fails the
operation that produced the output, which counts in `failed`.
"""

from __future__ import annotations

import copy
import math


def check_markers(model: dict, markers: dict[str, tuple[str, ...]]) -> list[str]:
    """Every planted marker is among its class's selected variables."""
    problems = []
    for c, names in markers.items():
        selected = set(model.get("features", {}).get(c, ()))
        missing = [v for v in names if v not in selected]
        if missing:
            problems.append(f"class {c}: markers not selected: {', '.join(missing)}")
    return problems


def heldout_accuracy(predictions: list[dict], truth: tuple[str, ...]) -> float:
    hits = sum(p["label"] == t for p, t in zip(predictions, truth))
    return hits / len(truth)


def check_predictions(
    predictions: list[dict],
    truth: tuple[str, ...],
    reference: dict[int, tuple[str, dict[str, float]]],
    floor: float,
) -> list[str]:
    """Row count, bit-exact agreement with `reference`, and the accuracy floor.

    `reference` maps a row index to the label and log scores of an
    in-process `predict` on the model that was fitted.
    """
    if len(predictions) != len(truth):
        return [f"{len(predictions)} predictions for {len(truth)} rows"]
    problems = []
    for i, (label, scores) in reference.items():
        got = predictions[i]
        if got["label"] != label:
            problems.append(f"row {i}: label {got['label']!r}, in-process {label!r}")
        elif got["log_scores"] != scores:
            problems.append(f"row {i}: log scores differ from the in-process predict")
    acc = heldout_accuracy(predictions, truth)
    if not acc >= floor:
        problems.append(f"held-out accuracy {acc:.3f} below the floor {floor}")
    return problems


def check_evaluation(report: dict, methods: tuple[str, ...], k: int) -> list[str]:
    """The report has k folds, each with a finite accuracy, for every method."""
    problems = []
    if report.get("k") != k:
        problems.append(f"report k={report.get('k')!r}, expected {k}")
    folds = report.get("fold_accuracies", {})
    for method in methods:
        accs = folds.get(method, [])
        if len(accs) != k or not all(isinstance(a, float) and math.isfinite(a) for a in accs):
            problems.append(f"method {method}: {len(accs)} fold accuracies, expected {k}")
        if method not in report.get("mean_accuracy", {}):
            problems.append(f"method {method}: no mean accuracy")
    return problems


def check_diagnosis(report: dict, n: int, m: int) -> list[str]:
    """The report covers every sample and variable and examined some pairs."""
    problems = []
    if report.get("n_samples") != n or report.get("n_variables") != m:
        problems.append(
            f"report covers {report.get('n_samples')}x{report.get('n_variables')}, expected {n}x{m}"
        )
    if len(report.get("shapiro_wilk", {}).get("variables", ())) != m:
        problems.append("normality scan does not list every variable")
    if not report.get("conditional_independence", {}).get("examined_pairs", 0) > 0:
        problems.append("dependence scan examined no pairs")
    return problems


def _flip_label(predictions, reference):
    i = next(iter(reference))
    other = next(c for c in predictions[i]["log_scores"] if c != predictions[i]["label"])
    predictions[i]["label"] = other


def _nudge_score(predictions, reference):
    i = next(iter(reference))
    c = next(iter(predictions[i]["log_scores"]))
    predictions[i]["log_scores"][c] = math.nextafter(predictions[i]["log_scores"][c], math.inf)


def _drop_row(predictions, reference):
    predictions.pop()


def corruption_self_test(outputs: dict, expected: dict) -> list[str]:
    """Corrupt copies of passing outputs; return the corruptions no check caught.

    `outputs` holds the parsed `model`, `predictions`, `evaluation` and
    `diagnosis`; `expected` holds what the checks compare them with.
    """
    uncaught = []
    for name, corrupt in (("flipped label", _flip_label), ("score one ulp off", _nudge_score),
                          ("dropped row", _drop_row)):
        predictions = copy.deepcopy(outputs["predictions"])
        corrupt(predictions, expected["reference"])
        if not check_predictions(predictions, expected["truth"], expected["reference"], expected["floor"]):
            uncaught.append(name)

    c, names = next(iter(expected["markers"].items()))
    features = dict(outputs["model"]["features"])
    features[c] = [v for v in features[c] if v != names[0]]
    if not check_markers({"features": features}, expected["markers"]):
        uncaught.append("unselected marker")

    report = copy.deepcopy(outputs["evaluation"])
    report["fold_accuracies"][expected["methods"][0]].pop()
    if not check_evaluation(report, expected["methods"], expected["k"]):
        uncaught.append("missing fold")

    report = copy.deepcopy(outputs["diagnosis"])
    report["shapiro_wilk"]["variables"].pop()
    if not check_diagnosis(report, expected["n"], expected["m"]):
        uncaught.append("missing variable in diagnosis")
    return uncaught
