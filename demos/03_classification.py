"""Fit and compare the three classifiers on marker-structured data.

The class-specific model scores each class with its own small variable
subset; the baselines use every variable (Gaussian moments, or one KDE per
variable). Also demonstrates model persistence.
"""

import tempfile
from pathlib import Path

import numpy as np

from xnb import (
    Dataset,
    accuracy,
    fit_fnb,
    fit_gnb,
    fit_xnb,
    load_model,
    predict,
    save_model,
)

rng = np.random.default_rng(42)

# 3 classes, 240 samples, 40 variables, 2 markers per class: strongly
# elevated (5 sigma) in their own class, mildly (1.5 sigma) in the next.
n, m, k = 240, 40, 3


def apply_markers(matrix, class_of_row):
    for i, ci in enumerate(class_of_row):
        for j in (2 * ci, 2 * ci + 1):
            matrix[i, j] += 5.0
        nxt = (ci + 1) % k
        for j in (2 * nxt, 2 * nxt + 1):
            matrix[i, j] += 1.5


values = rng.normal(size=(n, m))
row_classes = [i % k for i in range(n)]
apply_markers(values, row_classes)
labels = tuple(f"type{ci}" for ci in row_classes)
d = Dataset(tuple(f"g{j:02d}" for j in range(m)), values, labels)

holdout = rng.normal(size=(60, m))
holdout_classes = [i % k for i in range(60)]
apply_markers(holdout, holdout_classes)
holdout_labels = [f"type{ci}" for ci in holdout_classes]

models = {
    "gnb (gaussian moments, all variables)": fit_gnb(d),
    "fnb (kde, all variables)": fit_fnb(d),
    "xnb (kde, class-specific subsets)": fit_xnb(d),
}
print(f"training: {n} samples x {m} variables, {k} classes\n")
for name, model in models.items():
    labels_hat = [predict(model, x).label for x in holdout]
    print(f"  {name:40s} holdout accuracy = {accuracy(labels_hat, holdout_labels):.3f}")

xnb_model = models["xnb (kde, class-specific subsets)"]
print("\nclass-specific subsets found:")
for c in xnb_model.classes:
    print(f"  {c}: {list(xnb_model.features.features[c])}")

sample = holdout[0]
pred = predict(xnb_model, sample)
print(f"\nscoring one sample (true class {holdout_labels[0]}):")
for c in xnb_model.classes:
    marker = " <-- argmax" if c == pred.label else ""
    print(
        f"  {c}: log score {pred.log_scores[c]:9.2f} "
        f"using {xnb_model.features.count(c)} variables{marker}"
    )

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(xnb_model, path)
    reloaded = load_model(path)
    again = predict(reloaded, sample)
    print(f"\nsaved {path.stat().st_size} bytes; reloaded prediction: {again.label} "
          f"(scores identical: {again.log_scores == pred.log_scores})")
