"""Characterize a dataset's assumptions, then run the evaluation harness.

The normality scan shows how many variables a Gaussian model misfits; the
conditional-independence scan shows how entangled variables are within
classes. The cross-validation harness then compares methods fold by fold.
"""

import numpy as np

from xnb import Dataset, emit_report, evaluate_cv, run_diagnostics

rng = np.random.default_rng(3)

# Mixed-shape data: half the variables lognormal (non-normal), and two
# variables are exact linear copies of each other within every class.
n, m = 120, 30
values = rng.normal(size=(n, m))
values[:, : m // 2] = rng.lognormal(size=(n, m // 2))
values[:, 5] = 2.0 * values[:, 4] + 1.0  # conditionally dependent pair
labels = tuple(rng.choice(["healthy", "tumor"], n))
for i, l in enumerate(labels):
    if l == "tumor":
        values[i, 20] += 4.0
        values[i, 21] += 4.0
d = Dataset(tuple(f"g{j:02d}" for j in range(m)), values, labels)

report = run_diagnostics(d, alpha=0.05, p_max=1e-6, r_min=0.7, max_pairs=None, seed=0)
print(report.summary())
print(f"  variables rejecting normality: {report.sw_rejection_ratio:.0%}")
print(f"  flagged dependent pairs: {len(report.ci.flagged)}")
for a, b, r, p in report.ci.flagged[:5]:
    print(f"    {a} ~ {b}: r={r:.3f}, p={p:.2e}")

print("\nstratified 5-fold comparison (seeded, reproducible):")
cv = evaluate_cv(d, methods=("gnb", "fnb", "xnb"), k=5, seed=0)
for method in cv.methods:
    folds = " ".join(f"{a:.2f}" for a in cv.fold_accuracies[method])
    print(f"  {method}: folds [{folds}] mean {cv.mean_accuracy[method]:.3f}")
print(f"  xnb mean selected variables per class: {cv.xnb_mean_selected:.1f} of {m}")

print("\nreport in the tabular layout:")
emit_report(cv, format="tsv")

print("the same operations are available from the command line:")
print("  xnb diagnose --data data.csv --class-col label")
print("  xnb evaluate --data data.csv --methods gnb,xnb --k 10 --seed 0")
print("  xnb select   --data data.csv --theta 0.999")
print("  xnb fit      --data data.csv --model model.json && xnb predict --model model.json --data new.csv")
