"""Measure per-variable class separation and pick minimal per-class subsets.

Builds a small labeled matrix where only a few variables carry signal,
tabulates the Hellinger distance between class-conditional densities, and
walks the greedy class-specific selection. Its trace is the explanation:
each step names the variable that entered, the class pair it entered for,
and that pair's power right after.
"""

import numpy as np

from xnb import (
    Dataset,
    SelectionConfig,
    fit_fnb,
    hellinger_table,
    select_class_specific,
)

rng = np.random.default_rng(7)

# 3 classes x 30 samples, 8 variables; the first three are markers:
#   strong  - 6 sigma shift for class a (unmistakable)
#   medium  - 3 sigma shift for class b (helpful but not sufficient alone)
#   weak    - 1 sigma shift for class c (mostly noise)
n_per = 30
names = ("strong", "medium", "weak", "n0", "n1", "n2", "n3", "n4")
values = rng.normal(size=(3 * n_per, len(names)))
values[:n_per, 0] += 6.0
values[n_per : 2 * n_per, 1] += 3.0
values[2 * n_per :, 2] += 1.0
labels = ("a",) * n_per + ("b",) * n_per + ("c",) * n_per
d = Dataset(names, values, labels)

# the all-variable KDE model holds one packed density per class: the bank
# the table is built from
bank = fit_fnb(d).kde_bank
table = hellinger_table(d, bank, mu=50)

print("Hellinger distance per variable and class pair (0=identical, 1=disjoint):")
header = "  ".join(f"{ci}/{cj}" for ci, cj in table.class_pairs)
print(f"  {'variable':8s}  {header}")
for v, h in zip(table.variable_names, table.distances):
    row = "   ".join(f"{x:.3f}" for x in h)
    print(f"  {v:8s}  {row}")

# a subset's power for class a: 1 - prod(1 - H) over every other class
# and every variable in the subset
print("\ndiscriminatory power of growing subsets for class 'a':")
for subset in (["strong"], ["strong", "medium"], ["strong", "medium", "weak"]):
    rows = [d.variable_index[v] for v in subset]
    residual = np.prod([np.prod(1.0 - table.pair_column("a", other)[rows]) for other in ("b", "c")])
    print(f"  {subset}: {1.0 - residual:.6f}")

# the b/c pair reaches power 0.938 with every variable taken (its best
# marker, medium, has H near 0.8), so a threshold above that would exhaust
# b and c; at 0.85 medium alone falls short for b/c and weak tips it over
theta = 0.85
fmap = select_class_specific(table, SelectionConfig(theta=theta))
print(f"\nselected variables per class (threshold {theta}):")
for c in fmap.classes:
    print(f"  {c}: {list(fmap.features[c])}")

print("\ngreedy trace (which variable entered for which pair, and why):")
for c in fmap.classes:
    for i, s in enumerate(fmap.steps[c]):
        print(
            f"  class {c}: step {i} added {s.variable!r} "
            f"for pair vs {s.other_class} (H={s.h:.3f}) -> power {s.attained:.6f}"
        )

# a class whose pairs stay at or below the threshold with every variable
# taken is exhausted: it keeps every variable
print("\nexhausted (ran out of candidates):", fmap.exhausted)

print("\nmembership matrix over the union of selected variables:")
# every selected variable, in first-appearance order across the classes
union = list(dict.fromkeys(v for c in fmap.classes for v in fmap.features[c]))
print(f"  {'':3s}" + "".join(f"{v:>8s}" for v in union))
for c in fmap.classes:
    print(f"  {c:3s}" + "".join(f"{int(v in fmap.features[c]):>8d}" for v in union))
