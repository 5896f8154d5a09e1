"""Per-class minimal variable subsets from Hellinger distances.

A subset S discriminates class c with power
``1 - prod(1 - H(c, c' | v))`` over all other classes c' and all v in S.
For each class the selector walks its class pairs in sorted label order
and greedily adds the highest-H variable for the current pair until the
pair's contribution pushes the power past the threshold, reusing variables
selected for earlier pairs. If candidates run out first, every variable is
selected and the class is marked exhausted.

The greedy trace is the one explanation of a selection: each step names
the variable that entered, the class pair it entered for, that pair's H
and the pair's power right after it entered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import check_names, check_number, own
from .hellinger import HellingerTable

logger = logging.getLogger(__name__)

DEFAULT_THETA = 0.999


@dataclass(frozen=True)
class SelectionConfig:
    """The selection threshold: a number in (0, 1), the one statement of theta's rule."""

    theta: float = DEFAULT_THETA

    def __post_init__(self):
        check_number(self.theta, "theta")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")


@dataclass(frozen=True)
class SelectionStep:
    """One greedy addition: which variable entered, for which class pair."""

    variable: str
    other_class: str
    h: float
    attained: float  # the pair's 1 - residual right after this addition


@dataclass(frozen=True)
class ClassFeatureMap:
    """Ordered selected variables per class, with the trace that chose them.

    ``steps[c][i]`` is the addition of ``features[c][i]``. ``exhausted[c]``
    is true when some pair of class c is still at or below the threshold
    with every variable taken. Both are empty on a map that no selection
    made (a loaded model, or fnb). The map keeps its own read-only copies
    of the dicts it is given, ``features`` only for its ``classes``.
    """

    classes: tuple[str, ...]
    features: dict[str, tuple[str, ...]]
    steps: dict[str, tuple[SelectionStep, ...]] = field(default_factory=dict)
    exhausted: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        classes = check_names(self.classes, "class names")
        for c in classes:
            if c not in self.features:
                raise ValueError(f"no feature list for class {c!r}")
        features = {c: check_names(self.features[c], f"variables selected for class {c!r}") for c in classes}
        own(self, classes=classes, features=features, steps=self.steps, exhausted=self.exhausted)

    def count(self, cls: str) -> int:
        return len(self.features[cls])


def select_class_specific(table: HellingerTable, cfg: SelectionConfig = SelectionConfig()) -> ClassFeatureMap:
    """Greedy per-class selection against the power threshold.

    Deterministic: class pairs are walked in sorted label order and ties in
    H are broken toward the lexicographically smaller variable name.
    """
    names = table.variable_names
    m = len(names)
    if len(table.classes) < 2:
        logger.warning("single-class table: nothing to discriminate, empty selection")

    # ties in H resolve to the lexicographically smaller name: each pair's
    # candidate order sorts by -H, then by the name's rank
    name_rank = np.empty(m, dtype=np.intp)
    name_rank[sorted(range(m), key=names.__getitem__)] = np.arange(m)
    # (ci, cj) and (cj, ci) read the same table column, so share one order
    orders = {pair: np.lexsort((name_rank, -table.pair_column(*pair))) for pair in table.class_pairs}
    features: dict[str, tuple[str, ...]] = {}
    steps: dict[str, tuple[SelectionStep, ...]] = {}
    exhausted: dict[str, bool] = {}
    for ci in table.classes:
        selected: list[int] = []
        taken = np.zeros(m, dtype=bool)
        trace: list[SelectionStep] = []
        exhausted[ci] = False
        for cj in table.classes:
            if cj == ci:
                continue
            h_pair = table.pair_column(ci, cj)
            # residual contribution of variables already in the subset
            residual = 1.0
            for j in selected:
                residual *= 1.0 - float(h_pair[j])
            order = orders[min(ci, cj), max(ci, cj)]
            cursor = 0
            while 1.0 - residual <= cfg.theta and len(selected) < m:
                while taken[order[cursor]]:
                    cursor += 1
                j = int(order[cursor])
                selected.append(j)
                taken[j] = True
                residual *= 1.0 - h_pair[j]
                trace.append(
                    SelectionStep(
                        variable=names[j],
                        other_class=cj,
                        h=float(h_pair[j]),
                        attained=1.0 - residual,
                    )
                )
            # the loop stops short of theta only when no candidate is left
            exhausted[ci] |= bool(1.0 - residual <= cfg.theta)
        features[ci] = tuple(names[j] for j in selected)
        steps[ci] = tuple(trace)
    return ClassFeatureMap(
        classes=table.classes, features=features, steps=steps, exhausted=exhausted
    )
