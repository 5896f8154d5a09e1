"""Benchmark workloads and their seeded data generator.

Each workload is a CLI session: the benchmark writes a training CSV and a
held-out CSV, then runs `xnb fit`, `predict`, `evaluate` and `diagnose` on
them as separate processes. Every workload runs every verb, so that each
end-to-end metric is reported on each workload; the flags differ.

The generator belongs to the benchmark (not to the test suite) so that
test refactors cannot move the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VERBS = ("fit", "predict", "evaluate", "diagnose")

# Defaults of the paper's method, passed explicitly so that a change of a
# CLI default does not silently change the workload.
KERNEL = "gaussian"
BANDWIDTH = "silverman"
MU = 50
THETA = 0.999
# 5 folds rather than the paper's 10: it halves evaluate, the longest verb,
# so that a run holds more rounds.
CV_FOLDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_heldout: int
    m: int
    k: int
    method: str  # what `xnb fit` fits: xnb or fnb
    jobs: int  # --jobs for fit and evaluate; never above the 2 cores
    eval_methods: tuple[str, ...]  # --methods for evaluate
    shift: float  # marker mean shift, in noise standard deviations
    accuracy_floor: float  # held-out accuracy below this fails the predict check
    check_stride: int  # every check_stride-th held-out row is compared bit-exactly
    markers_per_class: int = 1

    @property
    def cv_method(self) -> str:
        """The evaluated method whose mean accuracy is `cv_accuracy`."""
        return self.eval_methods[-1]


# With one marker per class and a shift of 5.5 to 6, one marker separates
# a class pair with H of 0.95 to 0.99: high enough to outrank every noise
# variable, too low to reach theta alone. So the first pair a class walks
# selects both of the pair's markers, and every class selects its own
# marker, which is what the marker check asserts (no miss in 60 seeds of
# either xnb workload). Above a shift of about 7, H passes theta and the
# pair's other marker may be taken instead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-k3",
            n_train=100,
            n_heldout=100,
            m=20_000,
            k=3,
            method="xnb",
            jobs=2,
            eval_methods=("gnb", "xnb"),
            shift=5.5,
            accuracy_floor=0.9,
            check_stride=1,
        ),
        Workload(
            name="multiclass-k10",
            n_train=200,
            n_heldout=100,
            m=2_500,
            k=10,
            method="xnb",
            # one process at a time, so that a verb's time does not depend on
            # the other core of the shared host; wide-k3 runs the parallel table
            jobs=1,
            eval_methods=("gnb", "xnb"),
            shift=6.0,
            accuracy_floor=0.85,
            check_stride=1,
        ),
        Workload(
            name="full-kde-k3",
            n_train=100,
            n_heldout=30,
            m=2_000,
            k=3,
            method="fnb",
            jobs=1,
            # gnb only: keeps every verb of this workload off the Hellinger
            # table and selection, and off fnb CV (which would take minutes)
            eval_methods=("gnb",),
            # fnb keeps every variable, so the marker check holds trivially and
            # more markers only make the all-variable scores separate classes
            markers_per_class=3,
            shift=6.0,
            accuracy_floor=0.9,
            check_stride=5,
        ),
    )
}


def generate(w: Workload, seed: int, xnb):
    """Seeded train and held-out Datasets plus each class's marker names.

    Every variable is N(0, 1) noise; each class gets `markers_per_class`
    variables whose mean is shifted by `shift` for that class's rows.
    Labels are balanced and shuffled. `xnb` is the checkout's library,
    passed in by the caller that put it on the path.
    """
    rng = np.random.default_rng(seed)
    n = w.n_train + w.n_heldout
    classes = [f"c{i}" for i in range(w.k)]
    # balanced within each split, shuffled
    labels = np.concatenate(
        [
            rng.permutation(np.arange(size) % w.k)
            for size in (w.n_train, w.n_heldout)
        ]
    )
    values = rng.normal(size=(n, w.m))
    names = tuple(f"g{j:05d}" for j in range(w.m))
    marker_cols = rng.choice(w.m, size=w.k * w.markers_per_class, replace=False)
    markers = {}
    for ci, c in enumerate(classes):
        cols = np.sort(marker_cols[ci * w.markers_per_class : (ci + 1) * w.markers_per_class])
        values[np.ix_(labels == ci, cols)] += w.shift
        markers[c] = tuple(names[j] for j in cols)
    text = tuple(classes[i] for i in labels)
    train = xnb.Dataset(names, values[: w.n_train], text[: w.n_train])
    heldout = xnb.Dataset(names, values[w.n_train :], text[w.n_train :])
    return train, heldout, markers
