"""Hellinger distances between class-conditional densities.

Each variable's per-class KDE is evaluated (``kde.kernel_sum``) on one
grid shared by all classes (distances are only meaningful over a common
event space), the grid densities are sum-normalized into discrete
distributions, and the distance ``sqrt(sum((sqrt(p) - sqrt(q))^2)) /
sqrt(2)`` is tabulated for every unordered class pair.

Table construction is the pipeline's hot loop at genomic widths, so the
variables are cut once into blocks of nearly equal width, at most
``_BLOCK``. Per class and block, the kernel sum is given a column view of
the class's bank (it copies that one class's block while it runs) and
needs one buffer of at most 512 KiB (or one grid row), not one value per
grid point, sample and variable, and the square roots of the class's
distributions are taken once for all of its class pairs. Each block
writes its rows of the one preallocated table. ``jobs`` only chooses how
the blocks are mapped: in turn, or over a thread pool (numpy releases the
GIL inside each ufunc call) with at most one thread per CPU; the result
does not depend on it.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .dataset import Dataset
from .kde import DEFAULT_MU, KERNELS, PackedKde, kernel_eval, kernel_sum

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# widest block of variables whose grid densities are held at once
_BLOCK = 1024
# the most grid points per variable: one class's grid densities over a block,
# mu x _BLOCK float64, then take at most 8 MiB
MAX_MU = 8 * 2**20 // (8 * _BLOCK)
# a power of two at least MAX_MU times the largest K(0): every density is at
# most K(0) / h < 5e307, so a grid column divided by it sums to a finite total
_TOTAL_SCALE = 2.0 ** math.ceil(math.log2(MAX_MU * max(kernel_eval(k, 0.0) for k in KERNELS)))


def check_mu(mu) -> None:
    """The rule for a grid size: an ``int`` in [2, ``MAX_MU``]; else a ValueError."""
    if type(mu) is not int:
        raise ValueError(f"mu must be an integer, got {mu!r}")
    if not 2 <= mu <= MAX_MU:
        raise ValueError(f"mu must lie in [2, {MAX_MU}], got {mu}")


def hellinger(p, q):
    """Hellinger distance between discrete distributions, one per column.

    ``p`` and ``q`` have the same shape; with (mu, w) matrices the result
    holds the w column distances, with vectors it is one distance. Values
    are clipped at 1 against rounding.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return _distance_from_roots(np.sqrt(p), np.sqrt(q))


def _distance_from_roots(root_p, root_q):
    """``hellinger`` given the square roots of the two distributions."""
    d = _INV_SQRT2 * np.sqrt(((root_p - root_q) ** 2).sum(axis=0))
    return np.minimum(d, 1.0)


@dataclass(frozen=True, eq=False)
class HellingerTable:
    """H(class_i, class_j | variable) for all variables and class pairs.

    ``distances`` is (m, k(k-1)/2) with pairs in ``combinations(classes, 2)``
    order; lookups are symmetric in the two classes. The table holds a
    read-only copy of the distances it is given.
    """

    variable_names: tuple[str, ...]
    classes: tuple[str, ...]
    distances: np.ndarray

    def __post_init__(self):
        distances = np.array(self.distances, dtype=np.float64)
        expected = (len(self.variable_names), len(self.class_pairs))
        if distances.shape != expected:
            raise ValueError(f"distances shape {distances.shape}, expected {expected}")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError("duplicate variable names")
        distances.setflags(write=False)
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "classes", tuple(self.classes))

    @cached_property
    def class_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(combinations(self.classes, 2))

    @cached_property
    def _pair_index(self) -> dict[tuple[str, str], int]:
        return {pair: i for i, pair in enumerate(self.class_pairs)}

    def pair_column(self, class_i: str, class_j: str) -> np.ndarray:
        """H of every variable for one class pair."""
        pair = (class_i, class_j) if class_i < class_j else (class_j, class_i)
        return self.distances[:, self._pair_index[pair]]

    def rows(self):
        """Iterate (variable, class_i, class_j, h) over the whole table."""
        for v, row in zip(self.variable_names, self.distances):
            for (ci, cj), h in zip(self.class_pairs, row):
                yield v, ci, cj, float(h)


def _column_totals(dens):
    """Sum of each column of ``dens``, each as one contiguous vector: pairwise."""
    return np.ascontiguousarray(dens.T).sum(axis=1)


def _block_distances(densities, mu, out, lo, hi):
    """Write table rows ``lo:hi`` into ``out[lo:hi]``; return the number of zero-sum columns among them.

    ``densities`` cover the same variables and share one kernel; each is
    read through a column view of its bank. Each variable gets ``mu``
    equally spaced grid points over its range in all
    classes (widened to +-1 around a constant variable); each class's grid
    densities are sum-normalized (a zero-sum column becomes uniform, and a
    column whose total overflows is first divided by ``_TOTAL_SCALE``), their
    square roots are taken once, and every class pair is compared as
    ``hellinger`` compares it.
    """
    blocks = [(p.samples[:, lo:hi], p.h[lo:hi]) for p in densities]
    kernel = densities[0].kernel
    col_lo = np.min([samples.min(axis=0) for samples, _ in blocks], axis=0)
    col_hi = np.max([samples.max(axis=0) for samples, _ in blocks], axis=0)
    flat = col_lo == col_hi
    col_lo = np.where(flat, col_lo - 1.0, col_lo)
    col_hi = np.where(flat, col_hi + 1.0, col_hi)
    grids = np.linspace(col_lo, col_hi, mu)  # (mu, width)

    roots = []
    zero_sum_columns = 0
    for samples, h in blocks:
        dens = kernel_sum(samples, h, kernel, grids)
        with np.errstate(over="ignore"):
            totals = _column_totals(dens)
        huge = np.isinf(totals)  # densities near 5e307, from bandwidths near the smallest
        if huge.any():
            dens[:, huge] /= _TOTAL_SCALE
            totals[huge] = _column_totals(dens[:, huge])
        zero = totals <= 0.0
        if zero.any():
            zero_sum_columns += int(zero.sum())
            dens[:, zero] = 1.0
            totals = np.where(zero, float(mu), totals)
        dens /= totals
        roots.append(np.sqrt(dens, out=dens))
    for col, (root_a, root_b) in enumerate(combinations(roots, 2)):
        out[lo:hi, col] = _distance_from_roots(root_a, root_b)
    return zero_sum_columns


def hellinger_table(
    d: Dataset,
    kde_bank: dict[str, PackedKde],
    mu: int = DEFAULT_MU,
    jobs: int = 1,
) -> HellingerTable:
    """Tabulate H for every variable and unordered class pair.

    ``kde_bank`` maps every class to its packed density over all of the
    dataset's variables, in ``d.variable_names`` order, with one kernel
    shared by all classes (the bank of a ``fit_fnb`` model). The variables
    are cut into a multiple of ``workers`` blocks of nearly equal width, at
    most ``_BLOCK``, where ``workers`` is ``jobs`` capped at
    ``os.cpu_count()`` and at half the variables. No block is then one
    variable wide unless the table is: numpy sums a single column pairwise
    rather than in order, so a variable's distance would depend on where the
    blocks end. Each block writes its own rows of one preallocated (m,
    k(k-1)/2) array, which the table then copies. With more than one worker
    the blocks go through a thread pool; the table is the same for every
    ``jobs``, and one warning counts its zero-sum columns. ``mu`` must pass
    ``check_mu`` and ``jobs`` be at least 1.
    """
    check_mu(mu)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for c in d.classes:
        if c not in kde_bank or kde_bank[c].width != d.m:
            raise ValueError(f"kde bank incomplete: class {c!r} has no density over all {d.m} variables")
    densities = [kde_bank[c] for c in d.classes]
    kernels = {p.kernel for p in densities}
    if len(kernels) != 1:
        raise ValueError(f"kde bank mixes kernels: {', '.join(sorted(kernels))}")

    workers = max(1, min(jobs, os.cpu_count() or 1, d.m // 2))
    count = workers * -(-d.m // (_BLOCK * workers))
    bounds = np.linspace(0, d.m, count + 1).astype(int)
    distances = np.empty((d.m, len(densities) * (len(densities) - 1) // 2))
    block = partial(_block_distances, densities, mu, distances)
    # in turn, not through a one-thread pool: a pool thread allocates from a malloc arena of
    # its own, which raised the peak RSS of fit by 3-5 MB and of evaluate by 4-7 MB on multiclass-k10
    if workers == 1:
        counts = list(map(block, bounds[:-1], bounds[1:]))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(block, bounds[:-1], bounds[1:]))
    zero_sum_columns = sum(counts)
    if zero_sum_columns:
        warnings.warn(f"{zero_sum_columns} zero-sum density vectors normalized to uniform", stacklevel=2)
    return HellingerTable(d.variable_names, d.classes, distances)
