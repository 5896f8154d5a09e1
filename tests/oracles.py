"""Reference implementations the library is checked against.

The slow, direct way of computing what the library computes in bulk: one
one-dimensional density (``KdeModel``) at a time, one grid per variable,
one Python loop per Hellinger sum, one ``table.value`` lookup per factor
of a subset's power. ``bandwidth`` is ``column_bandwidths`` applied to one
sample. ``broadcast_on_grid`` and ``broadcast_block_distances`` are the
library's packed kernel sum and table as one 3-d (mu, n, width) broadcast
per block, reduced over its middle axis: that adds the samples in the same
order as the library's steps of grid rows, the kernel's constant goes on
after the sum, and each column total is a pairwise sum of one vector, so
the two agree bit for bit. ``v2_payload`` is the version 2 model-file
writer, whose arrays are nested lists of decimal floats; the library
rejects that version, as it does version 1 (``v1_payload``).
``column_layout_ci_scan`` is the library's former dependence scan: unit
residuals kept one variable per column, all pairs decoded up front (or
``triu_indices`` when exhaustive), and each step of 16 384 pairs gathers
two strided (n, step) column blocks and reduces them over the samples;
every step also computes p-values, for however few strong pairs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from xnb.classifier import GnbModel
from xnb.diagnostics import (
    CiScanResult,
    _betainc,
    _decode_pair,
    _sample_pairs,
    within_class_residuals,
)
from xnb.kde import (
    DEFAULT_KERNEL,
    DEFAULT_MU,
    DEFAULT_RULE,
    KERNELS,
    beta_coefficient,
    check_name,
    column_bandwidths,
    kernel_eval,
    scale_to_unit,
)

logger = logging.getLogger(__name__)

# beta-family exponent s per kernel name
_BETA_EXPONENT = {"uniform": 0, "epanechnikov": 1, "biweight": 2, "triweight": 3}


def bandwidth(rule: str, values, fallback_scale: float | None = None) -> float:
    """Bandwidth of one sample under a named rule (see ``column_bandwidths``).

    The fallback scale defaults to the values' own range.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("values must be nonempty")
    if fallback_scale is None:
        fallback_scale = np.ptp(values)
    return float(column_bandwidths(rule, values[:, None], fallback_scale)[0])


@dataclass(frozen=True)
class KdeModel:
    """Fitted one-dimensional density: samples, bandwidth, kernel name."""

    samples: np.ndarray
    h: float
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-d sequence")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.h}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        check_name(self.kernel, KERNELS, "kernel")

    @property
    def n(self) -> int:
        return self.samples.size


def fit_kde(
    values,
    kernel: str = DEFAULT_KERNEL,
    rule: str = DEFAULT_RULE,
    fallback_scale: float | None = None,
) -> KdeModel:
    """Fit a KdeModel with the bandwidth chosen by ``rule``."""
    return KdeModel(values, bandwidth(rule, values, fallback_scale), kernel)


def kde_on_grid(model: KdeModel, grid) -> np.ndarray:
    """Density at each grid point: exact (1/nh) sum of scaled kernels."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    u = (grid[:, None] - model.samples[None, :]) / model.h
    return kernel_eval(model.kernel, u).sum(axis=1) / (model.n * model.h)


def kde_density_at(model: KdeModel, x: float) -> float:
    """Density at a single point (same summation as ``kde_on_grid``)."""
    return float(kde_on_grid(model, np.array([x], dtype=np.float64))[0])


def make_grid(values, mu: int = DEFAULT_MU) -> np.ndarray:
    """``mu`` equally spaced points spanning the values' full range.

    The range is taken over everything passed in (all classes share one
    grid). A constant variable yields a grid widened to +-1 around it.
    """
    if mu < 2:
        raise ValueError(f"mu must be at least 2, got {mu}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be nonempty")
    lo = float(np.min(values))
    hi = float(np.max(values))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    return np.linspace(lo, hi, mu)


def normalize_to_distribution(densities) -> np.ndarray:
    """Scale a non-negative vector to sum to 1.

    A zero-sum vector (possible only under pathological fallback bandwidths)
    becomes the uniform distribution, with a WARNING record.
    """
    densities = np.asarray(densities, dtype=np.float64)
    if densities.size == 0:
        raise ValueError("densities must be nonempty")
    if np.any(densities < 0):
        raise ValueError("densities must be non-negative")
    total = densities.sum()
    if total <= 0.0:
        logger.warning("zero-sum density vector normalized to uniform")
        return np.full(densities.size, 1.0 / densities.size)
    return densities / total


def hellinger_oracle(p, q) -> float:
    """Hellinger distance by direct per-entry summation."""
    acc = 0.0
    for a, b in zip(p, q):
        acc += (math.sqrt(a) - math.sqrt(b)) ** 2
    return math.sqrt(acc) / math.sqrt(2.0)


def per_variable_oracle(d, bank, mu: int = DEFAULT_MU) -> np.ndarray:
    """Hellinger table with one grid and one ``kde_on_grid`` per (class, variable)."""
    pairs = list(combinations(range(len(d.classes)), 2))
    out = np.empty((d.m, len(pairs)))
    for j in range(d.m):
        models = [KdeModel(bank[c].samples[:, j], bank[c].h[j], bank[c].kernel) for c in d.classes]
        grid = make_grid(np.concatenate([model.samples for model in models]), mu)
        dists = [normalize_to_distribution(kde_on_grid(model, grid)) for model in models]
        for col, (a, b) in enumerate(pairs):
            out[j, col] = hellinger_oracle(dists[a], dists[b])
    return out


def broadcast_kernel_body(kind: str, u):
    """The kernel without its constant factor at ``u``, as whole-array expressions."""
    check_name(kind, KERNELS, "kernel")
    if kind == "gaussian":
        return np.exp(-0.5 * u * u)
    s = _BETA_EXPONENT[kind]
    body = (1.0 - u * u) ** s if s else np.ones_like(u)
    return np.where(np.abs(u) <= 1.0, body, 0.0)


def broadcast_kernel(kind: str, u):
    """Kernel values at ``u`` as whole-array expressions (no in-place steps)."""
    check_name(kind, KERNELS, "kernel")
    if kind == "gaussian":
        return broadcast_kernel_body(kind, u) / math.sqrt(2.0 * math.pi)
    return beta_coefficient(_BETA_EXPONENT[kind]) * broadcast_kernel_body(kind, u)


def broadcast_on_grid(kde, grids) -> np.ndarray:
    """``PackedKde.on_grid`` as one (mu, n, w) broadcast.

    The kernel bodies are summed over the samples, and the kernel's
    constant c goes on after the sum: times ``c / n``, then over ``h``.
    """
    kind = kde.kernel
    c = 1.0 / math.sqrt(2.0 * math.pi) if kind == "gaussian" else beta_coefficient(_BETA_EXPONENT[kind])
    u = (grids[:, None, :] - kde.samples[None]) / kde.h
    return broadcast_kernel_body(kind, u).sum(axis=1) * (c / len(kde.samples)) / kde.h


def broadcast_block_distances(densities, mu, block):
    """Table rows as the library built them with 3-d broadcasts, ``block`` variables at a time.

    Same grids, zero-sum fallback and WARNING record as ``hellinger.hellinger_table``;
    the square roots are taken per class pair. The blocks are
    ``range(0, w, block)``, so a last block one column wide is summed
    pairwise by numpy: pass ``block >= w`` (one block) for the reference
    the library matches at every width.
    """
    k = len(densities)
    w = densities[0].width
    pair_idx = list(combinations(range(k), 2))
    out = np.empty((w, len(pair_idx)))
    zero_sum_columns = 0
    for lo in range(0, w, block):
        hi = min(lo + block, w)
        blocks = [p.take(slice(lo, hi)) for p in densities]
        col_lo = np.min([p.samples.min(axis=0) for p in blocks], axis=0)
        col_hi = np.max([p.samples.max(axis=0) for p in blocks], axis=0)
        flat = col_lo == col_hi
        col_lo = np.where(flat, col_lo - 1.0, col_lo)
        col_hi = np.where(flat, col_hi + 1.0, col_hi)
        grids = np.linspace(col_lo, col_hi, mu)

        dists = []
        for p in blocks:
            dens = broadcast_on_grid(p, grids)
            totals = np.array([column.sum() for column in dens.T])
            zero = totals <= 0.0
            if zero.any():
                zero_sum_columns += int(zero.sum())
                dens[:, zero] = 1.0
                totals = np.where(zero, float(mu), totals)
            dists.append(dens / totals)
        for col, (a, b) in enumerate(pair_idx):
            d = (1.0 / np.sqrt(2.0)) * np.sqrt(((np.sqrt(dists[a]) - np.sqrt(dists[b])) ** 2).sum(axis=0))
            out[lo:hi, col] = np.minimum(d, 1.0)
    if zero_sum_columns:
        logger.warning("%d zero-sum density vectors normalized to uniform", zero_sum_columns)
    return out


def table_value(table, variable: str, class_i: str, class_j: str) -> float:
    """H of one variable for one (unordered) class pair; KeyError for an absent variable."""
    row = {name: i for i, name in enumerate(table.variable_names)}[variable]
    return float(table.pair_column(class_i, class_j)[row])


def discriminatory_power(subset, class_i: str, table) -> float:
    """Power ``1 - prod(1 - H)`` of ``subset`` to separate ``class_i`` from all other classes."""
    subset = tuple(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if class_i not in table.classes:
        raise KeyError(f"unknown class {class_i!r}")
    residual = 1.0
    for other in table.classes:
        if other == class_i:
            continue
        for v in subset:
            residual *= 1.0 - table_value(table, v, class_i, other)
    return 1.0 - residual


def v2_payload(model) -> dict:
    """A model as a version 2 file's JSON payload: every array as nested lists."""
    payload = {
        "version": 2,
        "method": model.method,
        "classes": list(model.classes),
        "priors": dict(model.priors),
        "variables": list(model.variable_names),
    }
    if isinstance(model, GnbModel):
        payload["gnb"] = {
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
            "smoothing": model.smoothing,
        }
        return payload
    payload["config"] = {
        **asdict(model.config), "floor": 1e-12, "pair_order": "sorted-labels", "tie_break": "lexicographic"
    }
    payload["features"] = {c: list(model.features.features[c]) for c in model.classes}
    payload["kde"] = {
        c: {
            "kernel": model.kde_bank[c].kernel,
            "h": model.kde_bank[c].h.tolist(),
            "samples": model.kde_bank[c].samples.tolist(),
        }
        for c in model.classes
    }
    return payload


def v1_payload(model) -> dict:
    """A kde model as a version 1 file's JSON payload: one kde entry per (class, variable)."""
    payload = {**v2_payload(model), "version": 1}
    payload["kde"] = {
        c: {
            v: {"samples": density.samples[:, j].tolist(), "h": float(density.h[j]), "kernel": density.kernel}
            for j, v in enumerate(model.features.features[c])
        }
        for c, density in model.kde_bank.items()
    }
    return payload


def column_layout_ci_scan(d, p_max: float, r_min: float, max_pairs: int | None, seed: int = 0):
    """``conditional_independence_scan`` over (n, m) unit residuals, 16 384 pairs a step."""
    chunk = 16_384
    m = d.m
    residuals = scale_to_unit(within_class_residuals(d.values, d.labels))[0]
    norms = np.sqrt((residuals**2).sum(axis=0))
    degenerate = norms == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(degenerate, np.nan, 1.0) * residuals / np.where(degenerate, 1.0, norms)
    sampled = max_pairs is not None and m * (m - 1) // 2 > max_pairs
    ii, jj = _decode_pair(_sample_pairs(m, max_pairs, seed), m) if sampled else np.triu_indices(m, k=1)
    names = d.variable_names
    flagged = []
    skipped = 0
    for lo in range(0, ii.size, chunk):
        bi, bj = ii[lo : lo + chunk], jj[lo : lo + chunk]
        r = np.clip(np.einsum("ij,ij->j", unit[:, bi], unit[:, bj]), -1.0, 1.0)
        finite = np.isfinite(r)
        skipped += int(r.size - finite.sum())
        strong = np.flatnonzero(finite & (np.abs(r) > r_min))
        p = _betainc(0.5 * (d.n - len(d.classes) - 1), 0.5, 1.0 - r[strong] ** 2)
        hit = p < p_max
        flagged += [
            (names[bi[k]], names[bj[k]], float(r[k]), pk)
            for k, pk in zip(strong[hit].tolist(), p[hit].tolist())
        ]
    involved = {a for a, _, _, _ in flagged} | {b for _, b, _, _ in flagged}
    return CiScanResult(
        ratio=len(involved) / m,
        examined_pairs=int(ii.size - skipped),
        flagged=tuple(flagged),
        skipped_pairs=skipped,
        sampled=sampled,
    )
