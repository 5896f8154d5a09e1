"""Dataset characterization scans: normality and conditional independence.

The Shapiro-Wilk W statistic and p-value follow Royston's approximation
(the AS R94 family, valid for 3 <= n <= 5000). The conditional-independence
scan regresses each variable on the class (within-class centering), then
tests the Pearson correlation of residual pairs with a t transform,
flagging pairs that are both statistically and practically significant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import DataError

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.05
DEFAULT_P_MAX = 1e-6
DEFAULT_R_MIN = 0.7
DEFAULT_MAX_PAIRS = 200_000
# Pairs per step of the dependence scan: each step gathers two (n, chunk)
# copies of residual columns, which bounds its peak memory (2 x 26 MB at n=200).
CI_CHUNK_PAIRS = 16_384

# Royston 1992 polynomial coefficients, ascending powers.
_G = (-2.273, 0.459)
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)

_MIN_N = 3
_MAX_N = 5000


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sw_coefficients(n: int) -> np.ndarray:
    """Normalized upper-half weights a_1..a_(n//2), largest first."""
    # scipy is imported by the three functions that call it, not at module
    # load: every verb imports this module, only `diagnose` needs scipy
    from scipy.special import ndtri

    n2 = n // 2
    if n == 3:
        return np.array([math.sqrt(0.5)])
    m = ndtri((np.arange(1, n2 + 1) - 0.375) / (n + 0.25))  # negative half
    summ2 = 2.0 * float(m @ m)
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = _poly(_C1, rsn) - m[0] / ssumm2
    if n > 5:
        a2 = _poly(_C2, rsn) - m[1] / ssumm2
        fac = math.sqrt(
            (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2) / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
        )
        return np.concatenate([[a1, a2], -m[2:] / fac])
    fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1**2))
    return np.concatenate([[a1], -m[1:] / fac])


def shapiro_wilk(values) -> tuple[float, float]:
    """W statistic and p-value of the Shapiro-Wilk normality test.

    Requires 3 <= n <= 5000 and a non-constant sample.
    """
    from scipy.special import ndtr

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < _MIN_N or n > _MAX_N:
        raise ValueError(f"sample size must lie in [{_MIN_N}, {_MAX_N}], got {n}")
    if x[-1] == x[0]:
        raise ValueError("all values are identical (zero variance)")

    a = _sw_coefficients(n)
    n2 = n // 2
    # antisymmetric weights: -a on the lower half, +a mirrored on the upper
    numerator = float(a @ (x[: -n2 - 1 : -1] - x[:n2]))
    ss = float(np.sum((x - x.mean()) ** 2))
    w = min(numerator * numerator / ss, 1.0)

    if n == 3:
        p = 1.9098593171027437 * (math.asin(math.sqrt(w)) - 1.0471975511965976)
        return w, min(max(p, 0.0), 1.0)

    y = math.log1p(-w)
    if n <= 11:
        gamma = _poly(_G, n)
        if y >= gamma:
            return w, 1e-99
        z = (-math.log(gamma - y) - _poly(_C3, n)) / math.exp(_poly(_C4, n))
    else:
        log_n = math.log(n)
        z = (y - _poly(_C5, log_n)) / math.exp(_poly(_C6, log_n))
    return w, float(ndtr(-z))


def normality_scan(d: Dataset, alpha: float = DEFAULT_ALPHA) -> float:
    """Fraction of variables rejecting normality at level ``alpha``.

    Zero-variance variables cannot be tested and are counted as non-normal.
    When the sample count lies outside the test's range [3, 5000], no
    variable is tested: each is recorded with a note and does not count
    as rejecting.
    """
    ratio, _ = _normality_detail(d, alpha)
    return ratio


def _normality_detail(d: Dataset, alpha: float):
    rows = []
    rejected = 0
    out_of_range = not _MIN_N <= d.n <= _MAX_N
    if out_of_range:
        logger.warning("%d samples, outside the Shapiro-Wilk range; normality not tested", d.n)
    for j, name in enumerate(d.variable_names):
        col = d.column(j)
        if col.max() == col.min():
            rejected += 1
            rows.append({"variable": name, "w": None, "p": None, "rejected": True, "note": "zero variance"})
            logger.info("variable %s has zero variance; counted as non-normal", name)
            continue
        if out_of_range:
            note = f"{d.n} samples, outside the Shapiro-Wilk range [{_MIN_N}, {_MAX_N}]"
            rows.append({"variable": name, "w": None, "p": None, "rejected": False, "note": note})
            continue
        w, p = shapiro_wilk(col)
        reject = p < alpha
        rejected += reject
        rows.append({"variable": name, "w": w, "p": p, "rejected": bool(reject), "note": None})
    return rejected / d.m, rows


def within_class_residuals(values, labels) -> np.ndarray:
    """Values minus their class means.

    Regressing a continuous variable on a categorical one fits the class
    means, so these are the regression residuals.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.shape != labels.shape:
        raise ValueError(f"length mismatch: {values.shape} values vs {labels.shape} labels")
    residuals = values.astype(np.float64, copy=True)
    for c in np.unique(labels):
        mask = labels == c
        residuals[mask] -= values[mask].mean()
    return residuals


def _residual_matrix(d: Dataset) -> np.ndarray:
    residuals = np.array(d.values, dtype=np.float64)
    for rows in d.class_rows.values():
        residuals[rows] -= residuals[rows].mean(axis=0)
    return residuals


def _decode_pair(linear: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices in [0, m(m-1)/2) to (i, j) with i < j."""
    linear = linear.astype(np.float64)
    b = 2.0 * m - 1.0
    i = np.floor((b - np.sqrt(b * b - 8.0 * linear)) / 2.0).astype(np.int64)
    # guard against float rounding at block boundaries
    first = i * (2 * m - i - 1) // 2
    i = np.where(linear.astype(np.int64) < first, i - 1, i)
    first = i * (2 * m - i - 1) // 2
    j = linear.astype(np.int64) - first + i + 1
    return i, j


def _sample_pairs(m: int, cap: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``cap`` distinct pairs drawn uniformly from all m(m-1)/2, in linear order."""
    total = m * (m - 1) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = np.sort(rng.choice(total, size=cap, replace=False))
    return _decode_pair(chosen, m)


@dataclass(frozen=True)
class CiScanResult:
    ratio: float
    examined_pairs: int
    flagged: tuple[tuple[str, str, float, float], ...]
    skipped_pairs: int
    sampled: bool
    dependent_variables: tuple[str, ...] = field(default=())


def conditional_independence_scan(
    d: Dataset,
    p_max: float = DEFAULT_P_MAX,
    r_min: float = DEFAULT_R_MIN,
    max_pairs: int | None = DEFAULT_MAX_PAIRS,
    seed: int = 0,
) -> CiScanResult:
    """Scan variable pairs for conditional dependence given the class.

    A pair is flagged when the Pearson correlation of its within-class
    residuals is significant (two-sided t test, p < ``p_max``) and strong
    (|r| > ``r_min``). The returned ratio is the fraction of variables
    belonging to at least one flagged pair. When the number of pairs
    exceeds ``max_pairs`` a seeded uniform sample is scanned instead and
    the result is marked as sampled.
    """
    from scipy.special import stdtr

    if d.n < 4:
        raise DataError(f"dependence scan needs at least 4 samples, got {d.n}")
    m = d.m
    residuals = _residual_matrix(d)
    norms = np.sqrt((residuals**2).sum(axis=0))
    degenerate = norms == 0.0
    if degenerate.any():
        logger.info(
            "%d variables have zero residual variance; their pairs are skipped",
            int(degenerate.sum()),
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(degenerate, np.nan, 1.0) * residuals / np.where(degenerate, 1.0, norms)

    total = m * (m - 1) // 2
    sampled = max_pairs is not None and total > max_pairs
    if sampled:
        ii, jj = _sample_pairs(m, max_pairs, seed)
    else:
        ii, jj = np.triu_indices(m, k=1)

    dof = d.n - 2
    flagged_mask = np.zeros(ii.size, dtype=bool)
    r_all = np.empty(ii.size)
    p_all = np.empty(ii.size)
    skipped = 0
    for lo in range(0, ii.size, CI_CHUNK_PAIRS):
        hi = min(lo + CI_CHUNK_PAIRS, ii.size)
        bi, bj = ii[lo:hi], jj[lo:hi]
        r = np.einsum("ij,ij->j", unit[:, bi], unit[:, bj])
        bad = ~np.isfinite(r)
        skipped += int(bad.sum())
        r = np.clip(r, -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = r * np.sqrt(dof / (1.0 - r * r))
        p = 2.0 * stdtr(dof, -np.abs(t))
        p = np.where(np.abs(r) == 1.0, 0.0, p)
        ok = ~bad & (p < p_max) & (np.abs(r) > r_min)
        flagged_mask[lo:hi] = ok
        r_all[lo:hi] = r
        p_all[lo:hi] = p

    flag_idx = np.flatnonzero(flagged_mask)
    names = d.variable_names
    flagged = tuple(
        (names[ii[k]], names[jj[k]], float(r_all[k]), float(p_all[k])) for k in flag_idx
    )
    involved = sorted({names[ii[k]] for k in flag_idx} | {names[jj[k]] for k in flag_idx})
    return CiScanResult(
        ratio=len(involved) / m,
        examined_pairs=int(ii.size - skipped),
        flagged=flagged,
        skipped_pairs=skipped,
        sampled=sampled,
        dependent_variables=tuple(involved),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Both scan ratios plus per-variable detail and the scan parameters."""

    n_samples: int
    n_variables: int
    alpha: float
    p_max: float
    r_min: float
    max_pairs: int | None
    seed: int
    sw_rejection_ratio: float
    sw_details: tuple[dict, ...]
    ci_dependent_ratio: float
    ci_examined_pairs: int
    ci_flagged_pairs: tuple[tuple[str, str, float, float], ...]
    ci_skipped_pairs: int
    ci_sampled: bool
    schema_version: int = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "n_samples": self.n_samples,
            "n_variables": self.n_variables,
            "parameters": {
                "alpha": self.alpha,
                "p_max": self.p_max,
                "r_min": self.r_min,
                "max_pairs": self.max_pairs,
                "seed": self.seed,
            },
            "shapiro_wilk": {
                "rejection_ratio": self.sw_rejection_ratio,
                "variables": list(self.sw_details),
            },
            "conditional_independence": {
                "dependent_ratio": self.ci_dependent_ratio,
                "examined_pairs": self.ci_examined_pairs,
                "skipped_pairs": self.ci_skipped_pairs,
                "sampled": self.ci_sampled,
                "flagged_pairs": [
                    {"variable_i": a, "variable_j": b, "r": r, "p": p}
                    for a, b, r, p in self.ci_flagged_pairs
                ],
            },
        }

    def summary(self) -> str:
        sampled = " (sampled)" if self.ci_sampled else ""
        return (
            f"SW={self.sw_rejection_ratio:.2f} non-normal at alpha={self.alpha:g}; "
            f"P={self.ci_dependent_ratio:.2f} conditionally dependent "
            f"at p<{self.p_max:g}, |r|>{self.r_min:g}{sampled} "
            f"[{self.n_samples} samples x {self.n_variables} variables]"
        )


def run_diagnostics(
    d: Dataset,
    alpha: float = DEFAULT_ALPHA,
    p_max: float = DEFAULT_P_MAX,
    r_min: float = DEFAULT_R_MIN,
    max_pairs: int | None = DEFAULT_MAX_PAIRS,
    seed: int = 0,
) -> DiagnosticsReport:
    """Run both scans and assemble the full report."""
    sw_ratio, sw_rows = _normality_detail(d, alpha)
    ci = conditional_independence_scan(d, p_max=p_max, r_min=r_min, max_pairs=max_pairs, seed=seed)
    return DiagnosticsReport(
        n_samples=d.n,
        n_variables=d.m,
        alpha=alpha,
        p_max=p_max,
        r_min=r_min,
        max_pairs=max_pairs,
        seed=seed,
        sw_rejection_ratio=sw_ratio,
        sw_details=tuple(sw_rows),
        ci_dependent_ratio=ci.ratio,
        ci_examined_pairs=ci.examined_pairs,
        ci_flagged_pairs=ci.flagged,
        ci_skipped_pairs=ci.skipped_pairs,
        ci_sampled=ci.sampled,
    )
