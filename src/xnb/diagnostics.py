"""Dataset characterization scans: normality and conditional independence.

The Shapiro-Wilk W statistic and p-value follow Royston's approximation
(the AS R94 family, valid for 3 <= n <= 5000). The conditional-independence
scan regresses each variable on the class (within-class centering), then
tests the Pearson correlation r of residual pairs with the two-sided t
test, whose p-value is the regularized incomplete beta I_(1-r^2)(dof/2, 1/2)
with dof = n - k - 1 for k classes (a partial correlation given the class),
flagging pairs that are both statistically and practically significant.
Everything runs on numpy and the standard library.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, rows_by_label
from .errors import DataError
from .kde import scale_to_unit

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.05
DEFAULT_P_MAX = 1e-6
DEFAULT_R_MIN = 0.7
DEFAULT_MAX_PAIRS = 200_000
# Bytes per side of a dependence-scan step, which takes max(1, CI_STEP_BYTES
# // 8n) pairs (or residual rows, when their norms are summed): the scan holds
# the (m, n) residuals plus two gathered blocks of at most 1 MiB each,
# whatever n (one row a side above n = 131 072), and decodes each step's pair
# indices as it goes. A sampled scan also holds its cap of int64 pair indices
# (1.6 MB under the default cap), whatever m.
CI_STEP_BYTES = 1 << 20
# blocks the pair sampler cuts the m(m-1)/2 pair indices into: it draws
# within one block at a time, so no array spans every pair
_SAMPLE_BLOCKS = 32

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
    # imported here: every verb imports this module, only `diagnose` needs it
    from statistics import NormalDist

    n2 = n // 2
    if n == 3:
        return np.array([math.sqrt(0.5)])
    inv_cdf = NormalDist().inv_cdf
    m = np.array([inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n2 + 1)])  # negative half
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


def _sw_p_values(w: np.ndarray, n: int) -> list[float]:
    """Royston's p-value of each W statistic of samples of size n."""
    if n == 3:
        return [
            min(max(1.9098593171027437 * (math.asin(math.sqrt(v)) - 1.0471975511965976), 0.0), 1.0)
            for v in w.tolist()
        ]
    if n <= 11:
        gamma = _poly(_G, n)
        mu, sigma = _poly(_C3, n), math.exp(_poly(_C4, n))
    else:
        log_n = math.log(n)
        mu, sigma = _poly(_C5, log_n), math.exp(_poly(_C6, log_n))
    p = []
    for v in w.tolist():
        y = math.log1p(-v)
        if n <= 11:
            if y >= gamma:
                p.append(1e-99)
                continue
            y = -math.log(gamma - y)
        # upper normal tail of z = (y - mu) / sigma
        p.append(0.5 * math.erfc((y - mu) / sigma / math.sqrt(2.0)))
    return p


def _shapiro_wilk_rows(x: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """W and p-value of each row of ``x``, a (k, n) matrix of non-constant rows.

    ``x`` is overwritten: its rows are scaled, sorted, centered and squared
    in place, so besides it the test holds one (k, n // 2) array. Every
    reduction runs along a row, so a row's result does not depend on the
    other rows.
    """
    scale_to_unit(x, axis=1, out=x)
    x.sort(axis=1)
    n = x.shape[1]
    a = _sw_coefficients(n)
    n2 = n // 2
    # antisymmetric weights: -a on the lower half, +a mirrored on the upper
    spread = x[:, : -n2 - 1 : -1] - x[:, :n2]
    spread *= a
    numerator = spread.sum(axis=1)
    del spread  # before the p-values' lists are built
    x -= x.mean(axis=1, keepdims=True)
    ss = np.square(x, out=x).sum(axis=1)
    w = np.minimum(numerator * numerator / ss, 1.0)
    return w, _sw_p_values(w, n)


def shapiro_wilk(values) -> tuple[float, float]:
    """W statistic and p-value of the Shapiro-Wilk normality test.

    Requires 3 <= n <= 5000 and a non-constant sample.
    """
    x = np.array(values, dtype=np.float64).reshape(1, -1)
    n = x.shape[1]
    if n < _MIN_N or n > _MAX_N:
        raise ValueError(f"sample size must lie in [{_MIN_N}, {_MAX_N}], got {n}")
    if x.max() == x.min():
        raise ValueError("all values are identical (zero variance)")
    w, p = _shapiro_wilk_rows(x)
    return float(w[0]), p[0]


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
    columns = d.values.T  # (m, n), C-contiguous
    constant = d.column_max == d.column_min
    out_of_range = not _MIN_N <= d.n <= _MAX_N
    if out_of_range:
        logger.warning("%d samples, outside the Shapiro-Wilk range; normality not tested", d.n)
        tested = {}
    else:
        # one pass over every testable column: the weights depend only on n
        idx = np.flatnonzero(~constant)
        w, p = _shapiro_wilk_rows(columns[idx])
        tested = dict(zip(idx.tolist(), zip(w.tolist(), p)))
    rows = []
    rejected = 0
    for j, name in enumerate(d.variable_names):
        if constant[j]:
            rejected += 1
            rows.append({"variable": name, "w": None, "p": None, "rejected": True, "note": "zero variance"})
            logger.info("variable %s has zero variance; counted as non-normal", name)
        elif out_of_range:
            note = f"{d.n} samples, outside the Shapiro-Wilk range [{_MIN_N}, {_MAX_N}]"
            rows.append({"variable": name, "w": None, "p": None, "rejected": False, "note": note})
        else:
            w, p = tested[j]
            reject = p < alpha
            rejected += reject
            rows.append({"variable": name, "w": w, "p": p, "rejected": reject, "note": None})
    return rejected / d.m, rows


def within_class_residuals(values, labels) -> np.ndarray:
    """Values minus their class means, column by column.

    ``values`` holds one sample per row, (n,) or (n, m); ``labels`` the n
    classes. Regressing a continuous variable on a categorical one fits
    the class means, so these are the regression residuals.
    """
    residuals = np.array(values, dtype=np.float64)
    labels = list(labels)
    if residuals.shape[:1] != (len(labels),):
        raise ValueError(f"length mismatch: {residuals.shape} values vs {(len(labels),)} labels")
    for rows in rows_by_label(labels).values():  # the classes' order changes no residual
        # one gathered copy of the class at a time, scaled so that its sum cannot overflow
        block = residuals[rows]
        exponent = scale_to_unit(block, out=block)[1]
        mean = np.ldexp(block.mean(axis=0), exponent)
        del block  # before the subtraction gathers its own copy
        residuals[rows] -= mean
    return residuals


def _betainc(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) for scalars a, b > 0 and x in [0, 1].

    The continued fraction converges fast below the mean, x < (a+1)/(a+b+2);
    above it, I_x(a, b) = 1 - I_(1-x)(b, a).
    """
    x = np.asarray(x, dtype=np.float64)
    y = 1.0 - x
    out = np.empty_like(x)
    beta = math.exp(_log_beta(a, b))
    flip = x > (a + 1.0) / (a + b + 2.0)
    for swap, p, q in ((False, a, b), (True, b, a)):
        u, v = (y[flip], x[flip]) if swap else (x[~flip], y[~flip])  # v = 1 - u
        value = u**p * v**q / (p * beta) * _beta_fraction(p, q, u)
        out[flip == swap] = 1.0 - value if swap else value
    return out


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b).

    For large a, log Gamma(a + b) - log Gamma(a) cancels and keeps only about
    eps * a * log(a) of relative precision, so there it comes from Stirling's
    series with the leading terms cancelled by hand. For b = 1/2, the series'
    first omitted term, about b / (252 a^6), falls below that rounding near a = 64.
    """
    if a < 64.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    c = a + b
    log_ratio = (
        (a - 0.5) * math.log1p(b / a) + b * math.log(c) - b
        + (1.0 / (12.0 * c) - 1.0 / (12.0 * a))
        - (1.0 / (360.0 * c**3) - 1.0 / (360.0 * a**3))
    )
    return math.lgamma(b) - log_ratio


def _beta_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny, eps = 1e-300, 1e-15

    def nudge(v):
        return np.where(np.abs(v) < tiny, tiny, v)

    c = np.ones_like(x)
    d = 1.0 / nudge(1.0 - (a + b) * x / (a + 1.0))
    h = d
    # each value stops at its first step within eps of 1: later steps wander
    # by a few ulps, so they need not all be within eps at once
    done = np.zeros(x.shape, dtype=bool)
    # the worst case takes O(sqrt(max(a, b))) terms
    for m in range(1, 200 + int(20.0 * math.sqrt(max(a, b)))):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / nudge(1.0 + coef * d)
            c = nudge(1.0 + coef / c)
            step = d * c
            h = np.where(done, h, h * step)
        done |= np.abs(step - 1.0) < eps
        if done.all():
            return h
    raise RuntimeError(f"incomplete beta fraction did not converge for a={a}, b={b}")


def _decode_pair(linear: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices in [0, m(m-1)/2) to (i, j) with i < j, in ``triu_indices`` order.

    Row i starts at i(b - i)/2 with b = 2m - 1, so i is the floor of the
    smaller root of i^2 - b i + 2 linear. Rounding can put the float root
    one row late at a row's last pair (it does at m = 1.3e8), which the
    guard takes back; at a row's first pair b^2 - 8 linear is a square,
    whose root is exact while b^2 < 2^53.
    """
    linear = np.asarray(linear, dtype=np.int64)
    b = 2 * m - 1
    i = ((b - np.sqrt(float(b * b) - 8.0 * linear)) * 0.5).astype(np.int64)
    i -= linear < i * (b - i) // 2
    return i, linear - i * (b - i) // 2 + i + 1


def _sample_pairs(m: int, cap: int, seed: int) -> np.ndarray:
    """``cap`` distinct linear pair indices drawn uniformly from all m(m-1)/2, sorted.

    Each index is first kept with probability p, block by block: a
    Bernoulli sample, which is uniform given its size. p puts the expected
    number kept 6 sqrt(cap) + 16 above ``cap``, about six standard
    deviations, and every block count is redrawn in the rare case that
    fewer were kept. A uniform subset of the surplus is then dropped, so
    the result is uniform among all subsets of size ``cap``. It holds
    O(cap) indices, whatever m.
    """
    total = m * (m - 1) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    starts = [total * block // _SAMPLE_BLOCKS for block in range(_SAMPLE_BLOCKS + 1)]
    sizes = np.diff(starts)
    p = min(1.0, (cap + 6.0 * math.sqrt(cap) + 16.0) / total)
    counts = rng.binomial(sizes, p)
    while counts.sum() < cap:
        counts = rng.binomial(sizes, p)
    kept = np.concatenate([
        start + np.sort(rng.choice(size, count, replace=False, shuffle=False))
        for start, size, count in zip(starts, sizes.tolist(), counts.tolist())
    ])
    return np.delete(kept, rng.choice(kept.size, kept.size - cap, replace=False, shuffle=False))


@dataclass(frozen=True)
class CiScanResult:
    ratio: float
    examined_pairs: int
    flagged: tuple[tuple[str, str, float, float], ...]
    skipped_pairs: int
    sampled: bool


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
    if d.n < len(d.classes) + 3:
        raise DataError(
            f"dependence scan needs at least {len(d.classes) + 3} samples with {len(d.classes)} classes, got {d.n}"
        )
    m = d.m
    step = max(1, CI_STEP_BYTES // (8 * d.n))
    # one row per variable: the values are column-major, so the transpose is a view
    unit = within_class_residuals(d.values, d.labels).T
    scale_to_unit(unit, axis=1, out=unit)
    norms = np.concatenate([np.square(unit[lo : lo + step]).sum(axis=1) for lo in range(0, m, step)])
    np.sqrt(norms, out=norms)
    degenerate = norms == 0.0
    if degenerate.any():
        logger.info(
            "%d variables have zero residual variance; their pairs are skipped",
            int(degenerate.sum()),
        )
    norms[degenerate] = np.nan
    unit /= norms[:, None]

    total = m * (m - 1) // 2
    sampled = max_pairs is not None and total > max_pairs
    linear = _sample_pairs(m, max_pairs, seed) if sampled else None
    count = linear.size if sampled else total

    # centring on the k class means uses up k - 1 degrees of freedom more than a plain correlation
    dof = d.n - len(d.classes) - 1
    names = d.variable_names
    flagged = []
    skipped = 0
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        bi, bj = _decode_pair(linear[lo:hi] if sampled else np.arange(lo, hi), m)
        r = np.clip(np.einsum("ij,ij->i", unit[bi], unit[bj]), -1.0, 1.0)
        finite = np.isfinite(r)
        skipped += int(r.size - finite.sum())
        # only strong pairs can be flagged, so only they need a p-value:
        # the two-sided t test of r with dof degrees of freedom
        strong = np.flatnonzero(finite & (np.abs(r) > r_min))
        if not strong.size:
            continue
        p = _betainc(0.5 * dof, 0.5, 1.0 - r[strong] ** 2)
        hit = p < p_max
        flagged += [
            (names[bi[k]], names[bj[k]], float(r[k]), pk)
            for k, pk in zip(strong[hit].tolist(), p[hit].tolist())
        ]

    involved = {a for a, _, _, _ in flagged} | {b for _, b, _, _ in flagged}
    return CiScanResult(
        ratio=len(involved) / m,
        examined_pairs=count - skipped,
        flagged=tuple(flagged),
        skipped_pairs=skipped,
        sampled=sampled,
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Both scans' results and the settings they ran with.

    ``sw_details`` has one row per variable; ``ci`` is the dependence scan's
    result as it returned it; ``parameters`` maps alpha, p_max, r_min,
    max_pairs and seed to their values, in that order.
    """

    n_samples: int
    n_variables: int
    parameters: dict
    sw_rejection_ratio: float
    sw_details: tuple[dict, ...]
    ci: CiScanResult

    def to_dict(self) -> dict:
        return {
            "schema_version": 2,
            "n_samples": self.n_samples,
            "n_variables": self.n_variables,
            "parameters": dict(self.parameters),
            "shapiro_wilk": {
                "rejection_ratio": self.sw_rejection_ratio,
                "variables": list(self.sw_details),
            },
            "conditional_independence": {
                "dependent_ratio": self.ci.ratio,
                "examined_pairs": self.ci.examined_pairs,
                "skipped_pairs": self.ci.skipped_pairs,
                "sampled": self.ci.sampled,
                "flagged_pairs": [
                    {"variable_i": a, "variable_j": b, "r": r, "p": p}
                    for a, b, r, p in self.ci.flagged
                ],
            },
        }

    def summary(self) -> str:
        sampled = " (sampled)" if self.ci.sampled else ""
        return (
            f"SW={self.sw_rejection_ratio:.2f} non-normal at alpha={self.parameters['alpha']:g}; "
            f"P={self.ci.ratio:.2f} conditionally dependent "
            f"at p<{self.parameters['p_max']:g}, |r|>{self.parameters['r_min']:g}{sampled} "
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
    parameters = {"alpha": alpha, "p_max": p_max, "r_min": r_min, "max_pairs": max_pairs, "seed": seed}
    return DiagnosticsReport(d.n, d.m, parameters, sw_ratio, tuple(sw_rows), ci)
