"""One-dimensional Parzen-Rosenblatt density estimation.

Kernels: the Gaussian plus the beta polynomial family
``K_s(u) = (2s+1)!! / (2^(s+1) s!) * (1 - u^2)^s`` on [-1, 1], which covers
uniform (s=0), Epanechnikov (s=1), biweight (s=2) and triweight (s=3). All
are second-order kernels, so every estimate is a genuine density.

Bandwidths come from reference rules (Scott, Silverman, and Silverman's
adaptive variant), one per column of a sample matrix, in byte-bounded
column blocks. ``PackedKde`` holds one class's densities over many
variables as one sample matrix; ``kernel_sum`` is the one kernel sum,
used by ``PackedKde.on_grid`` for prediction (a one-point grid) and by
the Hellinger table, on column views of a bank, for its grids. It walks
the grid in steps of rows: one (step, n, w) buffer of at most 512 KiB (or
one row) takes the steps' scaled offsets, the kernel body overwrites them
in place and they are summed over the samples, so the temporary memory is
bounded however many grid points there are. The kernel's constant, ``1 / n`` and ``1 / h``
are applied once to the sums. Point evaluation is the exact sum over
samples, never a grid interpolation, so prediction accuracy does not
depend on the grid resolution used elsewhere. A one-column ``PackedKde``
is a single one-dimensional density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_KERNEL = "gaussian"
DEFAULT_RULE = "silverman"
DEFAULT_MU = 50

# beta-family exponent s per kernel name
_BETA_EXPONENT = {"uniform": 0, "epanechnikov": 1, "biweight": 2, "triweight": 3}

KERNELS = ("gaussian",) + tuple(_BETA_EXPONENT)
BANDWIDTH_RULES = ("scott", "silverman", "silverman_adaptive")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# the smallest bandwidth: the smallest normal float, so that every density,
# at most K(0) / h, stays below 5e307
MIN_BANDWIDTH = float(np.finfo(np.float64).tiny)

# the most bytes of the (step, n, w) buffer that ``kernel_sum`` fills at once, and
# of each column block that ``column_blocks`` cuts where two columns fit
_STEP_BYTES = 512 << 10


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def beta_coefficient(s: int) -> float:
    """Normalizing constant (2s+1)!! / (2^(s+1) s!) of the beta family."""
    return _double_factorial(2 * s + 1) / (2 ** (s + 1) * math.factorial(s))


def check_name(name, names: tuple[str, ...], what: str) -> None:
    """Raise ValueError unless ``name`` is exactly one of ``names`` (``KERNELS`` or ``BANDWIDTH_RULES``)."""
    if not (isinstance(name, str) and name in names):
        raise ValueError(f"unknown {what} {name!r}; expected one of {', '.join(names)}")


def kernel_eval(kind: str, u):
    """Evaluate kernel ``kind`` (one of ``KERNELS``) at ``u`` (scalar or array)."""
    check_name(kind, KERNELS, "kernel")
    out = _kernel_body_in_place(kind, np.array(u, dtype=np.float64))
    if kind == "gaussian":
        out /= _SQRT_2PI
    else:
        out *= _kernel_constant(kind)
    return float(out) if out.ndim == 0 else out


def _kernel_constant(kind: str) -> float:
    """The constant factor c of kernel ``kind``: K(u) = c * body(u)."""
    return 1.0 / _SQRT_2PI if kind == "gaussian" else beta_coefficient(_BETA_EXPONENT[kind])


def _kernel_body_in_place(kind: str, u: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array ``u`` with the kernel's body at ``u``; return it.

    The body is the kernel without its constant factor: ``exp(-u^2/2)``
    or ``(1 - u^2)^s`` on [-1, 1]. ``kind`` must be one of ``KERNELS``. Every step
    is an in-place ufunc, so no temporary the size of ``u`` is made.
    """
    np.multiply(u, u, out=u)
    if kind == "gaussian":
        u *= -0.5
        return np.exp(u, out=u)
    s = _BETA_EXPONENT[kind]
    np.subtract(1.0, u, out=u)  # 1 - u^2 is negative exactly where |u| > 1
    if s:
        np.maximum(u, 0.0, out=u)
        u **= s
    else:
        np.greater_equal(u, 0.0, out=u)
    return u


def scott_bandwidth(sigma, n: int):
    """Scott's data-based rule ``3.49 sigma n^(-1/3)``."""
    return 3.49 * sigma * n ** (-1.0 / 3.0)


def silverman_bandwidth(sigma, n: int):
    """Silverman's normalized reference rule ``1.059 sigma n^(-1/5)``."""
    return 1.059 * sigma * n ** (-0.2)


def silverman_adaptive_bandwidth(sigma, iqr, n: int):
    """Silverman's adaptive rule ``0.9 min(sigma, IQR/1.34) n^(-1/5)``."""
    return 0.9 * np.minimum(sigma, iqr / 1.34) * n ** (-0.2)


def scale_to_unit(x: np.ndarray, axis: int = 0, out: np.ndarray | None = None):
    """Divide each line of ``x`` along ``axis`` by the power of two of its largest magnitude.

    Returns the scaled array (``out`` when given) and the exponents, one
    per line. The division is exact in the normal range and keeps squares
    and sums of values near the largest float finite; ``np.ldexp`` by the
    exponents (twice them for squares) scales a result back.
    """
    _, exponent = np.frexp(np.maximum(x.max(axis=axis), -x.min(axis=axis)))
    return np.ldexp(x, -np.expand_dims(exponent, axis), out=out), exponent


def column_blocks(n: int, w: int) -> list[tuple[int, int]]:
    """Bounds of the column blocks of an (n, w) float64 matrix, in order.

    The blocks are of nearly equal width, each at most ``_STEP_BYTES`` (at
    least two columns, and three when w is odd and two columns already pass
    the bound). No block is one column wide unless the matrix is: numpy sums
    a lone column pairwise rather than in the order of a wider block, so a
    column's reduction would depend on where the blocks end.
    """
    width = max(2, _STEP_BYTES // (8 * max(n, 1)))
    count = max(1, min(-(-w // width), w // 2))
    bounds = [w * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def column_bandwidths(rule: str, values, fallback_scale) -> np.ndarray:
    """Bandwidth of every column of an (n, w) sample matrix; never fails.

    sigma is the n-1 sample standard deviation (0 when n == 1) and the IQR
    uses linear-interpolation quartiles. Every rule is homogeneous in the
    values, so it is applied to each column scaled by the power of two of
    its largest magnitude (exact) and the result is scaled back: squares
    and products such as ``3.49 sigma`` of values near the largest float
    stay finite, and only a bandwidth that itself exceeds it overflows. A
    result that is not finite or below ``MIN_BANDWIDTH`` (zero or
    subnormal) falls back to ``max(1e-3 * fallback_scale, 1e-9)``, with the
    column's range over the whole dataset as the scale, so that
    constant-within-class variables still get finite densities (1e-9 if the
    scale is not positive). ``rule`` is one of ``BANDWIDTH_RULES``. The
    columns go through in ``column_blocks``, so the temporaries (the scaled
    block and its centred copy) take a few hundred KiB whatever the shape,
    and each column's result is the one the whole matrix gives.
    """
    check_name(rule, BANDWIDTH_RULES, "bandwidth rule")
    values = np.asarray(values, dtype=np.float64)
    n, w = values.shape
    h = np.empty(w)
    for lo, hi in column_blocks(n, w):
        h[lo:hi] = _rule_bandwidths(rule, values[:, lo:hi])
    scale = np.asarray(fallback_scale, dtype=np.float64)
    fallback = np.where(np.isfinite(scale) & (scale > 0.0), np.maximum(1e-3 * scale, 1e-9), 1e-9)
    return np.where(np.isfinite(h) & (h >= MIN_BANDWIDTH), h, fallback)


def _rule_bandwidths(rule: str, values: np.ndarray) -> np.ndarray:
    """The rule's bandwidth of each column of ``values``, computed on the columns scaled by ``scale_to_unit``."""
    n = values.shape[0]
    scaled, exponent = scale_to_unit(values)
    sigma = np.std(scaled, axis=0, ddof=1) if n > 1 else np.zeros(values.shape[1])
    if rule == "scott":
        h = scott_bandwidth(sigma, n)
    elif rule == "silverman":
        h = silverman_bandwidth(sigma, n)
    else:
        q1, q3 = np.percentile(scaled, [25.0, 75.0], axis=0)
        h = silverman_adaptive_bandwidth(sigma, q3 - q1, n)
    with np.errstate(over="ignore"):  # a bandwidth beyond the largest float is inf
        return np.ldexp(h, exponent)


def kernel_sum(samples: np.ndarray, h: np.ndarray, kernel: str, grids: np.ndarray) -> np.ndarray:
    """Density of each column of ``samples`` at each point of its grid column.

    ``samples`` is (n, w), or a column view of a wider sample matrix, which
    is copied contiguous for the call (numpy's broadcast subtraction ran
    20-30% slower on the strided view); ``h`` holds the w bandwidths and
    ``grids`` is (mu, w): column j holds the points at which column j's
    density is evaluated. Each value is the exact sum over column j's
    samples of the kernel body at ``(g - s) / h``, times ``c / n``, then
    divided by ``h``, where c is the kernel's constant. Grid rows go in
    steps of ``_STEP_BYTES // (8 n w)`` (at least one) through a single
    (step, n, w) buffer, summed over its samples in order (numpy sums a
    one-column buffer pairwise instead). An offset too large to square is
    far outside every kernel's support and adds 0.
    """
    samples = np.ascontiguousarray(samples)
    n, w = samples.shape
    mu = len(grids)
    step = max(1, _STEP_BYTES // (8 * n * max(w, 1)))
    out = np.empty(grids.shape)
    buffer = np.empty((min(step, mu), n, w))
    with np.errstate(over="ignore"):
        for lo in range(0, mu, step):
            u = buffer[: mu - lo]
            np.subtract(grids[lo : lo + step, None], samples, out=u)
            u /= h
            _kernel_body_in_place(kernel, u)
            np.add.reduce(u, axis=1, out=out[lo : lo + step])
    out *= _kernel_constant(kernel) / n
    out /= h
    return out


@dataclass(frozen=True, eq=False)
class PackedKde:
    """One class's densities over w variables, packed as arrays.

    Column j is the density with samples ``samples[:, j]``, bandwidth
    ``h[j]`` and the shared kernel. ``samples`` is kept as a C-contiguous (n, w) copy, so a density built by a fit and one
    read back from a model file reduce in the same order and score
    bit-identically.
    """

    samples: np.ndarray
    h: np.ndarray
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self):
        check_name(self.kernel, KERNELS, "kernel")
        samples = np.array(self.samples, dtype=np.float64, order="C")
        h = np.array(self.h, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise ValueError(f"samples must be a nonempty (n, w) matrix, got shape {samples.shape}")
        if h.shape != (samples.shape[1],):
            raise ValueError(f"{samples.shape[1]} sample columns but {h.size} bandwidths")
        if not np.all(np.isfinite(h) & (h >= MIN_BANDWIDTH)):
            raise ValueError(f"bandwidths must be positive and finite, and not below {MIN_BANDWIDTH} (subnormal)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "h", h)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    def take(self, columns) -> "PackedKde":
        """The densities of the given columns (indices or a slice) only, in that order."""
        return PackedKde(self.samples[:, columns], self.h[columns], self.kernel)

    def on_grid(self, grids) -> np.ndarray:
        """Density of each column at each point of its grid column (a (mu, w) array): ``kernel_sum``."""
        return kernel_sum(self.samples, self.h, self.kernel, grids)

    def density_at(self, x) -> np.ndarray:
        """Density of each column at the matching entry of ``x`` (an array of length w)."""
        return self.on_grid(x[None, :])[0]
