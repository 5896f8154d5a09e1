"""Walk through one-dimensional density estimation on a bimodal sample.

Shows the kernel family, the reference bandwidth rules, and how the fitted
density behaves as the bandwidth changes. A one-column ``PackedKde`` is a
single one-dimensional density; ``on_grid`` takes one grid column per
density column, so a grid of points becomes a (points, 1) matrix.
"""

import numpy as np

from xnb import PackedKde, column_bandwidths, kernel_eval
from xnb.kde import KERNELS

rng = np.random.default_rng(0)

# A bimodal sample: the kind of shape a single Gaussian fit would miss.
sample = np.concatenate([rng.normal(-2.0, 0.6, 150), rng.normal(3.0, 1.1, 100)])
column = sample[:, None]  # one variable: an (n, 1) sample matrix
scale = np.ptp(sample)  # fallback scale for degenerate bandwidths
print(f"sample: n={sample.size}, mean={sample.mean():.2f}, std={sample.std(ddof=1):.2f}")

print("\nkernel values at u=0 (peak height of a single bump):")
for kind in KERNELS:
    print(f"  {kind:13s} K(0) = {kernel_eval(kind, 0.0):.4f}")

print("\nbandwidths chosen by each reference rule:")
for rule in ("scott", "silverman", "silverman_adaptive"):
    print(f"  {rule:19s} h = {column_bandwidths(rule, column, scale)[0]:.4f}")

h = column_bandwidths("silverman", column, scale)[0]
model = PackedKde(column, [h], "gaussian")
grid = np.linspace(sample.min(), sample.max(), 50)
density = model.on_grid(grid[:, None])[:, 0]

print(f"\nfitted model: n={len(model.samples)}, h={h:.4f}, kernel={model.kernel}")
print("density along a 50-point grid over the sample's range (text sketch):")
peak = density.max()
for g, f in zip(grid[::2], density[::2]):
    bar = "#" * int(40 * f / peak)
    print(f"  {g:7.2f} {f:7.4f} {bar}")

# The estimate is a real density: it integrates to one.
wide = np.linspace(sample.min() - 10 * h, sample.max() + 10 * h, 10_000)
total = np.trapezoid(model.on_grid(wide[:, None])[:, 0], wide)
print(f"\ntrapezoid integral over a wide support: {total:.6f} (should be ~1)")

# Point evaluation is an exact sum over samples, not a grid interpolation.
x = 0.5
print(f"density at x={x}: {model.density_at(np.array([x]))[0]:.6f} (valley between the modes)")

print("\noversmoothing demo: forcing a bandwidth 5x larger hides the two modes")
smooth = PackedKde(column, [h * 5], "gaussian")
smoothed = smooth.on_grid(grid[:, None])[:, 0]
print(f"  modes visible at h={h:.3f}: {np.sum((density[1:-1] > density[:-2]) & (density[1:-1] > density[2:]))}")
print(f"  modes visible at h={h * 5:.3f}: {np.sum((smoothed[1:-1] > smoothed[:-2]) & (smoothed[1:-1] > smoothed[2:]))}")
