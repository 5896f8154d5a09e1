"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from tests.conftest import make_separated
from tests.oracles import bandwidth, hellinger_oracle
from xnb.classifier import fit_gnb, fit_xnb, predict
from xnb.dataset import Dataset, stratified_kfold
from xnb.diagnostics import conditional_independence_scan, normality_scan
from xnb.evaluation import accuracy
from xnb.hellinger import HellingerTable, hellinger
from xnb.kde import (
    KERNELS,
    PackedKde,
    beta_coefficient,
    kernel_eval,
    scott_bandwidth,
    silverman_adaptive_bandwidth,
    silverman_bandwidth,
)
from xnb.selection import SelectionConfig, select_class_specific


def _verdict(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_hellinger_oracle():
    """Library Hellinger vs an independent direct loop, 1000 random pairs.

    Each pair is checked on its own and as one column of a zero-padded
    (100, 1000) matrix pair, the column-wise form the table calls.
    """
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    columns_p = np.zeros((100, 1000))
    columns_q = np.zeros((100, 1000))
    direct = np.empty(1000)
    for i in range(1000):
        size = int(rng.integers(2, 100))
        p = rng.uniform(0, 1, size)
        p /= p.sum()
        q = rng.uniform(0, 1, size)
        q /= q.sum()
        columns_p[:size, i] = p
        columns_q[:size, i] = q
        direct[i] = hellinger_oracle(p, q)
        worst = max(worst, abs(hellinger(p, q) - direct[i]))
    worst = max(worst, float(np.max(np.abs(hellinger(columns_p, columns_q) - direct))))
    elapsed = time.perf_counter() - started
    _verdict(
        "1 hellinger-oracle",
        worst <= 1e-12 and elapsed < 1.0,
        f"max |delta|={worst:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_kernel_correctness():
    """Order conditions for all 5 kernels plus exact beta coefficients."""
    worst_mass = 0.0
    worst_moment = 0.0
    for kind in KERNELS:
        lo, hi = (-np.inf, np.inf) if kind == "gaussian" else (-1.0, 1.0)
        mass, _ = quad(lambda u: kernel_eval(kind, u), lo, hi)
        moment, _ = quad(lambda u: u * kernel_eval(kind, u), lo, hi)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_moment = max(worst_moment, abs(moment))
    coefficients = [beta_coefficient(s) for s in range(4)]
    exact = coefficients == [1.0 / 2.0, 3.0 / 4.0, 15.0 / 16.0, 35.0 / 32.0]
    _verdict(
        "2 kernel-correctness",
        worst_mass <= 1e-6 and worst_moment <= 1e-9 and exact,
        f"|mass-1|<={worst_mass:.2e}, |moment|<={worst_moment:.2e}, coefficients exact={exact}",
    )


def test_criterion_3_bandwidth_formulas():
    """Rules vs hand-computed values on 100 random triples; degenerate h > 0."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(1e-3, 100.0))
        iqr = float(rng.uniform(1e-3, 100.0))
        n = int(rng.integers(1, 100_000))
        worst = max(
            worst,
            abs(scott_bandwidth(sigma, n) - 3.49 * sigma / n ** (1.0 / 3.0)),
            abs(silverman_bandwidth(sigma, n) - 1.059 * sigma / n ** 0.2),
            abs(
                silverman_adaptive_bandwidth(sigma, iqr, n)
                - 0.9 * min(sigma, iqr / 1.34) / n**0.2
            ),
        )
    degenerate_ok = True
    with np.errstate(over="ignore"):  # the huge-magnitude probe overflows np.std
        for rule in ("scott", "silverman", "silverman_adaptive"):
            for values in ([0.0], [7.0, 7.0], np.zeros(50), [-1e308, -1e308]):
                degenerate_ok &= bandwidth(rule, values) > 0.0
    _verdict(
        "3 bandwidth-formulas",
        worst <= 1e-12 and degenerate_ok,
        f"max |delta|={worst:.2e}, degenerate h>0: {degenerate_ok}",
    )


def test_criterion_4_kde_normalization():
    """50 random one-column densities integrate to 1 within 1e-3 over a wide support."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(50):
        kind = KERNELS[i % len(KERNELS)]
        size = int(rng.integers(2, 200))
        scale = float(rng.uniform(0.1, 30.0))
        samples = rng.normal(rng.uniform(-50, 50), scale, size)
        h = bandwidth("silverman", samples)
        density = PackedKde(samples[:, None], [h], kind)
        grid = np.linspace(samples.min() - 10 * h, samples.max() + 10 * h, 10_000)
        total = float(np.trapezoid(density.on_grid(grid[:, None])[:, 0], grid))
        worst = max(worst, abs(total - 1.0))
    _verdict("4 kde-normalization", worst <= 1e-3, f"max |integral-1|={worst:.2e}")


def test_criterion_5_selection_semantics():
    """Threshold stop, exhaustion fallback, greedy trace, exhaustive parity."""
    # (a) one variable past the threshold is selected alone, for both classes
    table = HellingerTable(("u", "v"), ("A", "B"), np.array([[0.4], [0.9995]]))
    fmap = select_class_specific(table, SelectionConfig(theta=0.999))
    a_ok = fmap.features["A"] == ("v",) and fmap.features["B"] == ("v",)

    # (b) an all-zero table exhausts the candidates and selects everything
    names = tuple(f"v{i}" for i in range(7))
    zero = HellingerTable(names, ("A", "B"), np.zeros((7, 1)))
    zmap = select_class_specific(zero)
    b_ok = all(set(zmap.features[c]) == set(names) and zmap.exhausted[c] for c in ("A", "B"))

    # (c) the documented two-variable greedy trace
    two = HellingerTable(("v1", "v2"), ("A", "B"), np.array([[0.99], [0.95]]))
    tmap = select_class_specific(two, SelectionConfig(theta=0.999))
    steps = tmap.steps["A"]
    c_ok = (
        tmap.features["A"] == ("v1", "v2")
        and not tmap.exhausted["A"]
        and abs(steps[0].attained - 0.99) < 1e-12
        and abs(steps[1].attained - 0.9995) < 1e-12
    )

    # (d) greedy result size vs exhaustive minimum on 100 random tables
    rng = np.random.default_rng(5)
    d_ok = True
    for _ in range(100):
        m = int(rng.integers(3, 13))
        h = np.where(rng.uniform(size=m) < 0.5, rng.uniform(0.85, 1.0, m), rng.uniform(0.0, 0.85, m))
        theta = float(rng.choice([0.9, 0.99, 0.999]))
        table = HellingerTable(
            tuple(f"v{i:02d}" for i in range(m)), ("A", "B"), h[:, None]
        )
        greedy = len(select_class_specific(table, SelectionConfig(theta=theta)).features["A"])
        exhaustive = m
        found = False
        for size in range(1, m + 1):
            for subset in combinations(range(m), size):
                if 1.0 - np.prod([1.0 - h[j] for j in subset]) > theta:
                    exhaustive = size
                    found = True
                    break
            if found:
                break
        d_ok &= greedy <= exhaustive + 1
    _verdict(
        "5 selection-semantics",
        a_ok and b_ok and c_ok and d_ok,
        f"single={a_ok}, fallback={b_ok}, trace={c_ok}, exhaustive-parity={d_ok}",
    )


def test_criterion_6_synthetic_end_to_end():
    """10-fold XNB on the 3-class marker generator: accuracy, recovery, size."""
    started = time.perf_counter()
    d, informative = make_separated(n=200, m=50, k=3, shift=5.0, cross_shift=1.5, seed=1)
    plan = stratified_kfold(d, 10, seed=0)
    xnb_acc, gnb_acc, mean_counts = [], [], []
    contains = {c: 0 for c in d.classes}
    for fold in range(10):
        train = d.subset(plan.train_rows(fold))
        test_rows = plan.test_rows(fold)
        truth = [d.labels[i] for i in test_rows]
        xnb_model = fit_xnb(train)
        gnb_model = fit_gnb(train)
        xnb_acc.append(
            accuracy([predict(xnb_model, d.values[i]).label for i in test_rows], truth)
        )
        gnb_acc.append(
            accuracy([predict(gnb_model, d.values[i]).label for i in test_rows], truth)
        )
        for c in d.classes:
            if set(informative[c]) <= set(xnb_model.features.features[c]):
                contains[c] += 1
        mean_counts.append(np.mean([xnb_model.features.count(c) for c in d.classes]))
    elapsed = time.perf_counter() - started

    xnb_mean = float(np.mean(xnb_acc))
    gnb_mean = float(np.mean(gnb_acc))
    mean_selected = float(np.mean(mean_counts))
    recovery_ok = all(v >= 8 for v in contains.values())
    ok = (
        xnb_mean >= 0.95
        and recovery_ok
        and mean_selected <= 5.0
        and abs(xnb_mean - gnb_mean) <= 0.05
        and elapsed < 10.0
    )
    _verdict(
        "6 synthetic-end-to-end",
        ok,
        f"xnb={xnb_mean:.3f}, gnb={gnb_mean:.3f}, marker recovery={contains}, "
        f"mean #v={mean_selected:.2f}, runtime={elapsed:.1f}s",
    )


def test_criterion_7_diagnostics_calibration():
    """Type-I calibration, power against lognormal, CI scan null behavior."""
    rng = np.random.default_rng(0)
    labels = tuple(rng.choice(["A", "B"], 200))
    names = tuple(f"v{i}" for i in range(100))
    normal = Dataset(names, rng.normal(size=(200, 100)), labels)
    ratio_normal = normality_scan(normal, alpha=0.05)

    lognormal = Dataset(names, rng.lognormal(size=(200, 100)), labels)
    ratio_lognormal = normality_scan(lognormal, alpha=0.05)

    # 46 variables -> 1035 within-class-independent pairs, none should flag
    rng2 = np.random.default_rng(1)
    ci_labels = tuple(["A"] * 20 + ["B"] * 20)
    shift = np.where(np.arange(40) < 20, 0.0, 5.0)[:, None]
    noise = Dataset(
        tuple(f"v{i}" for i in range(46)),
        shift + rng2.normal(size=(40, 46)),
        ci_labels,
    )
    ci = conditional_independence_scan(noise, p_max=1e-6, r_min=0.7, max_pairs=None)

    ok = (
        0.02 <= ratio_normal <= 0.08
        and ratio_lognormal >= 0.95
        and ci.examined_pairs >= 1000
        and len(ci.flagged) == 0
    )
    _verdict(
        "7 diagnostics-calibration",
        ok,
        f"normal ratio={ratio_normal:.3f}, lognormal ratio={ratio_lognormal:.3f}, "
        f"null pairs={ci.examined_pairs}, flagged={len(ci.flagged)}",
    )


def test_criterion_8_complexity_scaling():
    """Fit time doubles (within tolerance) as m doubles at fixed n and k."""

    def dataset(m):
        d, _ = make_separated(n=100, m=m, k=3, shift=5.0, seed=3)
        return d

    widths = (1000, 2000, 4000)
    data = {m: dataset(m) for m in widths}
    times = {m: [] for m in widths}
    # the widths take turns, so that a slow spell of a shared host slows
    # one fit of each width rather than every fit of one
    for _ in range(5):
        for m in widths:
            t0 = time.perf_counter()
            fit_xnb(data[m])
            times[m].append(time.perf_counter() - t0)
    # each round's ratios compare fits timed back to back; the median over
    # the rounds drops a round that a slow spell hit in the middle
    r21 = float(np.median(np.divide(times[2000], times[1000])))
    r42 = float(np.median(np.divide(times[4000], times[2000])))
    t1, t2, t4 = (min(times[m]) for m in widths)
    ok = 1.5 <= r21 <= 2.5 and 1.5 <= r42 <= 2.5
    _verdict(
        "8 complexity-scaling",
        ok,
        f"t(1000)={t1:.3f}s t(2000)={t2:.3f}s t(4000)={t4:.3f}s ratios={r21:.2f}, {r42:.2f}",
    )


@pytest.mark.skip(reason="requires downloading the external microarray benchmark datasets")
def test_criterion_9_external_benchmark_reproduction():
    """Cross-validated accuracy and selection-size bands on real microarrays."""
