import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import xnb.diagnostics as diagnostics_module
from xnb.dataset import Dataset
from xnb.diagnostics import (
    DEFAULT_P_MAX,
    DEFAULT_R_MIN,
    conditional_independence_scan,
    normality_scan,
    run_diagnostics,
    shapiro_wilk,
    within_class_residuals,
)
from xnb.errors import DataError

from tests.conftest import traced_peak
from tests.oracles import column_layout_ci_scan


class TestShapiroWilk:
    def test_normal_sample_not_rejected(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=200)
        w, p = shapiro_wilk(x)
        assert p > 0.05
        ref = stats.shapiro(x)
        assert w == pytest.approx(ref.statistic, abs=1e-8)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_exponential_sample_rejected(self):
        rng = np.random.default_rng(42)
        x = rng.exponential(size=200)
        w, p = shapiro_wilk(x)
        assert p < 0.001
        ref = stats.shapiro(x)
        assert w == pytest.approx(ref.statistic, abs=1e-8)
        assert p == pytest.approx(ref.pvalue, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 11, 12, 25, 60, 500, 2000])
    def test_tracks_reference_implementation(self, n):
        rng = np.random.default_rng(n)
        for draw in (rng.normal(size=n), rng.uniform(size=n), rng.exponential(size=n)):
            w, p = shapiro_wilk(draw)
            ref = stats.shapiro(draw)
            assert w == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_too_small_sample(self):
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk([1.0, 2.0])

    def test_too_large_sample(self):
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk(np.zeros(5001))

    def test_constant_sample(self):
        with pytest.raises(ValueError, match="identical"):
            shapiro_wilk([4.0, 4.0, 4.0, 4.0])

    def test_scale_and_location_invariant(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=80)
        w_base, _ = shapiro_wilk(x)
        for a, b in [(2.0, 0.0), (0.5, 3.0), (100.0, -40.0)]:
            w, _ = shapiro_wilk(a * x + b)
            assert w == pytest.approx(w_base, abs=1e-10)

    def test_values_near_the_largest_float(self):
        # W and p of a sample whose squares overflow equal those of the
        # same sample scaled down by an exact power of two
        x = np.random.default_rng(12).normal(5.0, 1.0, size=40) * 1e307
        w, p = shapiro_wilk(x)
        assert (w, p) == shapiro_wilk(np.ldexp(x, -1000))
        assert 0.0 < w <= 1.0

    def test_statistic_within_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.exponential(size=int(rng.integers(5, 300)))
            w, p = shapiro_wilk(x)
            assert 0.0 < w <= 1.0
            assert 0.0 <= p <= 1.0


class TestNormalityScan:
    def test_type_one_error_calibration(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(200, 100))
        labels = tuple(rng.choice(["A", "B"], 200))
        d = Dataset(tuple(f"v{i}" for i in range(100)), values, labels)
        ratio = normality_scan(d, alpha=0.05)
        assert 0.02 <= ratio <= 0.08

    def test_power_against_lognormal(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(size=(200, 100))
        labels = tuple(rng.choice(["A", "B"], 200))
        d = Dataset(tuple(f"v{i}" for i in range(100)), values, labels)
        assert normality_scan(d) >= 0.95

    def test_zero_variance_counts_as_non_normal(self):
        rng = np.random.default_rng(2)
        values = np.column_stack([np.full(50, 3.0), rng.normal(size=50)])
        d = Dataset(("const", "noise"), values, tuple(rng.choice(["A", "B"], 50)))
        report = run_diagnostics(d, max_pairs=None)
        detail = {row["variable"]: row for row in report.sw_details}
        assert detail["const"]["rejected"] is True
        assert detail["const"]["note"] == "zero variance"

    @pytest.mark.parametrize("n", [2, 5001])
    def test_sample_count_outside_test_range_is_noted(self, n):
        rng = np.random.default_rng(3)
        values = np.column_stack([np.full(n, 3.0), rng.normal(size=n)])
        d = Dataset(("const", "noise"), values, ("A", "B") * (n // 2) + ("A",) * (n % 2))
        assert normality_scan(d) == 0.5  # only the zero-variance variable rejects
        _, rows = diagnostics_module._normality_detail(d, 0.05)
        noise = rows[1]
        assert noise["w"] is None and noise["p"] is None and noise["rejected"] is False
        assert "outside the Shapiro-Wilk range" in noise["note"]

    def test_wide_scan_holds_the_columns_and_one_half_copy(self):
        # the sorted copy of the tested columns plus their (m, n // 2) mirrored
        # differences; the former code also held the weighted differences and
        # the (m, n) centered values and their squares: 32.6 MB
        normality_scan(_wide_dataset(18, n=100, m=10))  # the lazy import of the normal quantiles
        d = _wide_dataset(18, n=100, m=20_000)
        bound = d.values.nbytes * 3 // 2 + (1 << 20)  # 25.0 MB
        ratio, peak = traced_peak(lambda: normality_scan(d))
        assert 0.0 < ratio < 0.2
        assert peak < bound


@st.composite
def _columns_with_ties(draw):
    """An (n, m) matrix whose columns are constant, heavily tied or free."""
    n = draw(st.one_of(st.integers(3, 15), st.integers(16, 300)))
    free = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["constant", "tied", "free"]))
        if kind == "constant":
            columns.append([draw(free)] * n)
        elif kind == "tied":
            columns.append(draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]), min_size=n, max_size=n)))
        else:
            columns.append(draw(st.lists(free, min_size=n, max_size=n)))
    return np.array(columns).T


class TestNormalityScanIsPerColumnShapiroWilk:
    @settings(max_examples=80, deadline=None)
    @given(_columns_with_ties())
    def test_scan_equals_shapiro_wilk_bit_for_bit(self, values):
        n, m = values.shape
        d = Dataset(tuple(f"v{j}" for j in range(m)), values, ("A", "B") * (n // 2) + ("A",) * (n % 2))
        ratio, rows = diagnostics_module._normality_detail(d, 0.05)
        rejected = 0
        for j, row in enumerate(rows):
            if values[:, j].min() == values[:, j].max():
                assert row["note"] == "zero variance" and row["rejected"] is True
                with pytest.raises(ValueError, match="identical"):
                    shapiro_wilk(values[:, j])
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    w, p = shapiro_wilk(values[:, j])
                # equal as floats, NaN included
                np.testing.assert_array_equal([row["w"], row["p"]], [w, p])
                assert row["rejected"] is (p < 0.05)
            rejected += row["rejected"]
        assert ratio == rejected / m


class TestTTail:
    """The dependence p-value I_(1-r^2)(dof/2, 1/2) against scipy's betainc."""

    def test_matches_betainc(self):
        r = np.array([0.0, 1e-9, -1e-9, diagnostics_module.DEFAULT_R_MIN, 0.999999, 1.0, -1.0])
        x = 1.0 - r * r
        for dof in range(2, 4999):
            got = diagnostics_module._betainc(0.5 * dof, 0.5, x)
            ref = special.betainc(0.5 * dof, 0.5, x)
            # below the normal range (e.g. 1e-319 vs scipy's 0) no digit is significant
            np.testing.assert_allclose(
                got, ref, rtol=1e-10, atol=np.finfo(np.float64).tiny, err_msg=f"dof={dof}"
            )

    def test_two_sided_t_test(self):
        rng = np.random.default_rng(14)
        for dof in (2, 3, 10, 198, 4998):
            # many values near the flip point x = (a+1)/(a+b+2), where the fraction is slowest
            r = np.concatenate([rng.uniform(-1.0, 1.0, 2000), rng.normal(0.0, 3.0 / np.sqrt(dof), 20_000)])
            r = r[np.abs(r) < 1.0]
            t = r * np.sqrt(dof / (1.0 - r * r))
            ref = 2.0 * stats.t.sf(np.abs(t), dof)
            got = diagnostics_module._betainc(0.5 * dof, 0.5, 1.0 - r * r)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=np.finfo(np.float64).tiny)

    @pytest.mark.parametrize("dof, bound", [(198, 1e-13), (4998, 1e-12), (83051, 5e-11)])
    def test_tall_data_against_mpmath(self, dof, bound):
        # t from 0 to 30 spans p from 1 down to 1e-196; the continued fraction
        # loses the most digits near t = 2, just below the mean (a+1)/(a+b+2)
        t = np.linspace(0.0, 30.0, 121)
        x = 1.0 - (t * t / (dof + t * t))
        got = diagnostics_module._betainc(0.5 * dof, 0.5, x)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.betainc(0.5 * dof, 0.5, 0, v, regularized=True)) for v in x])
        np.testing.assert_allclose(got, ref, rtol=bound, atol=0.0)

    @pytest.mark.parametrize("a", [99.0, 2499.0, 41525.5])
    def test_log_beta_against_mpmath(self, a):
        # lgamma(a) - lgamma(a + 1/2) cancels; at a = 41525.5 it kept only 1e-10 of B
        with mpmath.workdps(30):
            ref = mpmath.log(mpmath.beta(a, 0.5))
        got = diagnostics_module._log_beta(a, 0.5)
        assert abs(math.expm1(got - float(ref))) < 1e-14


class TestResiduals:
    def test_hand_example(self):
        res = within_class_residuals([1.0, 2.0, 10.0, 20.0], ["A", "A", "B", "B"])
        np.testing.assert_allclose(res, [-0.5, 0.5, -5.0, 5.0])

    def test_labels_differing_by_a_trailing_nul_are_two_classes(self):
        res = within_class_residuals([1.0, 2.0, 10.0, 20.0], ["A", "A", "A\x00", "A\x00"])
        np.testing.assert_allclose(res, [-0.5, 0.5, -5.0, 5.0])

    def test_values_equal_to_class_means(self):
        res = within_class_residuals([3.0, 3.0, 7.0], ["A", "A", "B"])
        np.testing.assert_allclose(res, 0.0)

    def test_single_class_is_mean_centering(self):
        values = np.array([1.0, 2.0, 6.0])
        res = within_class_residuals(values, ["A"] * 3)
        np.testing.assert_allclose(res, values - values.mean())

    def test_sums_to_zero_per_class(self):
        rng = np.random.default_rng(3)
        values = rng.normal(5, 20, size=300)
        labels = rng.choice(["A", "B", "C"], 300)
        res = within_class_residuals(values, labels)
        for c in "ABC":
            block = res[labels == c]
            assert abs(block.sum()) <= 1e-9 * block.size * 20

    def test_matrix_is_centered_column_by_column(self):
        rng = np.random.default_rng(4)
        values = rng.normal(5, 20, size=(30, 4))
        labels = rng.choice(["A", "B", "C"], 30)
        res = within_class_residuals(values, labels)
        for j in range(4):
            np.testing.assert_allclose(res[:, j], within_class_residuals(values[:, j], labels), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            within_class_residuals([1.0], ["A", "B"])

    def test_class_sum_beyond_the_largest_float(self):
        # class A's sum, 2e308, overflows (its RuntimeWarning made `xnb diagnose` exit 3); its mean does not
        values = np.array([[1e308, 0.5], [1e308, 1.5], [0.0, 2.0], [1.0, 3.0]])
        res = within_class_residuals(values, ["A", "A", "B", "B"])
        np.testing.assert_array_equal(res, [[0.0, -0.5], [0.0, 0.5], [-0.5, -0.5], [0.5, 0.5]])


def _noise_dataset(seed, n=40, m=46):
    """Class-mean structure plus independent within-class noise."""
    rng = np.random.default_rng(seed)
    labels = tuple(["A"] * (n // 2) + ["B"] * (n - n // 2))
    shift = np.where(np.arange(n) < n // 2, 0.0, 5.0)[:, None]
    values = shift + rng.normal(size=(n, m))
    return Dataset(tuple(f"v{i}" for i in range(m)), values, labels)


def _wide_dataset(seed, n, m, k=3):
    """Independent normal noise in ``k`` classes dealt round-robin."""
    values = np.random.default_rng(seed).normal(size=(n, m))
    return Dataset(tuple(f"v{i}" for i in range(m)), values, tuple(f"c{i % k}" for i in range(n)))


class TestConditionalIndependenceScan:
    def test_exact_copy_is_flagged(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=30)
        values = np.column_stack([base, base, rng.normal(size=30)])
        d = Dataset(("v1", "v2", "v3"), values, tuple(rng.choice(["A", "B"], 30)))
        result = conditional_independence_scan(d, max_pairs=None)
        flagged = {(a, b) for a, b, _, _ in result.flagged}
        assert ("v1", "v2") in flagged
        assert result.flagged[0][2] == pytest.approx(1.0)

    def test_independent_noise_never_flagged(self):
        d = _noise_dataset(5)  # 46 variables -> 1035 pairs
        result = conditional_independence_scan(d, max_pairs=None)
        assert result.examined_pairs >= 1000
        assert result.flagged == ()
        assert result.ratio == 0.0

    def test_ratio_counts_variables_not_pairs(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=40)
        values = np.column_stack([base, base, base, rng.normal(size=40)])
        d = Dataset(("a", "b", "c", "noise"), values, tuple(rng.choice(["A", "B"], 40)))
        result = conditional_independence_scan(d, max_pairs=None)
        assert result.ratio == pytest.approx(3 / 4)

    def test_cap_covering_all_pairs_equals_exhaustive(self):
        d = _noise_dataset(7, n=30, m=12)
        exhaustive = conditional_independence_scan(d, max_pairs=None, seed=0)
        capped = conditional_independence_scan(d, max_pairs=1000, seed=0)  # 66 pairs < cap
        assert capped.sampled is False
        assert capped.ratio == exhaustive.ratio
        assert capped.examined_pairs == exhaustive.examined_pairs

    def test_sampling_marks_report(self):
        d = _noise_dataset(8, n=20, m=30)  # 435 pairs
        result = conditional_independence_scan(d, max_pairs=100, seed=3)
        assert result.sampled is True
        assert result.examined_pairs == 100

    def test_degenerate_variable_pairs_skipped(self):
        rng = np.random.default_rng(9)
        values = np.column_stack([np.full(20, 2.0), rng.normal(size=20), rng.normal(size=20)])
        d = Dataset(("const", "x", "y"), values, tuple(rng.choice(["A", "B"], 20)))
        result = conditional_independence_scan(d, max_pairs=None)
        assert result.skipped_pairs == 2  # const-x and const-y

    def test_p_values_match_reference(self):
        rng = np.random.default_rng(10)
        d = _noise_dataset(10, n=25, m=6)
        result = conditional_independence_scan(d, max_pairs=None, p_max=1.1, r_min=-0.1)
        # every pair flagged with its r and p; compare against pearsonr's r on
        # residuals and the two-sided t tail of a partial correlation given 2 classes
        residuals = within_class_residuals(d.values, d.labels)
        names = list(d.variable_names)
        dof = d.n - len(d.classes) - 1
        for a, b, r, p in result.flagged:
            i, j = names.index(a), names.index(b)
            ref = stats.pearsonr(residuals[:, i], residuals[:, j])
            assert r == pytest.approx(ref.statistic, abs=1e-10)
            t = ref.statistic * math.sqrt(dof / (1.0 - ref.statistic**2))
            assert p == pytest.approx(2.0 * stats.t.sf(abs(t), dof), rel=1e-6, abs=1e-12)

    def test_values_near_the_largest_float(self):
        # residual norms that overflow give the same r and p as the same
        # data scaled down by an exact power of two
        rng = np.random.default_rng(14)
        base = rng.normal(size=30)
        values = np.column_stack([base, base + 0.1 * rng.normal(size=30), rng.normal(size=30)])
        labels = tuple(rng.choice(["A", "B"], 30))
        huge = Dataset(("v1", "v2", "v3"), np.ldexp(values, 1020), labels)
        result = conditional_independence_scan(huge, max_pairs=None)
        assert result == conditional_independence_scan(Dataset(huge.variable_names, values, labels), max_pairs=None)
        assert [(a, b) for a, b, _, _ in result.flagged] == [("v1", "v2")]

    def test_too_few_samples(self):
        d = Dataset(("x", "y"), np.zeros((3, 2)), ("A", "B", "A"))
        with pytest.raises(DataError, match="at least 5 samples with 2 classes, got 3"):
            conditional_independence_scan(d)

    def test_too_few_samples_for_the_classes(self):
        # n - k - 1 degrees of freedom: 4 classes need 7 samples
        labels = ("A", "B", "C", "D", "A", "B")
        with pytest.raises(DataError, match="^dependence scan needs at least 7 samples with 4 classes, got 6$"):
            conditional_independence_scan(Dataset(("x", "y"), np.eye(6)[:, :2], labels))
        conditional_independence_scan(Dataset(("x", "y"), np.eye(7)[:, :2], (*labels, "C")))

    def test_null_pairs_are_flagged_at_the_nominal_rate(self):
        # 12 samples in 4 classes shifted apart, independent noise: the scan's
        # t test has n - k - 1 = 7 degrees of freedom (with n - 2 it flagged
        # about 10.5% of null pairs at 5%). Disjoint pairs (v000, v001),
        # (v002, v003), ... are independent trials, so their count of flags
        # is binomial; the bounds fail a correct scan with probability below 1e-6
        n, k, m, datasets = 12, 4, 100, 40
        names = tuple(f"v{j:03d}" for j in range(m))
        disjoint = set(zip(names[::2], names[1::2]))
        labels = tuple(f"c{i % k}" for i in range(n))
        shift = 5.0 * (np.arange(n) % k)[:, None]
        hits = 0
        for seed in range(datasets):
            d = Dataset(names, shift + np.random.default_rng(seed).normal(size=(n, m)), labels)
            result = conditional_independence_scan(d, p_max=0.05, r_min=0.0, max_pairs=None)
            hits += sum((a, b) in disjoint for a, b, _, _ in result.flagged)
        trials = datasets * len(disjoint)
        assert stats.binom.ppf(0.5e-6, trials, 0.05) <= hits <= stats.binom.isf(0.5e-6, trials, 0.05)

    @pytest.mark.parametrize("max_pairs", [None, 390])
    def test_chunk_size_does_not_change_result(self, monkeypatch, max_pairs):
        d = _noise_dataset(13, n=30, m=40)  # 780 pairs
        values = np.array(d.values)
        values[:, 20:30] = values[:, :10] + 1e-3 * values[:, 30:40]  # ten dependent pairs
        d = Dataset(d.variable_names, values, d.labels)
        default = conditional_independence_scan(d, max_pairs=max_pairs, seed=4)
        assert default.flagged
        monkeypatch.setattr(diagnostics_module, "CI_STEP_BYTES", 7 * 8 * d.n)  # 7 pairs a step
        assert conditional_independence_scan(d, max_pairs=max_pairs, seed=4) == default

    @pytest.mark.parametrize("step_bytes", [None, 1, 13 * 8 * 50])
    @pytest.mark.parametrize("max_pairs", [None, 300])
    @pytest.mark.parametrize("p_max, r_min", [(DEFAULT_P_MAX, DEFAULT_R_MIN), (1.1, -0.1)])
    def test_matches_column_layout_oracle(self, monkeypatch, step_bytes, max_pairs, p_max, r_min):
        # r, p, flagged pairs and skipped count bit for bit, with every pair
        # flagged under the second thresholds
        d = _noise_dataset(15, n=50, m=40)  # 780 pairs
        values = np.array(d.values)
        values[:, 20:28] = values[:, :8] + 1e-2 * values[:, 30:38]  # eight dependent pairs
        values[:, 5] = 3.0  # zero variance
        labels = np.array(d.labels)
        values[:, 6] = np.where(labels == labels[0], 1.0, -2.0)  # constant within each class
        d = Dataset(d.variable_names, values, d.labels)
        expected = column_layout_ci_scan(d, p_max, r_min, max_pairs, seed=2)
        assert expected.flagged and expected.skipped_pairs
        if step_bytes is not None:  # one pair a step, or 13
            monkeypatch.setattr(diagnostics_module, "CI_STEP_BYTES", step_bytes)
        result = conditional_independence_scan(d, p_max=p_max, r_min=r_min, max_pairs=max_pairs, seed=2)
        assert result == expected

    def test_tall_scan_memory_is_bounded_by_steps(self):
        # the residuals plus two gathered blocks of at most CI_STEP_BYTES
        # each; the former column layout gathered two (n, 780) blocks, 31 MB each
        d = _noise_dataset(16, n=5000, m=40)  # 780 pairs
        bound = 2 * diagnostics_module.CI_STEP_BYTES + 3 * d.values.nbytes  # 6.6 MiB
        result, peak = traced_peak(lambda: conditional_independence_scan(d, max_pairs=None))
        assert result.examined_pairs == 780
        assert peak < bound

    def test_exhaustive_scan_memory_is_bounded_by_steps(self):
        # each step decodes its own pair indices: the unit residuals, two
        # gathered blocks and one step's indices, where the (2, m(m-1)/2)
        # int64 `triu_indices` alone took 18 MB
        conditional_independence_scan(_noise_dataset(17, n=40, m=10), max_pairs=None)  # numpy's lazy imports
        d = _noise_dataset(17, n=40, m=1500)  # 1 124 250 pairs
        bound = d.values.nbytes + 2 * diagnostics_module.CI_STEP_BYTES + (1 << 20)  # 3.5 MiB
        result, peak = traced_peak(lambda: conditional_independence_scan(d, max_pairs=None))
        assert result.examined_pairs == 1500 * 1499 // 2
        assert peak < bound

    def test_wide_scan_holds_one_copy_of_the_data(self):
        # the residuals, normalized in place as one row per variable, plus the
        # larger of one class's gathered (34, m) block while it is centered
        # (5.4 MB) and the sampled cap's indices with two step blocks (5.5 MB);
        # the former code held a second (n, m) array and two class blocks: 32.2 MB
        conditional_independence_scan(_wide_dataset(19, n=100, m=10))  # numpy's lazy imports
        d = _wide_dataset(19, n=100, m=20_000)
        bound = d.values.nbytes + 6 * 2**20  # 22.3 MB
        result, peak = traced_peak(lambda: conditional_independence_scan(d))
        assert result.sampled and result.examined_pairs == diagnostics_module.DEFAULT_MAX_PAIRS
        assert peak < bound


def _exact_pair(linear: int, m: int) -> tuple[int, int]:
    """(i, j) of a linear pair index by integer bisection over the row starts."""
    lo, hi = 0, m - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid + 1) * (2 * m - mid - 2) // 2 > linear:
            hi = mid
        else:
            lo = mid + 1
    return lo, linear - lo * (2 * m - lo - 1) // 2 + lo + 1


class TestPairDecoding:
    def test_linear_index_round_trip(self):
        from xnb.diagnostics import _decode_pair

        for m in (2, 3, 5, 17, 60):
            total = m * (m - 1) // 2
            expected = [(i, j) for i in range(m) for j in range(i + 1, m)]
            ii, jj = _decode_pair(np.arange(total, dtype=np.int64), m)
            assert list(zip(ii.tolist(), jj.tolist())) == expected

    def test_decoding_equals_triu_indices(self):
        from xnb.diagnostics import _decode_pair

        for m in [*range(2, 200), 1000, 4472]:
            ii, jj = _decode_pair(np.arange(m * (m - 1) // 2), m)
            ti, tj = np.triu_indices(m, k=1)
            assert np.array_equal(ii, ti) and np.array_equal(jj, tj), m

    @pytest.mark.parametrize("m", [10**5, 10**6, 10**8, 130_000_000])
    def test_row_boundaries_at_large_m(self, m):
        # the first and last pair of random rows, where float rounding of
        # the row could put it one off (at every row's last pair at 1.3e8)
        from xnb.diagnostics import _decode_pair

        rows = np.random.default_rng(m).integers(1, m - 1, 300)
        starts = rows * (2 * m - rows - 1) // 2
        linear = np.concatenate([starts, starts - 1, [0, m * (m - 1) // 2 - 1]])
        ii, jj = _decode_pair(linear, m)
        assert list(zip(ii.tolist(), jj.tolist())) == [_exact_pair(v, m) for v in linear.tolist()]

    def test_sampled_pairs_are_valid_and_unique(self):
        from xnb.diagnostics import _decode_pair, _sample_pairs

        ii, jj = _decode_pair(_sample_pairs(m=100, cap=500, seed=1), 100)
        assert ii.size == 500
        assert np.all(ii < jj)
        assert np.all(jj < 100)
        assert len({(a, b) for a, b in zip(ii.tolist(), jj.tolist())}) == 500

    def test_sampled_pairs_cover_the_whole_range(self):
        from xnb.diagnostics import DEFAULT_MAX_PAIRS, _decode_pair, _sample_pairs

        m = 2000  # 1,999,000 pairs, ten times the default cap
        ii, jj = _decode_pair(_sample_pairs(m=m, cap=DEFAULT_MAX_PAIRS, seed=0), m)
        assert np.all(np.diff(ii * m + jj) > 0)  # sorted in linear order
        assert np.any(ii >= 0.9 * m)  # the first index reaches the top decile
        assert np.any(jj >= 0.9 * m) and np.any(ii < 0.1 * m)


@st.composite
def _sampler_arguments(draw):
    m = draw(st.integers(2, 3000))
    total = m * (m - 1) // 2
    return m, draw(st.integers(0, total)), draw(st.integers(0, 2**32 - 1))


class TestPairSampler:
    @settings(max_examples=60, deadline=None)
    @given(_sampler_arguments())
    @example((10, 44, 0))  # cap = total - 1
    @example((10, 20, 3))  # p = 1: every index is kept, then the surplus dropped
    @example((2, 1, 0))  # the one pair
    @example((10**6, 200_000, 5))  # 499 999 500 000 pairs, beyond the hypergeometric's 1e9
    def test_cap_distinct_sorted_indices_in_range(self, args):
        from xnb.diagnostics import _sample_pairs

        m, cap, seed = args
        linear = _sample_pairs(m, cap, seed)
        assert linear.dtype == np.int64 and linear.shape == (cap,)
        assert np.all(np.diff(linear) > 0)  # sorted and distinct
        assert cap == 0 or (linear[0] >= 0 and linear[-1] < m * (m - 1) // 2)
        assert np.array_equal(_sample_pairs(m, cap, seed), linear)

    @pytest.mark.parametrize(
        "m, cap",
        [
            (40, 20),  # sparse: 780 pairs, p = 0.08
            (100, 1000),  # 4 950 pairs, p = 0.24
            (10, 30),  # dense: 45 pairs, p = 1
        ],
    )
    def test_inclusion_is_uniform(self, m, cap):
        # over 2 000 seeds, each pair's inclusion count is Binomial(2000,
        # cap / total) at the margin; every count lies within 5 standard
        # deviations of its mean
        from xnb.diagnostics import _sample_pairs

        draws = 2000
        total = m * (m - 1) // 2
        counts = np.zeros(total, dtype=np.int64)
        for seed in range(draws):
            counts[_sample_pairs(m, cap, seed)] += 1
        q = cap / total
        assert np.abs(counts - draws * q).max() < 5.0 * math.sqrt(draws * q * (1.0 - q))

    @pytest.mark.parametrize("m", [2500, 4472])
    def test_memory_is_bounded_by_the_cap(self, m):
        # numpy's choice without replacement permutes all m(m-1)/2 indices
        # once the cap exceeds a 50th of them: 27 and 82 MB here
        from xnb.diagnostics import DEFAULT_MAX_PAIRS, _sample_pairs

        linear, peak = traced_peak(lambda: _sample_pairs(m, DEFAULT_MAX_PAIRS, seed=0))
        assert linear.size == DEFAULT_MAX_PAIRS
        assert peak < 10e6


class TestReport:
    def test_report_round_trip_fields(self):
        d = _noise_dataset(11, n=30, m=10)
        report = run_diagnostics(d, alpha=0.1, p_max=1e-4, r_min=0.5, max_pairs=20, seed=9)
        payload = report.to_dict()
        assert payload["parameters"] == {
            "alpha": 0.1,
            "p_max": 1e-4,
            "r_min": 0.5,
            "max_pairs": 20,
            "seed": 9,
        }
        assert payload["n_variables"] == 10
        assert len(payload["shapiro_wilk"]["variables"]) == 10
        assert payload["conditional_independence"]["sampled"] is True

    def test_summary_mentions_both_ratios(self):
        d = _noise_dataset(12, n=30, m=8)
        report = run_diagnostics(d, max_pairs=None)
        text = report.summary()
        assert "SW=" in text and "P=" in text
