import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tests.conftest import mutable_parts
from tests.oracles import (
    KdeModel,
    bandwidth,
    broadcast_kernel,
    broadcast_on_grid,
    kde_density_at,
    kde_on_grid,
    make_grid,
)
from xnb import kde
from xnb.kde import (
    KERNELS,
    MIN_BANDWIDTH,
    PackedKde,
    beta_coefficient,
    column_bandwidths,
    column_blocks,
    kernel_eval,
    kernel_sum,
    scott_bandwidth,
    silverman_adaptive_bandwidth,
    silverman_bandwidth,
)


def one_column(samples, h, kernel="gaussian"):
    """A one-dimensional density: a PackedKde with a single column."""
    return PackedKde(np.asarray(samples, dtype=np.float64)[:, None], [h], kernel)


def fitted(values, kernel="gaussian", rule="silverman"):
    return one_column(values, bandwidth(rule, values), kernel)


def point(density, x):
    return float(density.density_at(np.array([x]))[0])


class TestKernels:
    def test_gaussian_at_zero(self):
        assert kernel_eval("gaussian", 0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_epanechnikov_at_zero(self):
        assert kernel_eval("epanechnikov", 0.0) == 0.75

    def test_triweight_at_zero(self):
        assert kernel_eval("triweight", 0.0) == 35.0 / 32.0

    def test_uniform_outside_support(self):
        assert kernel_eval("uniform", 1.5) == 0.0

    def test_beta_coefficients_exact(self):
        assert [beta_coefficient(s) for s in range(4)] == [0.5, 0.75, 15.0 / 16.0, 35.0 / 32.0]

    @pytest.mark.parametrize("kind", KERNELS)
    def test_integrates_to_one(self, kind):
        lo, hi = (-np.inf, np.inf) if kind == "gaussian" else (-1.0, 1.0)
        total, _ = quad(lambda u: kernel_eval(kind, u), lo, hi)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_first_moment_vanishes(self, kind):
        lo, hi = (-np.inf, np.inf) if kind == "gaussian" else (-1.0, 1.0)
        moment, _ = quad(lambda u: u * kernel_eval(kind, u), lo, hi)
        assert abs(moment) < 1e-9

    @pytest.mark.parametrize("kind", KERNELS)
    def test_non_negative_everywhere(self, kind):
        u = np.linspace(-3, 3, 1001)
        assert np.all(kernel_eval(kind, u) >= 0.0)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_eval("box", 0.0)


class TestBandwidthRules:
    def test_scott_collapses_at_n1(self):
        assert scott_bandwidth(1.0, 1) == pytest.approx(3.49, abs=1e-12)

    def test_silverman_power_of_two(self):
        # 32^(1/5) == 2 exactly
        assert silverman_bandwidth(2.0, 32) == pytest.approx(1.059, abs=1e-12)

    def test_adaptive_balanced_inputs(self):
        assert silverman_adaptive_bandwidth(1.0, 1.34, 1) == pytest.approx(0.9, abs=1e-12)

    def test_formulas_match_handwritten_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            sigma = rng.uniform(0.01, 50.0)
            iqr = rng.uniform(0.01, 50.0)
            n = int(rng.integers(1, 10_000))
            assert scott_bandwidth(sigma, n) == pytest.approx(
                3.49 * sigma / n ** (1.0 / 3.0), abs=1e-12, rel=1e-12
            )
            assert silverman_bandwidth(sigma, n) == pytest.approx(
                1.059 * sigma / n ** (1.0 / 5.0), abs=1e-12, rel=1e-12
            )
            expected = 0.9 * min(sigma, iqr / 1.34) / n ** (1.0 / 5.0)
            assert silverman_adaptive_bandwidth(sigma, iqr, n) == pytest.approx(
                expected, abs=1e-12, rel=1e-12
            )

    def test_data_path_uses_sample_std(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        sigma = np.std(x, ddof=1)
        assert bandwidth("silverman", x) == pytest.approx(1.059 * sigma * 100 ** -0.2)
        assert bandwidth("scott", x) == pytest.approx(3.49 * sigma * 100 ** (-1 / 3))

    def test_adaptive_uses_linear_interpolation_iqr(self):
        x = np.arange(9.0)
        q1, q3 = np.percentile(x, [25, 75])
        expected = 0.9 * min(np.std(x, ddof=1), (q3 - q1) / 1.34) * 9 ** -0.2
        assert bandwidth("silverman_adaptive", x) == pytest.approx(expected)

    def test_constant_values_fall_back_positive(self):
        h = bandwidth("silverman", [5.0, 5.0, 5.0])
        assert h == 1e-9

    def test_fallback_scale_sets_magnitude(self):
        h = bandwidth("silverman", [5.0, 5.0, 5.0], fallback_scale=10.0)
        assert h == pytest.approx(1e-2)

    def test_single_sample_falls_back(self):
        assert bandwidth("scott", [3.0], fallback_scale=4.0) == pytest.approx(4e-3)

    @pytest.mark.parametrize("rule", ["scott", "silverman", "silverman_adaptive"])
    def test_degenerate_inputs_always_positive(self, rule):
        for values in ([0.0], [1.0, 1.0], np.full(17, -2.5), [1e-300, 1e-300]):
            assert bandwidth(rule, values) > 0.0

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            bandwidth("silverman", [])

    @pytest.mark.parametrize("rule", ["scott", "silverman", "silverman_adaptive"])
    def test_subnormal_bandwidth_falls_back(self, rule):
        # multiples of the smallest subnormal: every rule gives a bandwidth below MIN_BANDWIDTH
        values = np.array([[0.0], [1e-323], [4.4e-323], [2e-323], [5e-324], [3e-323]])
        np.testing.assert_array_equal(column_bandwidths(rule, values, [2.0]), [2e-3])
        assert MIN_BANDWIDTH <= column_bandwidths(rule, values * 2.0**60, [2.0])[0] < 1e-300  # a rule bandwidth

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(-100, 100), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_scaled_sigma_equals_plain_std(self, seed, n, decade, offset):
        # each rule applied to power-of-two-scaled columns and scaled back is
        # bitwise the rule applied to the plain std and quartiles
        rng = np.random.default_rng(seed)
        values = (rng.normal(size=(n, 4)) + offset) * 10.0**decade
        sigma = np.std(values, axis=0, ddof=1)
        q1, q3 = np.percentile(values, [25.0, 75.0], axis=0)
        expected = {
            "scott": scott_bandwidth(sigma, n),
            "silverman": silverman_bandwidth(sigma, n),
            "silverman_adaptive": silverman_adaptive_bandwidth(sigma, q3 - q1, n),
        }
        for rule, h in expected.items():
            np.testing.assert_array_equal(column_bandwidths(rule, values, np.ptp(values, axis=0)), h, err_msg=rule)


class TestFitKde:
    def test_single_sample_model(self):
        assert one_column([0.0], 1.0).samples.shape == (1, 1)

    def test_sigma_zero_gets_fallback(self):
        assert bandwidth("silverman", [2.0, 2.0, 2.0], fallback_scale=1.0) == pytest.approx(1e-3)

    def test_normal_sample_matches_rule(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100)
        assert fitted(x).h[0] == pytest.approx(1.059 * np.std(x, ddof=1) * 100 ** -0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            one_column([], 1.0)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            one_column([1.0], 0.0)


class TestDensity:
    def test_single_sample_at_center(self):
        assert point(one_column([0.0], 1.0), 0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_two_symmetric_samples(self):
        assert point(one_column([-1.0, 1.0], 1.0), 0.0) == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_symmetric_sample_symmetric_density(self):
        density = one_column([-2.0, -0.5, 0.5, 2.0], 0.7, "epanechnikov")
        for x in np.linspace(0, 4, 23):
            assert point(density, x) == pytest.approx(point(density, -x), abs=1e-15)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_integrates_to_one(self, kind):
        rng = np.random.default_rng(abs(hash(kind)) % 2**32)
        x = rng.normal(2.0, 3.0, size=40)
        density = fitted(x, kernel=kind)
        h = density.h[0]
        grid = np.linspace(x.min() - 10 * h, x.max() + 10 * h, 10_000)
        total = np.trapezoid(density.on_grid(grid[:, None])[:, 0], grid)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_grid_matches_pointwise_to_zero_ulp(self):
        rng = np.random.default_rng(9)
        density = fitted(rng.normal(size=37), kernel="biweight")
        grid = np.linspace(-4, 4, 101)
        dense = density.on_grid(grid[:, None])[:, 0]
        for g, v in zip(grid, dense):
            assert point(density, g) == v

    def test_grid_shape_and_mass(self):
        density = fitted(np.arange(10.0))
        dens = density.on_grid(make_grid(np.arange(10.0), 50)[:, None])
        assert dens.shape == (50, 1)
        assert np.all(dens >= 0)
        assert dens.sum() > 0

    @given(st.floats(-50, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_density_never_negative(self, x, seed):
        rng = np.random.default_rng(seed)
        density = fitted(rng.normal(size=11), kernel="triweight")
        assert point(density, x) >= 0.0


class TestGrid:
    """The reference grid that ``per_variable_oracle`` builds the table on."""

    def test_linear_spacing(self):
        grid = make_grid([0.0, 10.0], 5)
        np.testing.assert_allclose(grid, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_default_mu_is_50(self):
        assert make_grid(np.arange(4.0)).shape == (50,)

    def test_constant_variable_widened(self):
        grid = make_grid([3.0, 3.0, 3.0], 5)
        assert grid[0] == 2.0 and grid[-1] == 4.0
        assert len(grid) == 5

    def test_mu_below_two_rejected(self):
        with pytest.raises(ValueError):
            make_grid([1.0, 2.0], 1)


class TestPackedKde:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 8), st.sampled_from(KERNELS))
    @settings(max_examples=40, deadline=None)
    def test_columns_match_one_dimensional_models(self, seed, n, w, kind):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(n, w))
        h = rng.uniform(0.2, 2.0, size=w)
        packed = PackedKde(samples, h, kind)
        x = rng.normal(size=w)
        density = packed.density_at(x)
        grids = rng.normal(scale=2.0, size=(7, w))
        dens = packed.on_grid(grids)
        assert dens.shape == (7, w)
        for j in range(w):
            model = KdeModel(samples[:, j], h[j], kind)
            assert density[j] == pytest.approx(kde_density_at(model, x[j]), rel=1e-13, abs=1e-300)
            np.testing.assert_allclose(dens[:, j], kde_on_grid(model, grids[:, j]), rtol=1e-13, atol=1e-300)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
        st.integers(1, 24),
        st.sampled_from(KERNELS),
    )
    @example(seed=0, n=1, mu=1, w=1, kind="gaussian")
    @example(seed=1, n=1, mu=5, w=3, kind="uniform")
    @example(seed=2, n=9, mu=1, w=1, kind="biweight")
    @example(seed=3, n=30, mu=12, w=1, kind="epanechnikov")
    @settings(max_examples=80, deadline=None)
    def test_on_grid_equals_broadcast_oracle(self, seed, n, mu, w, kind):
        rng = np.random.default_rng(seed)
        packed = PackedKde(rng.normal(size=(n, w)), rng.uniform(0.05, 2.0, size=w), kind)
        grids = rng.normal(scale=2.0, size=(mu, w))
        grids[0] = packed.samples[0]  # kernel peaks, and |u| = 0 exactly
        np.testing.assert_array_equal(packed.on_grid(grids), broadcast_on_grid(packed, grids))
        np.testing.assert_array_equal(packed.density_at(grids[-1]), broadcast_on_grid(packed, grids[-1:])[0])

    @pytest.mark.parametrize("kind", KERNELS)
    def test_kernel_equals_broadcast_oracle(self, kind):
        # both sides of |u| = 1, the support edge of the beta kernels
        u = np.concatenate([np.linspace(-3.0, 3.0, 601), [-1.0, 1.0], np.nextafter([-1.0, 1.0, -1.0, 1.0], [-2, 2, 0, 0])])
        np.testing.assert_array_equal(kernel_eval(kind, u), broadcast_kernel(kind, u))
        assert kernel_eval(kind, 0.25) == float(broadcast_kernel(kind, np.float64(0.25)))

    @pytest.mark.parametrize("kind", KERNELS)
    def test_offsets_too_large_to_square_add_zero(self, kind):
        packed = PackedKde([[0.0], [1.0]], [1e-3], kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow RuntimeWarning from the squares
            dens = packed.on_grid(np.array([[1e308], [-1e308], [0.0]]))
        assert dens[0, 0] == dens[1, 0] == 0.0 and dens[2, 0] > 0.0

    def test_bandwidth_near_the_largest_float(self):
        # n h = 3e308 is beyond the largest float; the density is not
        packed = PackedKde([[0.0], [1e308], [1.0]], [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow RuntimeWarning from n h
            density = packed.density_at(np.array([0.0]))
        expected = (2.0 + math.exp(-0.5)) / (3.0 * math.sqrt(2.0 * math.pi)) / 1e308
        assert density[0] == pytest.approx(expected, rel=1e-12) and 3.4e-309 < density[0] < 3.5e-309

    @pytest.mark.parametrize("step_bytes", [1, 1 << 40])
    @pytest.mark.parametrize("n, w", [(5, 0), (40, 1), (200, 50)])
    @pytest.mark.parametrize("kind", KERNELS)
    def test_every_step_size_sums_alike(self, monkeypatch, step_bytes, n, w, kind):
        # at (200, 50) the default steps are 6 grid rows: 4 full steps and 1 of one row
        rng = np.random.default_rng(n + w)
        packed = PackedKde(rng.normal(size=(n, w)), rng.uniform(0.05, 2.0, size=w), kind)
        grids = rng.normal(scale=2.0, size=(25, w))
        on_grid, at_point = packed.on_grid(grids), packed.density_at(grids[3])
        monkeypatch.setattr(kde, "_STEP_BYTES", step_bytes)
        np.testing.assert_array_equal(packed.on_grid(grids), on_grid)
        np.testing.assert_array_equal(packed.density_at(grids[3]), at_point)
        assert on_grid.shape == (25, w)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_kernel_sum_on_a_column_view_equals_the_packed_columns(self, kind):
        rng = np.random.default_rng(6)
        packed = PackedKde(rng.normal(size=(30, 9)), rng.uniform(0.05, 2.0, size=9), kind)
        grids = rng.normal(scale=2.0, size=(40, 4))
        view = packed.samples[:, 3:7]
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(kernel_sum(view, packed.h[3:7], kind, grids), packed.take(slice(3, 7)).on_grid(grids))

    def test_kernel_eval_leaves_its_input_alone(self):
        u = np.array([0.5, 2.0])
        kernel_eval("biweight", u)
        np.testing.assert_array_equal(u, [0.5, 2.0])

    def test_take_selects_columns_in_order(self):
        packed = PackedKde(np.arange(12.0).reshape(4, 3), [1.0, 2.0, 3.0])
        sub = packed.take([2, 0])
        np.testing.assert_array_equal(sub.samples, np.arange(12.0).reshape(4, 3)[:, [2, 0]])
        np.testing.assert_array_equal(sub.h, [3.0, 1.0])
        assert sub.samples.flags.c_contiguous

    def test_input_arrays_are_copied(self):
        samples = np.zeros((2, 2))
        packed = PackedKde(samples, [1.0, 1.0])
        samples[0, 0] = 5.0
        assert packed.samples[0, 0] == 0.0
        assert samples.flags.writeable and mutable_parts(packed) == []

    @pytest.mark.parametrize(
        "samples, h, match",
        [
            (np.zeros(3), [1.0], "matrix"),
            (np.zeros((0, 2)), [1.0, 1.0], "matrix"),
            (np.zeros((3, 2)), [1.0], "bandwidths"),
            (np.zeros((3, 2)), [1.0, 0.0], "positive"),
            (np.zeros((3, 2)), [1.0, MIN_BANDWIDTH / 2], "positive"),
            (np.array([[0.0, np.nan]]), [1.0, 1.0], "finite"),
        ],
    )
    def test_malformed_input_rejected(self, samples, h, match):
        with pytest.raises(ValueError, match=match):
            PackedKde(samples, h)


class TestColumnBlocks:
    @given(st.integers(1, 5000), st.integers(0, 300), st.sampled_from([1, 64, 4096, 1 << 19]))
    @settings(max_examples=100, deadline=None)
    def test_blocks_cover_the_columns_and_none_is_one_wide(self, n, w, step_bytes):
        original, kde._STEP_BYTES = kde._STEP_BYTES, step_bytes  # no function-scoped fixture under @given
        try:
            blocks = column_blocks(n, w)
        finally:
            kde._STEP_BYTES = original
        assert blocks[0][0] == 0 and blocks[-1][1] == w
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        widths = [hi - lo for lo, hi in blocks]
        assert max(widths) - min(widths) <= 1
        assert w < 2 or min(widths) >= 2
        # at most step_bytes, unless a block of two (three for an odd w) is already larger
        assert 8 * n * max(widths) <= step_bytes or max(widths) <= 3
