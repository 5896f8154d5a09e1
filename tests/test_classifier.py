import base64
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xnb.classifier import (
    FIT_STAGES,
    FLOOR,
    GnbModel,
    XnbConfig,
    XnbModel,
    _pick_label,
    fit_fnb,
    fit_gnb,
    fit_xnb,
    load_model,
    predict,
    save_model,
)
from xnb.hellinger import MAX_MU, hellinger_table
from xnb.dataset import Dataset, class_priors
from xnb import kde as kde_module
from xnb.errors import DataError, ModelFormatError
from xnb.evaluation import accuracy
from xnb.kde import BANDWIDTH_RULES, KERNELS, PackedKde, column_bandwidths, kernel_eval
from xnb.selection import ClassFeatureMap
from tests.conftest import (
    MALFORMED_ARRAYS,
    NAME_BYTES,
    class_block_bytes,
    corrupt_node,
    edit_array,
    empty_union_model,
    make_separated,
    traced_peak,
    wide_dataset,
)
from tests.oracles import KdeModel, bandwidth, kde_density_at, v1_payload, v2_payload

FITS = {"xnb": fit_xnb, "fnb": fit_fnb, "gnb": fit_gnb}


@st.composite
def drawn_fit_inputs(draw):
    """A dataset of 2 to 4 classes with drawn names and values, and a config of any kernel and rule."""
    k, m = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    classes = draw(st.lists(st.text(max_size=3), min_size=k, max_size=k, unique=True))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=m, max_size=m, unique=True))
    sizes = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    values = draw(hnp.arrays(np.float64, (sum(sizes), m), elements=st.floats(-1e6, 1e6)))
    labels = tuple(c for c, size in zip(classes, sizes) for _ in range(size))
    config = XnbConfig(
        draw(st.sampled_from(KERNELS)),
        draw(st.sampled_from(BANDWIDTH_RULES)),
        draw(st.integers(2, 64)),
        draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )
    return Dataset(tuple(names), values, labels), config


class TestFitXnb:
    def test_separated_two_class(self, separated_two_class):
        d = separated_two_class
        model = fit_xnb(d)
        assert model.features.features["A"] == ("g1",)
        assert model.features.features["B"] == ("g1",)
        labels = [predict(model, row).label for row in d.values]
        assert accuracy(labels, d.labels) == 1.0

    def test_single_variable_dataset(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 10), rng.normal(8, 1, 10)])[:, None]
        d = Dataset(("only",), values, ("A",) * 10 + ("B",) * 10)
        model = fit_xnb(d)
        assert model.features.features["A"] == ("only",)
        assert model.features.features["B"] == ("only",)

    def test_single_class_rejected(self):
        # every fit makes the one class-count check, with one message
        d = Dataset(("x",), np.zeros((3, 1)), ("A", "A", "A"))
        for fit in FITS.values():
            with pytest.raises(DataError, match="^classification needs at least 2 classes, got 1$"):
                fit(d)

    def test_singleton_class_warns_but_fits(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(5, 2))
        d = Dataset(("x", "y"), values, ("A", "A", "A", "A", "B"))
        with pytest.warns(UserWarning, match="single sample"):
            model = fit_xnb(d)
        assert all(np.all(density.h > 0) for density in model.kde_bank.values())

    def test_bank_restricted_to_selection(self, separated_two_class):
        d = separated_two_class
        model = fit_xnb(d)
        assert set(model.kde_bank) == {"A", "B"}
        for c in d.classes:
            np.testing.assert_array_equal(model.kde_bank[c].samples, d.values[d.class_rows[c], 0][:, None])

    def test_timings_cover_all_stages(self, separated_two_class):
        model = fit_xnb(separated_two_class)
        assert set(model.timings) == {"bandwidth", "kde", "hellinger", "select", "build"}

    def test_fnb_times_only_its_own_stages(self, separated_two_class):
        # fnb builds its bank in the kde stage and restricts nothing
        timings = fit_fnb(separated_two_class).timings
        assert timings["kde"] > 0.0
        assert timings["hellinger"] == timings["select"] == timings["build"] == 0.0


class TestBandwidthMatrix:
    @pytest.mark.parametrize("rule", ["scott", "silverman", "silverman_adaptive"])
    def test_matches_scalar_bandwidth_op(self, rule):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(40, 7))
        values[:, 3] = 2.0  # constant column exercises the fallback
        labels = tuple(rng.choice(["A", "B", "C"], 40))
        d = Dataset(tuple(f"v{i}" for i in range(7)), values, labels)
        bank = fit_fnb(d, XnbConfig(bandwidth_rule=rule)).kde_bank
        for c in d.classes:
            for j, v in enumerate(d.variable_names):
                expected = bandwidth(
                    rule, d.values[d.class_rows[c], j], fallback_scale=float(np.ptp(d.values[:, j]))
                )
                assert bank[c].h[j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestPredictXnb:
    def test_separated_sample_goes_to_near_class(self, separated_two_class):
        model = fit_xnb(separated_two_class)
        sample = np.zeros(21)
        assert predict(model, sample).label == "A"
        sample[0] = 100.0
        assert predict(model, sample).label == "B"

    def test_dimension_mismatch(self, separated_two_class):
        model = fit_xnb(separated_two_class)
        with pytest.raises(ValueError, match="length 21"):
            predict(model, np.zeros(5))

    def test_floor_saturation_far_from_support(self, separated_two_class):
        model = fit_xnb(separated_two_class)
        sample = np.full(21, 1e9)
        pred = predict(model, sample)
        for c in model.classes:
            expected = np.log(model.priors[c]) + model.features.count(c) * np.log(FLOOR)
            assert pred.log_scores[c] == pytest.approx(expected)

    def test_exact_tie_equal_priors_lexicographic(self):
        kde = PackedKde(np.array([[0.0], [2.0]]), [1.0])
        model = XnbModel(
            classes=("A", "B"),
            priors={"A": 0.5, "B": 0.5},
            features=ClassFeatureMap(classes=("A", "B"), features={"A": ("x",), "B": ("x",)}),
            kde_bank={"A": kde, "B": kde},
            config=XnbConfig(),
            variable_names=("x",),
        )
        pred = predict(model, [1.0])
        assert pred.log_scores["A"] == pred.log_scores["B"]
        assert pred.label == "A"

    def test_tie_break_prefers_larger_prior(self):
        scores = {"A": -3.0, "B": -3.0}
        assert _pick_label(scores, {"A": 0.25, "B": 0.75}) == "B"
        assert _pick_label(scores, {"A": 0.75, "B": 0.25}) == "A"
        assert _pick_label(scores, {"A": 0.5, "B": 0.5}) == "A"

    def test_density_evaluations_are_class_specific(self, separated_three_class):
        # a class's score reads only its own variables: perturbing every
        # other variable leaves it bit-identical, perturbing its own does not
        d, _ = separated_three_class
        model = fit_xnb(d)
        assert sum(model.features.count(c) for c in model.classes) < d.m * len(model.classes)
        base = predict(model, d.values[0]).log_scores
        rng = np.random.default_rng(31)
        for c in model.classes:
            outside = np.setdiff1d(np.arange(d.m), model.feature_columns[c])
            assert outside.size > 0
            perturbed = d.values[0].copy()
            perturbed[outside] += rng.normal(0.0, 10.0, size=outside.size)
            assert predict(model, perturbed).log_scores[c] == base[c]
            perturbed[model.feature_columns[c]] += 10.0
            assert predict(model, perturbed).log_scores[c] != base[c]

    def test_scores_independent_of_grid_resolution(self, separated_two_class):
        # mu only shapes the selection-time distance grid; once the same
        # variables are selected, scoring is an exact sum over samples
        d = separated_two_class
        coarse = fit_xnb(d, XnbConfig(mu=10))
        fine = fit_xnb(d, XnbConfig(mu=200))
        assert coarse.features.features == fine.features.features
        rng = np.random.default_rng(12)
        for _ in range(20):
            sample = rng.normal(50, 60, size=d.m)
            assert predict(coarse, sample).log_scores == predict(fine, sample).log_scores


def oracle_log_scores(model, x) -> dict[str, float]:
    """Each class's log score, one scalar density or Gaussian term at a time."""
    scores = {}
    for i, c in enumerate(model.classes):
        if isinstance(model, GnbModel):
            terms = [
                -0.5 * (math.log(2.0 * math.pi * var) + (x[j] - mean) ** 2 / var)
                for j, (mean, var) in enumerate(zip(model.means[i], model.variances[i]))
            ]
        else:
            bank = model.kde_bank[c]
            terms = [
                math.log(max(kde_density_at(KdeModel(bank.samples[:, t], bank.h[t], bank.kernel), x[j]),
                             FLOOR))
                for t, j in enumerate(model.feature_columns[c])
            ]
        scores[c] = math.log(model.priors[c]) + math.fsum(terms)
    return scores


class TestScoredColumns:
    def test_kde_union(self, separated_three_class):
        d, _ = separated_three_class
        model = fit_xnb(d)
        union = sorted({j for cols in model.feature_columns.values() for j in cols})
        assert model.scored_columns.tolist() == union and len(union) < d.m

    @pytest.mark.parametrize("method", ["fnb", "gnb"])
    def test_baselines_score_every_column(self, separated_two_class, method):
        model = FITS[method](separated_two_class)
        assert np.array_equal(model.scored_columns, np.arange(separated_two_class.m))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["xnb", "fnb", "gnb"]), st.sampled_from(KERNELS))
    @settings(max_examples=30, deadline=None)
    def test_predict_matches_the_scalar_oracle(self, seed, method, kernel):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        d, _ = make_separated(n=int(rng.integers(3 * k, 40)), m=int(rng.integers(2 * k, 16)), k=k,
                              seed=seed % 1000)
        model = fit_gnb(d) if method == "gnb" else FITS[method](d, XnbConfig(kernel=kernel))
        if method != "gnb":
            assert tuple(model.timings) == FIT_STAGES
        if method == "xnb":
            # each class's density is the fnb fit's, restricted to its columns
            full = fit_fnb(d, model.config).kde_bank
            for c in model.classes:
                taken = full[c].take(model.feature_columns[c])
                assert taken.kernel == model.kde_bank[c].kernel
                assert taken.samples.tobytes() == model.kde_bank[c].samples.tobytes()
                assert taken.h.tobytes() == model.kde_bank[c].h.tobytes()
        for x in rng.normal(0.0, 3.0, size=(5, d.m)):
            pred = predict(model, x)
            expected = oracle_log_scores(model, x)
            assert list(pred.log_scores) == list(model.classes)
            np.testing.assert_allclose(
                [pred.log_scores[c] for c in model.classes], [expected[c] for c in model.classes],
                rtol=1e-12, atol=0,
            )

    def test_predict_checks_the_full_row(self, separated_three_class):
        d, _ = separated_three_class
        model = fit_xnb(d)
        unscored = np.setdiff1d(np.arange(d.m), model.scored_columns)[0]
        row = d.values[0].copy()
        row[unscored] = np.nan
        with pytest.raises(ValueError, match="finite"):
            predict(model, row)
        with pytest.raises(ValueError, match=f"length {d.m}"):
            predict(model, row[model.scored_columns])

    def test_empty_union_loads_and_scores_the_priors(self, tmp_path):
        model = empty_union_model()
        assert model.scored_columns.size == 0
        path = tmp_path / "model.json"
        save_model(model, path)
        for loaded in (model, load_model(path)):
            pred = predict(loaded, [1.0, 2.0])
            assert pred.log_scores == {"A": np.log(0.25), "B": np.log(0.75)} and pred.label == "B"

    def test_mu_bound(self):
        assert XnbConfig(mu=MAX_MU).mu == MAX_MU
        with pytest.raises(ValueError, match=f"mu must lie in \\[2, {MAX_MU}\\], got {MAX_MU + 1}"):
            XnbConfig(mu=MAX_MU + 1)
        with pytest.raises(ValueError, match="mu must lie in"):
            XnbConfig(mu=1)


class TestPriorShift:
    def test_duplicating_a_class_raises_its_prior_only(self):
        d = Dataset(("x",), np.arange(6.0)[:, None], ("A", "A", "B", "B", "B", "B"))
        doubled = Dataset(
            ("x",),
            np.concatenate([d.values, d.values[:2]]),
            d.labels + ("A", "A"),
        )
        before = class_priors(d)
        after = class_priors(doubled)
        assert after["A"] > before["A"]
        # duplicated samples leave the density estimate itself unchanged
        single = PackedKde(np.array([[1.0], [3.0]]), [0.8])
        double = PackedKde(np.array([[1.0], [3.0], [1.0], [3.0]]), [0.8])
        grid = np.linspace(-2, 6, 17)[:, None]
        np.testing.assert_allclose(single.on_grid(grid), double.on_grid(grid), rtol=0, atol=1e-15)


class TestGnb:
    def test_moments_by_hand(self):
        d = Dataset(("v",), np.array([[1.0], [2.0], [3.0], [9.0], [9.0]]), ("A",) * 3 + ("B",) * 2)
        model = fit_gnb(d)
        assert model.means[0, 0] == pytest.approx(2.0)
        assert model.variances[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_constant_variable_gets_smoothing_only(self):
        values = np.column_stack([np.ones(6), np.arange(6.0)])
        d = Dataset(("const", "spread"), values, ("A", "B") * 3)
        model = fit_gnb(d)
        assert model.variances[0, 0] == pytest.approx(model.smoothing)
        assert model.variances[0, 0] > 0
        # the smoothing is 1e-9 times the largest global (ddof=1) variance
        assert model.smoothing == pytest.approx(1e-9 * np.var(values, axis=0, ddof=1).max(), rel=1e-12)

    def test_priors_match_dataset_priors(self):
        rng = np.random.default_rng(2)
        labels = tuple(rng.choice(["A", "B", "C"], size=30))
        d = Dataset(("x",), rng.normal(size=(30, 1)), labels)
        assert fit_gnb(d).priors == class_priors(d)

    def test_two_gaussians_obvious_sample(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0, 1, 50), rng.normal(10, 1, 50)])[:, None]
        d = Dataset(("x",), values, ("A",) * 50 + ("B",) * 50)
        model = fit_gnb(d)
        assert predict(model, [1.0]).label == "A"
        assert predict(model, [9.0]).label == "B"

    def test_exact_midpoint_tie_breaks_lexicographically(self):
        values = np.array([[-1.0], [1.0], [9.0], [11.0]])
        d = Dataset(("x",), values, ("A", "A", "B", "B"))
        model = fit_gnb(d)
        pred = predict(model, [5.0])
        assert pred.log_scores["A"] == pred.log_scores["B"]
        assert pred.label == "A"

    def test_identical_variable_does_not_change_argmax(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(0, 1, 40), rng.normal(6, 1, 40)])[:, None]
        labels = ("A",) * 40 + ("B",) * 40
        base = Dataset(("x",), values, labels)
        shared = np.tile(np.arange(40.0)[:, None], (2, 1))
        extended = Dataset(("x", "same"), np.hstack([values, shared]), labels)
        m0 = fit_gnb(base)
        m1 = fit_gnb(extended)
        probes = rng.normal(3, 4, size=25)
        for x in probes:
            assert predict(m0, [x]).label == predict(m1, [x, 20.0]).label

    def test_single_class_rejected(self):
        d = Dataset(("x",), np.zeros((2, 1)), ("A", "A"))
        with pytest.raises(DataError):
            fit_gnb(d)

    def test_scores_equal_the_uncached_formula(self, tmp_path):
        d, _ = make_separated(n=60, m=12, k=3, seed=5)
        fitted = fit_gnb(d)
        path = tmp_path / "gnb.json"
        save_model(fitted, path)
        loaded = load_model(path)
        for row in d.values[:20]:
            means, variances = fitted.means, fitted.variances
            log_density = -0.5 * (np.log(2.0 * np.pi * variances) + (row - means) ** 2 / variances)
            expected = {
                c: float(math.log(fitted.priors[c]) + log_density[i].sum()) for i, c in enumerate(fitted.classes)
            }
            assert predict(fitted, row).log_scores == expected
            assert predict(loaded, row).log_scores == expected

    def test_values_near_the_largest_float(self):
        # a mean whose sum overflows is exact; a variance beyond the largest
        # float is a data error naming the variable
        values = np.array([[1e308, 1.0], [1e308, 2.0], [1e308, 4.0], [1e308, 3.0], [1e308, 5.0], [1e308, 7.0]])
        labels = ("A", "A", "A", "B", "B", "B")
        model = fit_gnb(Dataset(("big", "small"), values, labels))
        np.testing.assert_array_equal(model.means, [[1e308, 7.0 / 3.0], [1e308, 5.0]])
        values[0, 0] = 0.0
        with pytest.raises(DataError, match="variables 'big': variance exceeds the largest float"):
            fit_gnb(Dataset(("big", "small"), values, labels))

    def test_variance_whose_2_pi_multiple_overflows_is_refused_at_fit(self):
        # class A's variance is 1.125e308, finite, but 2 pi times it is not, so the
        # model could score no sample; at 7e153 it is 2.45e307, and 2 pi times it fits
        labels = ("A", "A", "B", "B")
        with pytest.raises(
            DataError, match=r"^variables 'v': 2 pi times the variance exceeds the largest float; gnb cannot score it$"
        ):
            fit_gnb(Dataset(("v",), [[0.0], [1.5e154], [0.0], [1.0]], labels))
        model = fit_gnb(Dataset(("u", "v"), [[0.0, 0.0], [1.0, 7e153], [0.0, 0.0], [1.0, 1.0]], labels))
        assert all(math.isfinite(s) for s in predict(model, [0.5, 0.5]).log_scores.values())

    def test_moments_are_its_own_copy(self):
        means, variances = np.zeros((2, 3)), np.ones((2, 3))
        views = means[:], variances[:]  # taken before construction
        model = GnbModel(("A", "B"), {"A": 0.5, "B": 0.5}, ("x", "y", "z"), means, variances, smoothing=1e-9)
        for given, view in zip((means, variances), views):
            assert given.flags.writeable and view.flags.writeable
            given[0, 0] = 1e300
            view[1, 2] = 1e300
        np.testing.assert_array_equal(model.means, np.zeros((2, 3)))
        np.testing.assert_array_equal(model.variances, np.ones((2, 3)))
        assert not (model.means.flags.writeable or model.variances.flags.writeable)

    def test_smoothing_of_a_subnormal_variance_stays_positive(self, tmp_path):
        # the largest variance is about 4e-318: 1e-9 times it is 0, which no GnbModel takes
        d = Dataset(("v",), [[2.88235154e-159], [0.0], [0.0], [2.88235154e-159]], ("A", "A", "B", "B"))
        model = fit_gnb(d)
        assert model.smoothing == np.finfo(np.float64).tiny
        save_model(model, tmp_path / "gnb.json")
        assert predict(load_model(tmp_path / "gnb.json"), [0.0]).log_scores == predict(model, [0.0]).log_scores

    @pytest.mark.parametrize(
        "a, b, sample",
        [
            ([0.0, 1.0], [0.0, 1.0], 1e200),  # the squared offset overflows
            ([1e-155, 2e-155], [0.0, 1e-155], 5.0),  # a variance near the smallest normal float
        ],
    )
    def test_sample_too_far_for_a_finite_score_is_data_error(self, a, b, sample):
        model = fit_gnb(Dataset(("v",), np.array(a + b)[:, None], ("A", "A", "B", "B")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(DataError, match=r"^class 'A', variable 'v': the gnb log score is not finite$"):
                predict(model, [sample])

    def test_a_sum_that_overflows_names_the_lowest_term(self):
        # each log density is finite, near -8e307, but their sum is not
        d = Dataset(("u", "w", "z"), [[0.0] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3], ("A", "A", "B", "B"))
        model = fit_gnb(d)
        with pytest.raises(DataError, match=r"^class 'A', variable 'w': the gnb log score is not finite$"):
            predict(model, [9e153, 9.2e153, 9e153])

    def test_method_is_not_a_field(self):
        # a GnbModel is always gnb: no caller can build one that claims another method
        args = (("A", "B"), {"A": 0.5, "B": 0.5}, ("x",), np.zeros((2, 1)), np.ones((2, 1)), 1e-9)
        assert GnbModel(*args).method == "gnb"
        with pytest.raises(TypeError, match="method"):
            GnbModel(*args, method="xnb")


class TestFnb:
    def test_all_variables_kept(self, separated_two_class):
        model = fit_fnb(separated_two_class)
        for c in model.classes:
            assert model.features.features[c] == separated_two_class.variable_names

    def test_training_accuracy_on_separated(self, separated_two_class):
        d = separated_two_class
        model = fit_fnb(d)
        labels = [predict(model, row).label for row in d.values]
        assert accuracy(labels, d.labels) == 1.0

    def test_single_variable_equals_xnb(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(0, 1, 12), rng.normal(9, 1, 12)])[:, None]
        d = Dataset(("only",), values, ("A",) * 12 + ("B",) * 12)
        fnb = fit_fnb(d)
        xnb_model = fit_xnb(d)
        assert fnb.features.features == xnb_model.features.features
        assert fnb.priors == xnb_model.priors
        probes = rng.normal(4, 5, size=20)
        for x in probes:
            a = predict(fnb, [x])
            b = predict(xnb_model, [x])
            assert a.label == b.label
            assert a.log_scores == b.log_scores

    def test_agrees_with_gnb_on_separated_gaussians(self):
        rng = np.random.default_rng(6)
        n_per = 100
        means = np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]])
        train = np.vstack([rng.normal(means[0], 1, (n_per, 3)), rng.normal(means[1], 1, (n_per, 3))])
        labels = ("A",) * n_per + ("B",) * n_per
        d = Dataset(("x", "y", "z"), train, labels)
        fnb = fit_fnb(d)
        gnb = fit_gnb(d)
        picks = rng.integers(0, 2, size=1000)
        samples = rng.normal(means[picks], 1.0)
        agree = sum(
            predict(fnb, s).label == predict(gnb, s).label for s in samples
        )
        assert agree / 1000 >= 0.99


class TestIdentity:
    @pytest.mark.parametrize("method", sorted(FITS))
    def test_fitted_and_loaded_models_compare_by_identity(self, separated_two_class, tmp_path, method):
        # a type that holds arrays has no field-wise ==, which would ask numpy for one truth value
        first, second = FITS[method](separated_two_class), FITS[method](separated_two_class)
        save_model(first, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        pairs = [(first, second), (first, loaded)]
        if method != "gnb":
            pairs.append((first.kde_bank["A"], second.kde_bank["A"]))
        for a, b in pairs:
            assert (a == b) is False and (a != b) is True
            assert (a == a) is True and (a != a) is False
            assert len({a, b, a}) == 2

    def test_datasets_and_tables_compare_by_identity(self, separated_two_class):
        d = separated_two_class
        copy = Dataset(d.variable_names, d.values, d.labels)
        bank = fit_fnb(d).kde_bank
        tables = hellinger_table(d, bank), hellinger_table(d, bank)
        for a, b in ((d, copy), tables):
            assert (a == b) is False and (a != b) is True
            assert (a == a) is True
            assert len({a, b}) == 2


class TestPersistence:
    def test_round_trip_predictions_bit_exact(self, separated_two_class, tmp_path):
        d = separated_two_class
        model = fit_xnb(d)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(8)
        for _ in range(100):
            sample = rng.normal(50, 60, size=d.m)
            a = predict(model, sample)
            b = predict(loaded, sample)
            assert a.label == b.label
            assert a.log_scores == b.log_scores

    def test_gnb_round_trip(self, separated_two_class, tmp_path):
        model = fit_gnb(separated_two_class)
        path = tmp_path / "gnb.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.variances, model.variances)
        sample = np.zeros(21)
        assert predict(loaded, sample).log_scores == predict(model, sample).log_scores

    def test_config_preserved(self, separated_two_class, tmp_path):
        config = XnbConfig(kernel="epanechnikov", bandwidth_rule="scott", mu=30, theta=0.99)
        model = fit_xnb(separated_two_class, config)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).config == config

    def test_truncated_file_rejected(self, separated_two_class, tmp_path):
        model = fit_xnb(separated_two_class)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError, match="not a valid model"):
            load_model(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 99, "method": "xnb"}))
        with pytest.raises(ModelFormatError, match="schema version"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="no such model"):
            load_model(tmp_path / "absent.json")

    def test_file_is_compact_v3(self, separated_two_class, tmp_path):
        path = tmp_path / "model.json"
        model = fit_fnb(separated_two_class)
        save_model(model, path)
        text = path.read_text()
        assert text.count("\n") == 1
        payload = json.loads(text)
        assert payload["version"] == 3
        assert payload["features"]["A"] == list(separated_two_class.variable_names)
        entry = payload["kde"]["A"]
        assert set(entry) == {"kernel", "h", "samples"} and entry["kernel"] == "gaussian"
        assert entry["h"]["dtype"] == "<f8" and entry["h"]["shape"] == [21]
        assert entry["samples"]["dtype"] == "<f8" and entry["samples"]["shape"] == [15, 21]
        # little-endian float64, row-major, base64
        raw = base64.b64decode(entry["samples"]["data"], validate=True)
        assert raw == model.kde_bank["A"].samples.astype("<f8").tobytes(order="C")
        gnb_path = tmp_path / "gnb.json"
        save_model(fit_gnb(separated_two_class), gnb_path)
        gnb = json.loads(gnb_path.read_text())["gnb"]
        assert set(gnb) == {"means", "variances", "smoothing"} and isinstance(gnb["smoothing"], float)
        assert gnb["means"]["shape"] == gnb["variances"]["shape"] == [2, 21]

    @pytest.mark.parametrize("method", ["xnb", "fnb", "gnb"])
    def test_save_load_save_is_byte_identical(self, separated_two_class, tmp_path, method):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(FITS[method](separated_two_class), first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_v2_file_rejected(self, separated_two_class, tmp_path):
        # no writer has produced version 2 since version 3
        path = tmp_path / "v2.json"
        for fit in FITS.values():
            path.write_text(json.dumps(v2_payload(fit(separated_two_class))))
            with pytest.raises(ModelFormatError) as info:
                load_model(path)
            assert str(info.value) == f"{path}: schema version 2, expected 3"

    @pytest.mark.parametrize("method", ["xnb", "fnb", "gnb"])
    def test_every_object_holds_exactly_the_written_keys(self, separated_two_class, tmp_path, method):
        path = tmp_path / "model.json"
        save_model(FITS[method](separated_two_class), path)
        text = path.read_text()

        def objects(node, name, at=()):
            """Each JSON object in the payload: its key path, the name the reader gives it, its keys."""
            yield at, name, list(node)
            for key, child in node.items():
                if isinstance(child, dict):
                    sub = key if not at else f"{name}[{key!r}]" if name == "kde" else f"{name}.{key}"
                    yield from objects(child, sub, (*at, key))

        def load_edited(at, edit) -> str:
            payload = json.loads(text)
            node = payload
            for key in at:
                node = node[key]
            edit(node)
            path.write_text(json.dumps(payload))
            with pytest.raises(ModelFormatError) as info:
                load_model(path)
            return str(info.value)

        for at, name, keys in objects(json.loads(text), "top level"):
            problems = [("unexpected", "zzz", lambda node: node.update(zzz=1.0))]
            problems += [("missing", key, lambda node, key=key: node.pop(key)) for key in keys]
            for problem, key, edit in problems:
                message = load_edited(at, edit)
                if name == "priors":  # checked against the classes by the model constructors
                    assert message.endswith("priors must name exactly the model classes)")
                else:
                    assert f"{name} must be a {{" in message and message.endswith(f"object, {problem} {key!r})")

    @pytest.mark.parametrize(
        "method, path, replace, match",
        [case[1:] for case in MALFORMED_ARRAYS],
        ids=[case[0] for case in MALFORMED_ARRAYS],
    )
    def test_malformed_array_rejected(self, separated_two_class, tmp_path, method, path, replace, match):
        model_path = tmp_path / "model.json"
        save_model(FITS[method](separated_two_class), model_path)
        payload = json.loads(model_path.read_text())
        corrupt_node(payload, path, replace)
        model_path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=f"malformed model file \\(ValueError: .*{match}") as info:
            load_model(model_path)
        # the decoder's checks name the array node; the constructors' value checks do not
        node = f"kde[{path[1]!r}].{path[2]}" if path[0] == "kde" else ".".join(path)
        assert "must be" in match or f"(ValueError: {node}" in str(info.value)

    @given(drawn_fit_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_scores_bit_identical(self, tmp_path_factory, inputs, seed):
        # every model a fit builds is one save_model writes and load_model reads back unchanged
        d, config = inputs
        tmp = tmp_path_factory.mktemp("rt")
        lo, hi = d.values.min(axis=0), d.values.max(axis=0)
        samples = np.vstack([d.values, np.random.default_rng(seed).uniform(lo, hi, size=(5, d.m))])
        for method, fit in FITS.items():
            with warnings.catch_warnings():  # singleton and zero-sum warnings are not at issue here
                warnings.simplefilter("ignore", UserWarning)
                model = fit(d) if method == "gnb" else fit(d, config)
            save_model(model, tmp / "model.json")
            loaded = load_model(tmp / "model.json")
            save_model(loaded, tmp / "again.json")
            assert (tmp / "again.json").read_bytes() == (tmp / "model.json").read_bytes()
            for sample in samples:
                a, b = predict(model, sample), predict(loaded, sample)
                assert (a.label, a.log_scores) == (b.label, b.log_scores)

    def test_v1_file_rejected(self, separated_two_class, tmp_path):
        # no writer has produced version 1 since version 2
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1_payload(fit_xnb(separated_two_class))))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: schema version 1, expected 3"

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda p: p["features"].update(A=["g1", "nope"]), "not in the model"),
            (lambda p: corrupt_node(p, ("kde", "A", "h"), lambda n: edit_array(n, lambda h: np.ones(2))), "bandwidths"),
            (
                lambda p: corrupt_node(p, ("kde", "A", "samples"), lambda n: edit_array(n, lambda a: a[:, :0])),
                "malformed",
            ),
            (lambda p: p["kde"].pop("B"), "kde .* missing 'B'"),
            (lambda p: p["priors"].pop("B"), "priors"),
            (lambda p: p.update(priors=[0.5, 0.5]), "AttributeError"),
            (lambda p: p["features"].update(A=["g1", ""]), "not in the model: ''"),
            (lambda p: p["kde"]["A"].update(kernel="uniform"), "class 'A': kde kernel 'uniform', config kernel 'gaussian'"),
        ],
    )
    def test_inconsistent_model_rejected(self, separated_two_class, tmp_path, corrupt, match):
        path = tmp_path / "model.json"
        save_model(fit_xnb(separated_two_class), path)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    def test_gnb_priors_must_name_every_class(self, separated_two_class, tmp_path):
        path = tmp_path / "gnb.json"
        save_model(fit_gnb(separated_two_class), path)
        payload = json.loads(path.read_text())
        payload["priors"] = {"A": 1.0}
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="priors"):
            load_model(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="not an object"):
            load_model(path)


def _replace(fitted, **changes):
    """A build that copies the ``fitted`` method's model with ``changes``."""
    return lambda d, fits: dataclasses.replace(fits[fitted], **changes)


def _reordered_feature_map(d, fits):
    model = fits["xnb"]
    return dataclasses.replace(model, features=ClassFeatureMap(("B", "A"), model.features.features))


_KERNEL_LIST = "gaussian, uniform, epanechnikov, biweight, triweight"
_RULE_LIST = "scott, silverman, silverman_adaptive"

# (id, build, error, message): each build raises at construction; the parent built
# each one, and save_model wrote a file that load_model refused, or that loaded as another
CONSTRUCTOR_HOLES = [
    ("config kernel spelling", lambda d, fits: XnbConfig(kernel=" GAUSSIAN "), ValueError,
     f"unknown kernel ' GAUSSIAN '; expected one of {_KERNEL_LIST}"),
    ("config rule spelling", lambda d, fits: XnbConfig(bandwidth_rule="Silverman-Adaptive"), ValueError,
     f"unknown bandwidth rule 'Silverman-Adaptive'; expected one of {_RULE_LIST}"),
    ("config rule CLI token", lambda d, fits: XnbConfig(bandwidth_rule="silverman-adaptive"), ValueError,
     f"unknown bandwidth rule 'silverman-adaptive'; expected one of {_RULE_LIST}"),
    ("PackedKde kernel spelling", lambda d, fits: PackedKde([[0.0]], [1.0], "Gaussian"), ValueError,
     f"unknown kernel 'Gaussian'; expected one of {_KERNEL_LIST}"),
    ("kernel_eval spelling", lambda d, fits: kernel_eval("GAUSSIAN", 0.0), ValueError,
     f"unknown kernel 'GAUSSIAN'; expected one of {_KERNEL_LIST}"),
    ("column_bandwidths CLI token", lambda d, fits: column_bandwidths("silverman-adaptive", d.values, 1.0),
     ValueError, f"unknown bandwidth rule 'silverman-adaptive'; expected one of {_RULE_LIST}"),
    ("xnb as fnb", _replace("xnb", method="fnb"), ValueError,
     "features of class 'A' must list every variable, in order, in an fnb model"),
    ("xnb as gnb", _replace("xnb", method="gnb"), ValueError, "a KDE model's method must be xnb or fnb, got 'gnb'"),
    ("xnb as bogus", _replace("xnb", method="bogus"), ValueError,
     "a KDE model's method must be xnb or fnb, got 'bogus'"),
    ("feature map classes", _reordered_feature_map, ValueError,
     "feature map classes ('B', 'A'), model classes ('A', 'B')"),
    ("mu 50.0", lambda d, fits: XnbConfig(mu=50.0), ValueError, "mu must be an integer, got 50.0"),
    ("mu int64", lambda d, fits: XnbConfig(mu=np.int64(50)), ValueError, f"mu must be an integer, got {np.int64(50)!r}"),
    ("theta string", lambda d, fits: XnbConfig(theta="0.999"), ValueError, "theta must be a number, got '0.999'"),
    ("dataset variable ints", lambda d, fits: Dataset((1, 2, 3, 4), np.zeros((2, 4)), ("A", "B")), DataError,
     "variable names must be strings, got 1"),
    ("xnb variable ints", _replace("fnb", variable_names=tuple(range(21))), ValueError,
     "variable names must be strings, got 0"),
    ("gnb variable ints", _replace("gnb", variable_names=tuple(range(21))), ValueError,
     "variable names must be strings, got 0"),
    ("gnb class ints", _replace("gnb", classes=(0, 1), priors={0: 0.5, 1: 0.5}), ValueError,
     "class names must be strings, got 0"),
    ("prior string", _replace("gnb", priors={"A": "0.5", "B": 0.5}), ValueError,
     "prior of class 'A' must be a number, got '0.5'"),
    ("smoothing nan", _replace("gnb", smoothing=math.nan), ValueError, "smoothing must be positive and finite, got nan"),
    ("smoothing -1", _replace("gnb", smoothing=-1), ValueError, "smoothing must be positive and finite, got -1"),
    ("smoothing 0", _replace("gnb", smoothing=0.0), ValueError, "smoothing must be positive and finite, got 0.0"),
    ("smoothing string", _replace("gnb", smoothing="1e-09"), ValueError, "smoothing must be a number, got '1e-09'"),
]


class TestConstructorRules:
    """The constructors are the one rulebook: what they build, save_model writes and load_model reads."""

    @pytest.mark.parametrize(
        "build, error, message", [case[1:] for case in CONSTRUCTOR_HOLES], ids=[case[0] for case in CONSTRUCTOR_HOLES]
    )
    def test_rejected_at_construction(self, separated_two_class, build, error, message):
        d = separated_two_class
        fits = {method: fit(d) for method, fit in FITS.items()}
        with pytest.raises(error) as info:
            build(d, fits)
        assert str(info.value) == message


class TestFitMemory:
    """Each fit holds its model or bank, one class block and byte-bounded steps, at n = 100, m = 20 000.

    The data is made before tracing, so it is not in the peaks.
    """

    @pytest.fixture(scope="class")
    def wide(self):
        for fit in FITS.values():  # numpy's lazy imports, outside the traced calls
            fit(make_separated(n=12, m=6, k=3)[0])
        return wide_dataset()

    @pytest.mark.parametrize("method", ["fnb", "xnb"])
    def test_kde_fit_holds_the_bank_and_one_class_block(self, wide, method):
        # the bank (16 MB) plus one class's gathered rows (5.4 MB) and 2 MiB for
        # its finiteness mask and the bandwidth steps; gathering every class
        # before packing held a second bank: 35.7 MB
        bound = wide.values.nbytes + class_block_bytes(wide) + 2 * 2**20
        _, peak = traced_peak(lambda: FITS[method](wide))
        assert peak < bound

    def test_gnb_fit_holds_its_moments_and_steps(self, wide):
        # the moments, the model's copy of them, four 512 KiB steps and the
        # name checks: 7.2 MB; a scaled copy of the data and np.var's centred
        # copy of it took 38.6 MB
        k = len(wide.classes)
        bound = 4 * k * wide.m * 8 + 4 * kde_module._STEP_BYTES + NAME_BYTES * wide.m
        _, peak = traced_peak(lambda: fit_gnb(wide))
        assert peak < bound

    @pytest.mark.filterwarnings("ignore:classes with a single sample")
    @pytest.mark.parametrize("rule", BANDWIDTH_RULES)
    def test_column_blocks_give_the_moments_and_bandwidths_of_the_whole_matrix(self, monkeypatch, rule):
        # blocks of 2 and 3 columns against one block: each column is reduced as
        # the whole matrix reduces it, including classes of 1, 2 and more than 8 rows
        rng = np.random.default_rng(4)
        values = rng.normal(size=(40, 7)) * np.array([1.0, 1e150, 1e-150, 3.0, 1.0, 1.0, 1e-300])
        values[:, 3] = 3.0
        labels = ("A",) * 20 + ("B",) * 17 + ("C",) * 2 + ("D",)
        d = Dataset(tuple("abcdefg"), values, labels)
        config = XnbConfig(bandwidth_rule=rule)
        whole_gnb, whole_fnb = fit_gnb(d), fit_fnb(d, config)
        monkeypatch.setattr(kde_module, "_STEP_BYTES", 1)
        assert kde_module.column_blocks(d.n, d.m) == [(0, 2), (2, 4), (4, 7)]
        gnb, fnb = fit_gnb(d), fit_fnb(d, config)
        np.testing.assert_array_equal(gnb.means, whole_gnb.means)
        np.testing.assert_array_equal(gnb.variances, whole_gnb.variances)
        for c in d.classes:
            np.testing.assert_array_equal(fnb.kde_bank[c].h, whole_fnb.kde_bank[c].h)
            np.testing.assert_array_equal(fnb.kde_bank[c].samples, whole_fnb.kde_bank[c].samples)
