import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xnb.classifier import (
    FIT_STAGES,
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
from xnb.hellinger import MAX_MU
from xnb.dataset import Dataset, class_priors
from xnb.errors import DataError, ModelFormatError
from xnb.evaluation import accuracy
from xnb.kde import KERNELS, PackedKde
from xnb.selection import ClassFeatureMap
from tests.conftest import MALFORMED_ARRAYS, corrupt_node, edit_array, empty_union_model, make_separated
from tests.oracles import KdeModel, bandwidth, kde_density_at, v1_payload, v2_payload

FITS = {"xnb": fit_xnb, "fnb": fit_fnb, "gnb": fit_gnb}


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
        d = Dataset(("x",), np.zeros((3, 1)), ("A", "A", "A"))
        with pytest.raises(DataError, match="at least 2 classes"):
            fit_xnb(d)

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
        floor = model.config.floor
        for c in model.classes:
            expected = np.log(model.priors[c]) + model.features.count(c) * np.log(floor)
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
                             model.config.floor))
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

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["xnb", "fnb", "gnb"]))
    @settings(max_examples=15, deadline=None)
    def test_v2_and_v3_files_load_the_same_model(self, tmp_path_factory, seed, method):
        d, _ = make_separated(n=30, m=12, k=3, seed=seed % 1000)
        model = FITS[method](d)
        tmp = tmp_path_factory.mktemp("v2v3")
        (tmp / "v2.json").write_text(json.dumps(v2_payload(model)))
        save_model(model, tmp / "v3.json")
        v2, v3 = load_model(tmp / "v2.json"), load_model(tmp / "v3.json")
        if method == "gnb":
            arrays = [(m.means, m.variances) for m in (model, v2, v3)]
        else:
            arrays = [
                tuple(a for c in model.classes for a in (m.kde_bank[c].samples, m.kde_bank[c].h))
                for m in (model, v2, v3)
            ]
        for fitted, old, new in zip(*arrays):
            assert np.array_equal(old, fitted) and np.array_equal(new, fitted)
        for sample in np.random.default_rng(seed).normal(0.0, 3.0, size=(10, d.m)):
            a, b, c = predict(model, sample), predict(v2, sample), predict(v3, sample)
            assert (a.label, a.log_scores) == (b.label, b.log_scores) == (c.label, c.log_scores)

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
        with pytest.raises(ModelFormatError, match=f"malformed model file \\(ValueError: .*{match}"):
            load_model(model_path)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["xnb", "fnb"]))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_scores_bit_identical(self, tmp_path_factory, seed, method):
        d, _ = make_separated(n=30, m=12, k=3, seed=seed % 1000)
        model = fit_xnb(d) if method == "xnb" else fit_fnb(d)
        path = tmp_path_factory.mktemp("rt") / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        samples = np.random.default_rng(seed).normal(0.0, 3.0, size=(10, d.m))
        for sample in samples:
            a, b = predict(model, sample), predict(loaded, sample)
            assert (a.label, a.log_scores) == (b.label, b.log_scores)

    def test_v1_file_rejected(self, separated_two_class, tmp_path):
        # no writer has produced version 1 since version 2
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1_payload(fit_xnb(separated_two_class))))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: schema version 1, expected 3 (or 2)"

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda p: p["features"].update(A=["g1", "nope"]), "not in the model"),
            (lambda p: corrupt_node(p, ("kde", "A", "h"), lambda n: edit_array(n, lambda h: np.ones(2))), "bandwidths"),
            (
                lambda p: corrupt_node(p, ("kde", "A", "samples"), lambda n: edit_array(n, lambda a: a[:, :0])),
                "malformed",
            ),
            (lambda p: p["kde"].pop("B"), "kde bank"),
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
