import dataclasses
import json
import warnings

import numpy as np
import pytest

from xnb.classifier import XnbConfig
from xnb.dataset import Dataset
from xnb.evaluation import accuracy, emit_report, evaluate_cv
from xnb.kde import _STEP_BYTES
from tests.conftest import NAME_BYTES, class_block_bytes, traced_peak, wide_dataset


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["A", "B"], ["A", "B"]) == 1.0

    def test_none_correct(self):
        assert accuracy(["A", "B"], ["B", "A"]) == 0.0

    def test_three_of_four(self):
        assert accuracy(["A", "A", "B", "B"], ["A", "A", "B", "A"]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy(["A"], ["A", "B"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


def small_dataset(seed=0, n_per=20, m=6):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(2 * n_per, m))
    values[:n_per, 0] += 6.0
    values[n_per:, 1] += 6.0
    labels = ("A",) * n_per + ("B",) * n_per
    return Dataset(tuple(f"v{i}" for i in range(m)), values, labels)


class TestEvaluateCv:
    def test_near_perfect_on_separable(self):
        report = evaluate_cv(small_dataset(), methods=("gnb", "xnb"), k=5, seed=0)
        assert report.mean_accuracy["xnb"] >= 0.9
        assert report.mean_accuracy["gnb"] >= 0.9
        assert all(0.0 <= a <= 1.0 for accs in report.fold_accuracies.values() for a in accs)

    def test_mean_is_arithmetic_mean(self):
        report = evaluate_cv(small_dataset(1), methods=("xnb",), k=4, seed=2)
        for m in report.methods:
            assert report.mean_accuracy[m] == pytest.approx(
                float(np.mean(report.fold_accuracies[m]))
            )

    def test_xnb_counts_tracked_per_fold(self):
        report = evaluate_cv(small_dataset(2), methods=("xnb",), k=4, seed=1)
        assert len(report.xnb_fold_class_counts) == 4
        assert len(report.xnb_fold_mean_counts) == 4
        assert report.xnb_mean_selected == pytest.approx(
            float(np.mean(report.xnb_fold_mean_counts))
        )
        for counts in report.xnb_fold_class_counts:
            assert set(counts) == {"A", "B"}
        for c in ("A", "B"):
            assert report.xnb_mean_class_counts[c] == pytest.approx(
                float(np.mean([counts[c] for counts in report.xnb_fold_class_counts]))
            )

    def test_gnb_only_run_has_no_selection_fields(self):
        report = evaluate_cv(small_dataset(3), methods=("gnb",), k=3, seed=0)
        assert report.xnb_fold_class_counts is None
        assert report.xnb_mean_selected is None

    def test_deterministic_given_seed(self):
        d = small_dataset(4)
        a = evaluate_cv(d, methods=("gnb", "xnb"), k=4, seed=7).to_dict()
        b = evaluate_cv(d, methods=("gnb", "xnb"), k=4, seed=7).to_dict()
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_seed_recorded_and_drives_folds(self):
        from xnb.dataset import stratified_kfold

        d = small_dataset(5)
        report = evaluate_cv(d, methods=("gnb",), k=4, seed=99)
        assert report.seed == 99
        assert not np.array_equal(
            stratified_kfold(d, 4, seed=0),
            stratified_kfold(d, 4, seed=99),
        )

    def test_fit_errors_carry_fold_index(self):
        from xnb.errors import DataError

        # one singleton class: the fold holding its only sample trains on a
        # single class, which the fit rejects
        rng = np.random.default_rng(14)
        values = rng.normal(size=(9, 3))
        d = Dataset(("x", "y", "z"), values, ("A",) * 8 + ("B",))
        with pytest.warns(UserWarning):
            with pytest.raises(DataError, match=r"fold \d"):
                evaluate_cv(d, methods=("xnb",), k=3, seed=0)

    def test_predict_errors_carry_fold_index(self):
        from xnb.dataset import stratified_kfold
        from xnb.errors import DataError

        # one A sample of 9e153: a fold that trains on it fits, but the fold
        # that holds it out scores it 9e153 away from A's mean, which no
        # float64 gnb log score reaches
        values = np.tile([0.0, 1.0], 10)[:, None]
        values[0, 0] = 9e153
        d = Dataset(("x",), values, ("A",) * 10 + ("B",) * 10)
        fold = int(stratified_kfold(d, 5, seed=0)[0])
        with pytest.raises(DataError) as info:
            evaluate_cv(d, methods=("gnb",), k=5, seed=0)
        assert str(info.value) == f"fold {fold}: class 'A', variable 'x': the gnb log score is not finite"

    def test_warns_when_k_exceeds_class_size(self):
        # k equal to the smallest class still puts that class in every fold
        d = small_dataset(6, n_per=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_cv(d, methods=("gnb",), k=4, seed=0)
        with pytest.warns(UserWarning, match="k=5 exceeds the smallest class size 4"):
            evaluate_cv(d, methods=("gnb",), k=5, seed=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            evaluate_cv(small_dataset(7), methods=("xgb",), k=2)

    @pytest.mark.parametrize(
        "methods, problem",
        [((), "no methods"), (("xnb", "xnb"), "repeated methods: xnb"), (("gnb", "xnb", "gnb"), "repeated methods: gnb")],
    )
    def test_empty_or_repeated_methods_rejected(self, methods, problem):
        with pytest.raises(ValueError, match=f"^{problem}; expected one or more of gnb, fnb, xnb, each once$"):
            evaluate_cv(small_dataset(7), methods=methods, k=2)

    def test_timings_cover_fit_stages(self):
        report = evaluate_cv(small_dataset(8), methods=("xnb",), k=3, seed=0)
        assert set(report.timings) == {"bandwidth", "kde", "hellinger", "select", "build"}
        assert all(t >= 0.0 for t in report.timings.values())

    def test_fnb_counts_its_bank_once(self):
        # the fnb bank is timed under kde only; build is xnb's restriction
        report = evaluate_cv(small_dataset(8), methods=("fnb",), k=3, seed=0)
        assert report.timings["kde"] > 0.0
        assert report.timings["build"] == 0.0

    def test_selected_count_never_exceeds_m(self):
        report = evaluate_cv(small_dataset(9, m=5), methods=("xnb",), k=4, seed=0)
        for counts in report.xnb_fold_class_counts:
            assert all(c <= 5 for c in counts.values())

    def test_unreachable_threshold_selects_all_variables(self):
        # constant matrix: identical class distributions, H = 0 for every pair
        m = 5
        d = Dataset(
            tuple(f"v{i}" for i in range(m)),
            np.zeros((24, m)),
            ("A", "B") * 12,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-sum density fallbacks
            report = evaluate_cv(d, methods=("xnb",), k=3, seed=0)
        for counts in report.xnb_fold_class_counts:
            assert counts == {"A": m, "B": m}
        assert report.xnb_mean_selected == m


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = evaluate_cv(small_dataset(10), methods=("gnb", "xnb"), k=3, seed=1)
        path = tmp_path / "report.json"
        emit_report(report, format="json", path=path)
        assert json.loads(path.read_text()) == report.to_dict()

    def test_tsv_one_row_per_method(self, tmp_path):
        report = evaluate_cv(small_dataset(11), methods=("gnb", "fnb", "xnb"), k=3, seed=1)
        path = tmp_path / "report.tsv"
        emit_report(report, format="tsv", path=path, m_variables=6)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "method\tmean_accuracy\tmean_selected"
        assert len(lines) == 4
        methods = [line.split("\t")[0] for line in lines[1:]]
        assert methods == ["gnb", "fnb", "xnb"]
        # baselines use every variable; xnb reports its mean selected count
        assert lines[1].split("\t")[2] == "6"
        assert float(lines[3].split("\t")[2]) <= 6.0

    def test_stdout_default(self, capsys):
        report = evaluate_cv(small_dataset(12), methods=("gnb",), k=2, seed=0)
        emit_report(report, format="tsv", m_variables=6)
        out = capsys.readouterr().out
        assert out.startswith("method\t")

    def test_nan_is_never_written(self, tmp_path):
        report = evaluate_cv(small_dataset(14), methods=("gnb",), k=2, seed=0)
        broken = dataclasses.replace(report, fold_accuracies={"gnb": (float("nan"), 1.0)})
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            emit_report(broken, format="json", path=path)
        assert not path.exists()

    def test_unknown_format(self):
        report = evaluate_cv(small_dataset(13), methods=("gnb",), k=2, seed=0)
        with pytest.raises(ValueError, match="format"):
            emit_report(report, format="xml")


class TestEvaluateMemory:
    @pytest.mark.parametrize("methods", [("gnb",), ("gnb", "xnb")])
    def test_a_fold_holds_its_training_subset_and_one_fit(self, methods):
        # two folds of n = 100, m = 20 000: each training subset (50 rows, 8 MB)
        # and its fit, one at a time. For xnb that is its bank and one class
        # block plus 2 MiB (as for fit_xnb); for gnb its moments and steps (as for
        # fit_gnb). Two copies per subset, gnb's scaled and centred copies of the
        # data, and the previous fold's subset took 29.2-29.4 MB
        d = wide_dataset()
        evaluate_cv(Dataset(("a", "b"), np.arange(24.0).reshape(12, 2) % 7, "ABC" * 4), methods=methods, k=2)  # lazy imports
        train = d.subset(np.arange(50))
        if "xnb" in methods:
            fit = train.values.nbytes + class_block_bytes(train) + 2 * 2**20
        else:
            fit = 4 * len(d.classes) * d.m * 8 + 4 * _STEP_BYTES
        bound = train.values.nbytes + fit + NAME_BYTES * d.m
        del train
        report, peak = traced_peak(lambda: evaluate_cv(d, methods=methods, k=2))
        assert report.k == 2
        assert peak < bound
