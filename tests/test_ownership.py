"""The one ownership rule: a record keeps read-only copies of what it checked, and no caller can change them."""

import numpy as np
import pytest

from xnb.classifier import (
    FIT_STAGES,
    GnbModel,
    XnbConfig,
    XnbModel,
    fit_fnb,
    fit_gnb,
    fit_xnb,
    load_model,
    predict,
    save_model,
)
from xnb.dataset import Dataset, class_priors
from xnb.evaluation import evaluate_cv
from xnb.hellinger import hellinger_table
from xnb.kde import PackedKde
from xnb.selection import ClassFeatureMap, SelectionStep, select_class_specific
from tests.conftest import mutable_parts


def _reloaded(model, tmp_path):
    save_model(model, tmp_path / "model.json")
    return load_model(tmp_path / "model.json")


def _used_table(d):
    table = hellinger_table(d, fit_fnb(d).kde_bank)
    table.pair_column(*d.classes[:2])
    return table


# each record that a caller can hold, made from a three-class dataset and then used once
RECORDS = {
    "dataset": lambda d, tmp: d,
    "subset": lambda d, tmp: d.subset(np.arange(0, d.n, 2)),
    "table": lambda d, tmp: _used_table(d),
    "feature map": lambda d, tmp: select_class_specific(_used_table(d)),
    "xnb": lambda d, tmp: fit_xnb(d),
    "fnb": lambda d, tmp: fit_fnb(d),
    "gnb": lambda d, tmp: fit_gnb(d),
    "loaded xnb": lambda d, tmp: _reloaded(fit_xnb(d), tmp),
    "loaded fnb": lambda d, tmp: _reloaded(fit_fnb(d), tmp),
    "loaded gnb": lambda d, tmp: _reloaded(fit_gnb(d), tmp),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_no_record_exposes_a_writeable_array_or_a_mutable_mapping(separated_three_class, tmp_path, kind):
    d, _ = separated_three_class
    record = RECORDS[kind](d, tmp_path)
    if isinstance(record, (XnbModel, GnbModel)):
        predict(record, d.values[0])
    assert mutable_parts(record) == []


def _two_class() -> Dataset:
    """Four rows, two classes: a sample at 0.5 is class A's."""
    return Dataset(("x",), [[0.0], [1.0], [2.0], [3.0]], ("A", "A", "B", "B"))


def test_a_model_prior_cannot_be_set():
    # a writeable priors dict let m.priors["A"] = 1e-300 flip this label to B unchecked
    model = fit_gnb(_two_class())
    with pytest.raises(TypeError):
        model.priors["A"] = 1e-300
    assert predict(model, [0.5]).label == "A"


def test_class_rows_cannot_be_replaced_or_written():
    # a writeable class_rows dict let class_priors return {'A': 1.0, 'B': 0.5}
    d = _two_class()
    with pytest.raises(TypeError):
        d.class_rows["A"] = np.arange(4)
    with pytest.raises(ValueError):
        d.class_rows["A"][0] = 3
    assert class_priors(d) == {"A": 0.5, "B": 0.5}


def test_the_callers_dicts_do_not_reach_the_record():
    priors = {"A": 0.25, "B": 0.75}
    features = {"A": ("x",), "B": ("x", "y")}
    steps = {"A": (SelectionStep("x", "B", 0.9, 0.9),), "B": ()}
    exhausted = {"A": False, "B": True}
    bank = {"A": PackedKde(np.zeros((2, 1)), [1.0]), "B": PackedKde(np.zeros((2, 2)), [1.0, 1.0])}
    fmap = ClassFeatureMap(("A", "B"), features, steps, exhausted)
    model = XnbModel(("A", "B"), priors, fmap, bank, XnbConfig(), ("x", "y"))
    gnb = GnbModel(("A", "B"), priors, ("x",), np.zeros((2, 1)), np.ones((2, 1)), 1e-9)
    priors["A"], priors["B"] = 0.75, 0.25
    features["A"] = ("y",)
    steps["A"] = ()
    exhausted["A"] = True
    bank["A"] = bank["B"]
    assert model.priors == gnb.priors == {"A": 0.25, "B": 0.75}
    assert fmap.features == {"A": ("x",), "B": ("x", "y")}
    assert fmap.steps == {"A": (SelectionStep("x", "B", 0.9, 0.9),), "B": ()}
    assert fmap.exhausted == {"A": False, "B": True}
    assert model.kde_bank["A"].width == 1
    assert model.feature_columns["A"].tolist() == [0]


def test_timings_are_plain_dicts_of_the_fit_stages(separated_two_class):
    # the benchmark records a result's timings only when they are a dict: a
    # read-only view here would blank its per-stage kde, hellinger and fit-share metrics
    d = separated_two_class
    for result in (fit_fnb(d), fit_xnb(d), evaluate_cv(d, methods=("xnb",), k=2)):
        assert type(result.timings) is dict
        assert tuple(result.timings) == FIT_STAGES
