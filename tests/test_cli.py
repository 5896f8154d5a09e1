import argparse
import contextlib
import csv
import gc
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xnb
from xnb.classifier import METHODS, XnbConfig, fit_fnb, fit_gnb, fit_xnb, load_model, predict, save_model
from xnb.cli import build_parser, main
from xnb.dataset import Dataset, save_csv
from xnb.hellinger import MAX_MU, hellinger_table
from xnb.kde import BANDWIDTH_RULES, KERNELS
from xnb.selection import SelectionConfig, select_class_specific
from tests.conftest import (
    MALFORMED_ARRAYS,
    corrupt_node,
    edit_array,
    empty_union_model,
    make_separated,
    traced_peak,
    wide_dataset,
)
from tests.oracles import table_value, v1_payload


@pytest.fixture
def data_csv(tmp_path):
    d, _ = make_separated(n=60, m=8, k=2, seed=3)
    path = tmp_path / "train.csv"
    save_csv(d, path)
    return path


@pytest.fixture
def samples_csv(tmp_path):
    d, _ = make_separated(n=10, m=8, k=2, seed=4)
    path = tmp_path / "samples.csv"
    lines = [",".join(d.variable_names)]
    for row in d.values:
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["evaluate", "--data", "x.csv", "--frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_fit_without_model_is_usage_error(self, data_csv):
        assert main(["fit", "--data", str(data_csv)]) == 1

    def test_predict_without_model_is_usage_error(self, samples_csv, capsys):
        assert main(["predict", "--data", str(samples_csv)]) == 1
        assert capsys.readouterr().err == "usage error: the following arguments are required: --model\n"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["evaluate", "--data", str(tmp_path / "absent.csv"), "--k", "2"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_single_class_data_error(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("g1,class\n1,A\n2,A\n3,A\n4,A\n")
        assert main(["fit", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 2

    def test_bad_class_column_index(self, data_csv):
        assert main(["evaluate", "--data", str(data_csv), "--class-col", "@x"]) == 1

    def test_class_column_index_out_of_range_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("g1,g2,class\n1,2,A\n3,4,B\n")
        assert main(["evaluate", "--data", str(path), "--class-col", "@7", "--k", "2"]) == 2
        assert capsys.readouterr().err == "data error: class column index 7 out of range for 3 columns\n"

    @pytest.mark.parametrize("verb", ["fit", "predict"])
    def test_header_only_csv_is_data_error(self, data_csv, tmp_path, capsys, verb):
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--model", str(model)]) == 0
        path = tmp_path / "header.csv"
        path.write_text(data_csv.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        out = tmp_path / ("refit.json" if verb == "fit" else "p.tsv")
        argv = ["--model", str(out)] if verb == "fit" else ["--model", str(model), "--out", str(out)]
        assert main([verb, "--data", str(path), *argv]) == 2
        assert capsys.readouterr().err == f"data error: {path}: no data rows\n"
        assert not out.exists()

    def test_header_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = tmp_path / "wide_name.csv"
        path.write_text("g" * (limit + 1) + ",class\n1,A\n2,B\n")
        assert main(["diagnose", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"data error: {path}: row 1: field larger than field limit ({limit})\n"

    # in the first block, on its second line or past 8 KiB, and in the second block, after a plain one
    @pytest.mark.parametrize("rows_before", [1, 5000, 20000])
    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys, rows_before):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"g1,class\n" + b"1,B\n" * rows_before + b"1,\xe9\n2,B\n")
        assert main(["diagnose", "--data", str(path)]) == 2
        line = rows_before + 2
        assert f"data error: {path}: line {line}, byte 3: not UTF-8 text (0xe9:" in capsys.readouterr().err

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        rows = "".join(f"{label},{value}\n" for label, value in zip("AABBAABB", range(8)))
        path.write_text("\ufeffclass,g1\n" + rows, encoding="utf-8")
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(path), "--model", str(model)]) == 0
        assert load_model(model).variable_names == ("g1",)

    @pytest.mark.parametrize(
        "verb, data_is_dir, kind",
        [("fit", True, "data error"), ("predict", True, "data error"), ("predict", False, "error")],
        ids=["fit-data", "predict-data", "predict-model"],
    )
    def test_directory_as_input_is_data_error(self, data_csv, tmp_path, capsys, verb, data_is_dir, kind):
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--model", str(model)]) == 0
        data, model = (tmp_path, model) if data_is_dir else (data_csv, tmp_path)
        capsys.readouterr()
        assert main([verb, "--data", str(data), "--model", str(model)]) == 2
        assert capsys.readouterr().err == f"{kind}: {tmp_path}: cannot read (Is a directory)\n"

    def test_unwritable_model_is_data_error(self, data_csv, tmp_path, capsys):
        model = tmp_path / "absent" / "m.json"
        assert main(["fit", "--data", str(data_csv), "--model", str(model)]) == 2
        assert f"data error: {model}: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, flags",
        [(["select"], []), (["evaluate"], ["--k", "2"]), (["inspect", "hellinger"], [])],
    )
    def test_unwritable_out_is_data_error(self, data_csv, tmp_path, capsys, verb, flags):
        out = tmp_path / "absent" / "out.json"
        assert main([*verb, "--data", str(data_csv), "--out", str(out), *flags]) == 2
        assert f"data error: {out}: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, flags",
        [
            (["fit"], ["--model", "m.json"]),
            (["select"], []),
            (["evaluate"], ["--k", "2"]),
            (["inspect", "hellinger"], []),
            (["diagnose"], []),
        ],
    )
    def test_column_range_beyond_the_largest_float_is_data_error(self, tmp_path, capsys, verb, flags):
        path = tmp_path / "wide.csv"
        rows = "".join(f"{g1},{g2},{label}\n" for g1, g2, label in zip([1e308, -1e308, 0, 1] * 2, range(8), "AABB" * 2))
        path.write_text("g1,g2,class\n" + rows)
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        assert main([*verb, "--data", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert "data error: variable 'g1': values from -1e+308 to 1e+308 span more than the largest float" in captured.err
        assert "RuntimeWarning" not in captured.err and captured.out == ""
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "verb, flags, code",
        [
            ("evaluate", ["--k", "1"], 1),
            ("evaluate", ["--k", "0"], 1),
            ("evaluate", ["--k", "61"], 2),  # more folds than the 60 samples
            ("evaluate", ["--seed", "-1"], 1),
            ("evaluate", ["--jobs", "0"], 1),
            ("diagnose", ["--seed", "-1"], 1),
            ("diagnose", ["--max-pairs", "-1"], 1),
            ("diagnose", ["--max-pairs", "0"], 1),
            ("diagnose", ["--alpha", "2"], 1),
            ("diagnose", ["--alpha", "0"], 1),
            ("diagnose", ["--alpha", "1"], 1),
            ("diagnose", ["--alpha", "nan"], 1),
            ("diagnose", ["--p-max", "-0.1"], 1),
            ("diagnose", ["--p-max", "1"], 1),
            ("diagnose", ["--r-min", "-0.1"], 1),
            ("diagnose", ["--r-min", "1"], 1),
            ("fit", ["--jobs", "0"], 1),
            ("fit", ["--jobs", "-3"], 1),
            ("fit", ["--mu", "1"], 1),
            ("select", ["--jobs", "0"], 1),
            ("evaluate", ["--seed", "x"], 1),
            ("fit", ["--mu", "x"], 1),
            ("fit", ["--theta", "1.5"], 1),
            ("fit", ["--theta", "0"], 1),
            ("evaluate", ["--mu", "0"], 1),
            ("evaluate", ["--theta", "1"], 1),
            ("select", ["--theta", "nan"], 1),
            ("evaluate", ["--methods", ","], 1),
            ("evaluate", ["--methods", "gnb,xnb,gnb"], 1),
            ("evaluate", ["--methods", "gnb,svm"], 1),
            ("select", ["--class-col", "@x"], 1),
        ],
    )
    def test_out_of_domain_flag(self, data_csv, tmp_path, capsys, verb, flags, code):
        model = ["--model", str(tmp_path / "m.json")] if verb == "fit" else []
        args = [verb, "--data", str(data_csv), *model, *flags]
        assert main(args) == code
        err = capsys.readouterr().err
        if code == 1:
            assert "usage error" in err and flags[0] in err
        else:
            assert "--k 61" in err and "n=60" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags", [["--r-min", "0"], ["--alpha", "0.999"], ["--max-pairs", "1"]])
    def test_flag_domain_edges_accepted(self, data_csv, capsys, flags):
        assert main(["diagnose", "--data", str(data_csv), *flags]) == 0


# The flags each verb reads, and so accepts.
_PIPELINE = ("--data", "--class-col", "--kernel", "--bandwidth", "--mu", "--jobs")
_VERB_FLAGS = {
    ("fit",): {*_PIPELINE, "--theta", "--model", "--method"},
    ("predict",): {"--data", "--model", "--out", "--format"},
    ("evaluate",): {*_PIPELINE, "--theta", "--seed", "--out", "--methods", "--k", "--format"},
    ("select",): {*_PIPELINE, "--theta", "--out"},
    ("diagnose",): {"--data", "--class-col", "--seed", "--out", "--alpha", "--p-max", "--r-min", "--max-pairs"},
    ("inspect", "hellinger"): {*_PIPELINE, "--out"},
}
# the flags that more than one verb reads, apart from --data, which all do
_SHARED_FLAGS = ("--class-col", "--kernel", "--bandwidth", "--mu", "--theta", "--seed", "--jobs", "--model",
                "--out", "--format")
# a value each shared flag would accept on a verb that reads it
_SHARED_VALUES = {"--class-col": "class", "--kernel": "uniform", "--bandwidth": "scott", "--mu": "7",
                  "--theta": "0.5", "--seed": "1", "--jobs": "2", "--model": "m.json", "--out": "o.txt",
                  "--format": "tsv"}
_REMOVED_PAIRS = [(verb, flag) for verb, flags in _VERB_FLAGS.items() for flag in _SHARED_FLAGS if flag not in flags]


def _verb_parsers(parser, path=()):
    """Each verb's parser by its path of subcommand names."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _verb_parsers(sub, (*path, name))
            return
    yield path, parser


class TestFlagSurface:
    def test_each_verb_takes_exactly_the_flags_it_reads(self):
        surface = {
            path: {s for action in p._actions for s in action.option_strings if s not in ("-h", "--help")}
            for path, p in _verb_parsers(build_parser())
        }
        assert surface == _VERB_FLAGS
        assert sum(map(len, _VERB_FLAGS.values())) == 48
        assert len(_REMOVED_PAIRS) == 25

    @pytest.mark.parametrize("verb, flag", _REMOVED_PAIRS, ids=[f"{' '.join(v)} {f}" for v, f in _REMOVED_PAIRS])
    def test_flag_the_verb_does_not_read_is_usage_error(self, data_csv, tmp_path, capsys, verb, flag):
        model = ["--model", str(tmp_path / "m.json")] if "--model" in _VERB_FLAGS[verb] else []
        assert main([*verb, "--data", str(data_csv), *model, flag, _SHARED_VALUES[flag]]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: unrecognized arguments: {flag} {_SHARED_VALUES[flag]}\n"
        assert captured.out == "" and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["evaluate", "--method", "gnb"], ["evaluate", "--form", "tsv"], ["diagnose", "--alp", "0.1"], ["select", "--the", "0.5"]],
    )
    def test_abbreviated_flag_is_usage_error(self, data_csv, capsys, argv):
        verb, flag, value = argv
        assert main([verb, "--data", str(data_csv), flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("gnb", ["--kernel", "biweight", "--bandwidth", "scott", "--mu", "7", "--theta", "0.3", "--jobs", "2"]),
            ("fnb", ["--jobs", "2"]),
        ],
    )
    def test_flags_a_method_ignores_leave_its_model_file_unchanged(self, data_csv, tmp_path, capsys, method, flags):
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main(["fit", "--data", str(data_csv), "--model", str(plain), "--method", method]) == 0
        assert main(["fit", "--data", str(data_csv), "--model", str(flagged), "--method", method, *flags]) == 0
        assert plain.read_bytes() == flagged.read_bytes()

    @pytest.mark.parametrize("verb", [("fit",), ("evaluate",), ("select",), ("inspect", "hellinger")])
    def test_mu_above_its_bound_is_usage_error(self, tmp_path, capsys, verb):
        # rejected as the flag is parsed: the (absent) data file is never opened
        model = ["--model", str(tmp_path / "m.json")] if verb == ("fit",) else []
        argv = [*verb, "--data", str(tmp_path / "absent.csv"), *model, "--mu", str(MAX_MU + 1)]
        assert main(argv) == 1
        assert f"--mu: must be in [2, {MAX_MU}], got {MAX_MU + 1}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_mu_at_its_bound_is_accepted(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(["fit", "--data", str(data_csv), "--model", str(model_path), "--mu", str(MAX_MU)]) == 0
        assert load_model(model_path).config.mu == MAX_MU

    def test_kernel_and_bandwidth_choices_are_the_library_names(self):
        # the CLI's one other spelling: silverman-adaptive for the library's silverman_adaptive
        choices = {
            (path, s): action.choices
            for path, p in _verb_parsers(build_parser())
            for action in p._actions
            for s in action.option_strings
            if s in ("--kernel", "--bandwidth")
        }
        assert len(choices) == 8  # fit, evaluate, select and inspect hellinger take both
        for (_, flag), names in choices.items():
            if flag == "--kernel":
                assert tuple(names) == KERNELS
            else:
                assert tuple(name.replace("-", "_") for name in names) == BANDWIDTH_RULES

    def test_methods_rule_is_the_library_one(self, data_csv, capsys):
        assert main(["evaluate", "--data", str(data_csv), "--methods", "xnb,gnb,xnb"]) == 1
        assert "repeated methods: xnb; expected one or more of gnb, fnb, xnb, each once" in capsys.readouterr().err


class TestFitPredict:
    def test_fit_then_predict_tsv(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--model", str(model_path)]) == 0
        assert model_path.exists()
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(samples_csv)]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "label\tscore_c0\tscore_c1"
        assert len(out) == 11
        for line in out[1:]:
            fields = line.split("\t")
            assert fields[0] in {"c0", "c1"}
            float(fields[1]), float(fields[2])

    def test_predict_json(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(model_path),
                    "--data",
                    str(samples_csv),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 10
        assert set(payload[0]) == {"label", "log_scores"}

    def test_fit_gnb_and_fnb(self, data_csv, samples_csv, tmp_path, capsys):
        for method in ("gnb", "fnb"):
            model_path = tmp_path / f"{method}.json"
            assert (
                main(["fit", "--data", str(data_csv), "--method", method, "--model", str(model_path)])
                == 0
            )
            capsys.readouterr()
            assert main(["predict", "--model", str(model_path), "--data", str(samples_csv)]) == 0
            assert len(capsys.readouterr().out.strip().split("\n")) == 11

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_gnb_sample_too_far_for_a_finite_score_is_located_data_error(self, tmp_path, capsys, fmt):
        # a held-out cell of 1e200 overflows its squared offset from every class mean
        train, held, model = tmp_path / "train.csv", tmp_path / "held.csv", tmp_path / "gnb.json"
        train.write_text("v,class\n0,A\n1,A\n0,B\n1,B\n")
        held.write_text("v\n0.5\n1e200\n")
        assert main(["fit", "--method", "gnb", "--data", str(train), "--model", str(model)]) == 0
        capsys.readouterr()
        argv = ["predict", "--model", str(model), "--data", str(held), "--format", fmt]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow RuntimeWarning
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: {held}: data row 2: class 'A', variable 'v': the gnb log score is not finite\n"

    def test_gnb_variance_whose_2_pi_multiple_overflows_fails_at_fit(self, tmp_path, capsys):
        # class A's variance is finite, 2 pi times it is not: no sample could get a finite score
        train, model = tmp_path / "train.csv", tmp_path / "gnb.json"
        train.write_text("v,class\n0,A\n1.5e154,A\n0,B\n1,B\n")
        assert main(["fit", "--method", "gnb", "--data", str(train), "--model", str(model)]) == 2
        assert capsys.readouterr().err == (
            "data error: variables 'v': 2 pi times the variance exceeds the largest float; gnb cannot score it\n"
        )
        assert not model.exists()

    def test_gnb_variance_whose_2_pi_multiple_overflows_fails_at_load(self, tmp_path, capsys):
        # a model file edited to hold such a variance is refused as the model is read, not row by row
        train, model, out = tmp_path / "train.csv", tmp_path / "gnb.json", tmp_path / "p.tsv"
        train.write_text("v,class\n0,A\n1,A\n0,B\n1,B\n")
        assert main(["fit", "--method", "gnb", "--data", str(train), "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        corrupt_node(payload, ("gnb", "variances"), lambda n: edit_array(n, lambda a: np.full_like(a, 1e308)))
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(train), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {model}: malformed model file (ValueError: variables 'v': 2 pi times the variance"
            " exceeds the largest float; gnb cannot score it)\n",
        )
        assert not out.exists()

    @pytest.mark.parametrize("method", ["gnb", "fnb", "xnb"])
    def test_a_bad_cell_after_scored_rows_leaves_no_output(self, data_csv, tmp_path, capsys, method):
        # rows are scored as they are parsed; the output is written only after the last one
        model, held, out = tmp_path / "m.json", tmp_path / "held.csv", tmp_path / "p.tsv"
        assert main(["fit", "--method", method, "--data", str(data_csv), "--model", str(model)]) == 0
        lines = data_csv.read_text().splitlines()
        header = lines[0].split(",")[:-1]
        rows = [line.split(",")[:-1] for line in lines[1:5]]
        rows[-1][0] = "x"
        held.write_text("\n".join(",".join(cells) for cells in [header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(held), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {held}: row 5, column {header[0]!r}: cannot parse 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1e1.5", "1e.5", "1e1."])
    def test_a_dot_after_the_exponent_in_the_last_cell_is_data_error(self, tmp_path, capsys, cell):
        # the last cell the block converter sees, for fit and for predict
        train, held, model = tmp_path / "train.csv", tmp_path / "held.csv", tmp_path / "m.json"
        train.write_text("g1,class\n1,A\n2,B\n3,A\n4,B\n")
        assert main(["fit", "--method", "gnb", "--data", str(train), "--model", str(model)]) == 0
        train.write_text(f"g1,class\n1,A\n{cell},B\n")
        held.write_text(f"g1\n1\n{cell}\n")
        for argv, data in [(["fit", "--data", str(train), "--model", str(tmp_path / "m2.json")], train),
                           (["predict", "--model", str(model), "--data", str(held)], held)]:
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"data error: {data}: row 3, column 'g1': cannot parse {cell!r}\n")

    def test_samples_missing_variable(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        bad = tmp_path / "bad.csv"
        bad.write_text("v00,v01\n1,2\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2

    @pytest.mark.parametrize("method", ["xnb", "fnb", "gnb"])
    def test_predict_json_equals_in_process_predict(self, data_csv, samples_csv, tmp_path, capsys, method):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path), "--method", method])
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(samples_csv),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        model = load_model(model_path)
        rows = np.loadtxt(samples_csv, delimiter=",", skiprows=1)
        for got, row in zip(payload, rows, strict=True):
            expected = predict(model, row)
            assert got == {"label": expected.label, "log_scores": expected.log_scores}

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_located_data_error(self, data_csv, samples_csv, tmp_path, capsys, cell):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        lines = samples_csv.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = cell
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "'v03'" in err

    def test_earliest_bad_sample_row_is_reported(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        lines = samples_csv.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        rows[1][3], rows[3][3] = "nan", "x"  # v03, a scored column: NaN in row 2, text in row 4
        rows[4] = rows[4][:-1]  # a short row 5
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        assert capsys.readouterr().err == f"data error: {bad}: row 2, column 'v03': missing or non-finite value\n"

    def test_sample_field_over_the_csv_limit_is_data_error(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        rows = [line.split(",") for line in samples_csv.read_text().splitlines()]
        limit = csv.field_size_limit()
        rows[2][0] = "1" * (limit + 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: {bad}: row 3: field larger than field limit ({limit})\n"
        assert captured.out == ""

    def test_unparseable_sample_names_row_column_and_cell(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        lines = samples_csv.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = " x "  # v03: a column the model scores
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        assert "row 3, column 'v03': cannot parse 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["x", "nan", " not a number "])
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_unscored_column_is_not_parsed(self, data_csv, samples_csv, tmp_path, capsys, cell, fmt):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        assert 2 not in load_model(model_path).scored_columns  # no class scores v02
        lines = samples_csv.read_text().splitlines()
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            fields[2] = cell
            lines[i] = ",".join(fields)
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines) + "\n")
        outputs = []
        for data in (samples_csv, dirty):
            out = tmp_path / f"{data.stem}.{fmt}"
            assert main(["predict", "--model", str(model_path), "--data", str(data), "--format", fmt,
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_model_that_scores_no_column_parses_no_cell(self, tmp_path, capsys):
        model_path, data = tmp_path / "model.json", tmp_path / "samples.csv"
        save_model(empty_union_model(), model_path)
        data.write_text("y,x\nnan,text\n,\n")
        assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 0
        assert capsys.readouterr().out == "label\tscore_A\tscore_B\n" + "B\t-1.386294\t-0.287682\n" * 2

    def test_header_missing_an_unscored_variable_is_data_error(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        assert 2 not in load_model(model_path).scored_columns
        rows = [line.split(",") for line in samples_csv.read_text().splitlines()]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(r[:2] + r[3:]) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        assert "missing model variables: v02" in capsys.readouterr().err

    def test_sample_row_longer_than_header_is_located_data_error(
        self, data_csv, samples_csv, tmp_path, capsys
    ):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        lines = samples_csv.read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join(fields[:3] + ["0.5"] + fields[3:])  # a field inserted mid-row
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        assert "row 3 has 9 fields, header has 8" in capsys.readouterr().err

    def test_repeated_sample_column_is_data_error(self, data_csv, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        lines = samples_csv.read_text().splitlines()
        lines = [lines[0] + ",v02"] + [line + ",0.0" for line in lines[1:]]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(bad)]) == 2
        assert "duplicate column name 'v02'" in capsys.readouterr().err

    def test_empty_class_label_is_located_data_error(self, data_csv, tmp_path, capsys):
        lines = data_csv.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ","
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit", "--data", str(bad), "--model", str(tmp_path / "m.json")]) == 2
        assert "row 5, column 'class': empty class label" in capsys.readouterr().err

    def test_non_object_model_is_data_error(self, samples_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[1,2]")
        assert main(["predict", "--model", str(model_path), "--data", str(samples_csv)]) == 2
        assert "not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["unknown feature", "kde mismatch", "kernel mismatch"])
    def test_inconsistent_model_is_data_error(self, data_csv, samples_csv, tmp_path, capsys, edit):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path)])
        payload = json.loads(model_path.read_text())
        if edit == "unknown feature":
            payload["features"]["c0"][0] = "absent"
        elif edit == "kernel mismatch":  # c0 scored with another kernel than the config names
            payload["kde"]["c0"]["kernel"] = "uniform"
        else:  # drop the density of c0's last selected variable
            entry = payload["kde"]["c0"]
            entry["h"] = edit_array(entry["h"], lambda h: h[:-1])
            entry["samples"] = edit_array(entry["samples"], lambda a: a[:, :-1])
        model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(samples_csv)]) == 2
        err = capsys.readouterr().err
        assert "c0" in err

    @pytest.mark.parametrize(
        "method, edit, message",
        [
            ("xnb", "priors", "priors must lie in (0, 1] and sum to 1"),
            ("xnb", "theta", "theta must lie in (0, 1), got 1.5"),
            ("xnb", "twice", "duplicate variables selected for class 'c0'"),
            ("xnb", "repeated variable", "duplicate variable names"),
            ("xnb", "repeated class", "duplicate class names"),
            ("gnb", "repeated variable", "duplicate variable names"),
            ("gnb", "repeated class", "duplicate class names"),
            ("xnb", "features string", "features of class 'c0' must be a list of names"),
            ("xnb", "prior string", "prior of class 'c0' must be a number, got '0.5'"),
            ("xnb", "prior boolean", "prior of class 'c0' must be a number, got True"),
            ("xnb", "theta string", "theta must be a number, got '0.999'"),
            ("xnb", "floor string", "config.floor must be 1e-12, got '1e-12'"),
            ("xnb", "floor 1e-6", "config.floor must be 1e-12, got 1e-06"),
            ("gnb", "smoothing string", "smoothing must be a number, got '1e-09'"),
            ("xnb", "mu fraction", "mu must be an integer, got 50.7"),
            ("xnb", "mu string", "mu must be an integer, got '50'"),
            ("xnb", "method gnbx", "method must be one of gnb, fnb, xnb, got 'gnbx'"),
            ("xnb", "method fnb", "features of class 'c0' must list every variable, in order, in an fnb model"),
            ("xnb", "extra features entry", "features must be a {c0, c1} object, unexpected 'zzz'"),
            ("xnb", "pair_order", "config.pair_order must be 'sorted-labels', got 'reverse'"),
            (
                "xnb",
                "no tie_break",
                "config must be a {kernel, bandwidth_rule, mu, theta, floor, pair_order, tie_break} object, "
                "missing 'tie_break'",
            ),
            (
                "xnb",
                "extra top-level key",
                "top level must be a {version, method, classes, priors, variables, config, features, kde} object, "
                "unexpected 'zzz'",
            ),
            ("xnb", "extra kde key", "kde['c0'] must be a {kernel, h, samples} object, unexpected 'zzz'"),
            ("xnb", "version 3.0", "schema version 3.0, expected 3"),  # equal to 3, but not what save_model writes
            (
                "xnb",
                "kernel spelling",
                "unknown kernel ' GAUSSIAN '; expected one of gaussian, uniform, epanechnikov, biweight, triweight",
            ),
            (
                "xnb",
                "class kernel spelling",
                "unknown kernel 'Gaussian'; expected one of gaussian, uniform, epanechnikov, biweight, triweight",
            ),
            (
                "xnb",
                "rule spelling",
                "unknown bandwidth rule 'Silverman-Adaptive'; expected one of scott, silverman, silverman_adaptive",
            ),
            ("gnb", "smoothing nan", "smoothing must be positive and finite, got nan"),
            ("gnb", "smoothing -1", "smoothing must be positive and finite, got -1"),
            ("gnb", "smoothing 0", "smoothing must be positive and finite, got 0"),
        ],
        ids=[
            "priors sum to 1.4", "theta 1.5", "variable listed twice", "xnb repeated variable",
            "xnb repeated class", "gnb repeated variable", "gnb repeated class", "features string",
            "prior string", "prior boolean", "theta string", "floor string", "floor 1e-6", "smoothing string",
            "mu fraction", "mu string", "method gnbx", "method fnb", "extra features entry",
            "pair_order reverse", "no tie_break", "extra top-level key", "extra kde key", "version 3.0",
            "kernel spelling", "class kernel spelling", "rule spelling", "smoothing nan", "smoothing -1",
            "smoothing 0",
        ],
    )
    def test_invalid_model_value_is_located_error(
        self, data_csv, samples_csv, tmp_path, capsys, method, edit, message
    ):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(data_csv), "--model", str(model_path), "--method", method])
        payload = json.loads(model_path.read_text())
        if edit == "priors":
            payload["priors"] = {"c0": 0.7, "c1": 0.7}
        elif edit == "theta":
            payload["config"]["theta"] = 1.5
        elif edit == "twice":
            payload["features"]["c0"].append(payload["features"]["c0"][0])
        elif edit == "repeated variable":
            payload["variables"][1] = payload["variables"][0]
        elif edit == "repeated class":  # names and priors still agree as sets
            payload["classes"].append(payload["classes"][0])
        elif edit == "features string":
            payload["features"]["c0"] = "".join(payload["features"]["c0"])
        elif edit in ("prior string", "prior boolean"):
            payload["priors"]["c0"] = "0.5" if edit == "prior string" else True
        elif edit == "smoothing string":
            payload["gnb"]["smoothing"] = "1e-09"
        elif edit == "mu fraction":
            payload["config"]["mu"] = 50.7
        elif edit == "mu string":
            payload["config"]["mu"] = "50"
        elif edit == "floor 1e-6":
            payload["config"]["floor"] = 1e-6
        elif edit.startswith("method"):
            payload["method"] = edit.split()[1]
        elif edit == "extra features entry":
            payload["features"]["zzz"] = [payload["variables"][0]]
        elif edit == "pair_order":
            payload["config"]["pair_order"] = "reverse"
        elif edit == "no tie_break":
            del payload["config"]["tie_break"]
        elif edit == "extra top-level key":
            payload["zzz"] = 1
        elif edit == "extra kde key":
            payload["kde"]["c0"]["zzz"] = 1
        elif edit == "version 3.0":
            payload["version"] = 3.0
        elif edit == "kernel spelling":  # every kernel name in the file, spelled another way
            payload["config"]["kernel"] = " GAUSSIAN "
            for entry in payload["kde"].values():
                entry["kernel"] = " GAUSSIAN "
        elif edit == "class kernel spelling":
            payload["kde"]["c0"]["kernel"] = "Gaussian"
        elif edit == "rule spelling":
            payload["config"]["bandwidth_rule"] = "Silverman-Adaptive"
        elif edit in ("smoothing nan", "smoothing -1", "smoothing 0"):  # json.dumps writes nan as NaN
            payload["gnb"]["smoothing"] = {"nan": math.nan, "-1": -1, "0": 0}[edit.split()[1]]
        else:  # "theta string", "floor string": a config number written as text
            name = edit.split()[0]
            payload["config"][name] = str(payload["config"][name])
        model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(samples_csv)]) == 2
        captured = capsys.readouterr()
        if not message.startswith("schema version"):  # the version is checked before the body
            message = f"malformed model file (ValueError: {message})"
        assert captured.err == f"error: {model_path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "method, path, replace, match",
        [case[1:] for case in MALFORMED_ARRAYS],
        ids=[case[0] for case in MALFORMED_ARRAYS],
    )
    def test_malformed_array_is_data_error(
        self, separated_two_class, tmp_path, capsys, method, path, replace, match
    ):
        d = separated_two_class
        data = tmp_path / "d.csv"
        save_csv(d, data)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--model", str(model_path), "--method", method]) == 0
        payload = json.loads(model_path.read_text())
        corrupt_node(payload, path, replace)
        model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert re.search(f"^error: {re.escape(str(model_path))}: malformed model file .*{match}", captured.err)
        assert captured.out == ""

    def test_v1_model_is_data_error(self, separated_two_class, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_csv(separated_two_class, data)
        model_path = tmp_path / "v1.json"
        model_path.write_text(json.dumps(v1_payload(fit_xnb(separated_two_class))))
        assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {model_path}: schema version 1, expected 3\n"
        assert captured.out == ""


class TestEvaluate:
    def test_json_report(self, data_csv, capsys):
        assert main(["evaluate", "--data", str(data_csv), "--k", "3", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 3
        assert payload["fold_generator"] == "pcg64"
        assert payload["methods"] == ["gnb", "xnb"]
        assert payload["n_variables"] == 8
        assert payload["k"] == 3
        assert payload["seed"] == 5
        assert set(payload["timings"]) == {"bandwidth", "kde", "hellinger", "select", "build"}

    def test_tsv_report(self, data_csv, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "--data",
                    str(data_csv),
                    "--k",
                    "2",
                    "--methods",
                    "gnb,fnb,xnb",
                    "--format",
                    "tsv",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_unknown_method_usage_error(self, data_csv):
        assert main(["evaluate", "--data", str(data_csv), "--methods", "svm"]) == 1

    def test_kernel_and_bandwidth_tokens(self, data_csv, capsys):
        args = [
            "evaluate", "--data", str(data_csv), "--k", "2",
            "--kernel", "epanechnikov", "--bandwidth", "silverman-adaptive",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["kernel"] == "epanechnikov"
        assert payload["config"]["bandwidth_rule"] == "silverman_adaptive"

    def test_unknown_kernel_token_is_usage_error(self, data_csv):
        assert main(["evaluate", "--data", str(data_csv), "--kernel", "box"]) == 1

    def test_deterministic_across_runs(self, data_csv, capsys):
        main(["evaluate", "--data", str(data_csv), "--k", "3", "--seed", "1"])
        first = json.loads(capsys.readouterr().out)
        main(["evaluate", "--data", str(data_csv), "--k", "3", "--seed", "1"])
        second = json.loads(capsys.readouterr().out)
        first.pop("timings")
        second.pop("timings")
        assert first == second

    def test_notices_are_log_records_on_stderr_once_per_fit(self, tmp_path):
        # class C's one row sits in one of the 3 folds, so the other 2 folds
        # fit it as a single-sample class; outside the suite, the WARNING
        # records reach stderr through logging's last-resort handler
        rng = np.random.default_rng(3)
        labels = ("A",) * 9 + ("B",) * 9 + ("C",)
        path = tmp_path / "singleton.csv"
        save_csv(Dataset(("x", "y"), rng.normal(size=(19, 2)), labels), path)
        env = dict(os.environ, PYTHONPATH=str(Path(xnb.__file__).resolve().parents[1]))
        argv = ["evaluate", "--data", str(path), "--k", "3", "--methods", "xnb", "--out", str(tmp_path / "e.json")]
        result = subprocess.run([sys.executable, "-m", "xnb.cli", *argv], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines() == [
            "k=3 exceeds the smallest class size 1; some folds will miss that class",
            *["classes with a single sample (C): their densities use degenerate fallback bandwidths"] * 2,
        ]
        assert "warnings.warn(" not in result.stderr


class TestSelect:
    def test_emits_class_feature_json(self, data_csv, capsys):
        assert main(["select", "--data", str(data_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"c0", "c1"}
        entry = payload["c0"][0]
        assert set(entry) == {"variable", "pairs", "entered_for", "attained"}
        assert entry["pairs"][0]["other_class"] == "c1"
        assert 0.0 <= entry["pairs"][0]["h"] <= 1.0

    def test_theta_flag_changes_selection(self, data_csv, capsys):
        main(["select", "--data", str(data_csv), "--theta", "0.5"])
        loose = json.loads(capsys.readouterr().out)
        main(["select", "--data", str(data_csv), "--theta", "0.999999"])
        tight = json.loads(capsys.readouterr().out)
        assert sum(len(v) for v in tight.values()) >= sum(len(v) for v in loose.values())

    @pytest.mark.parametrize(
        "config",
        [
            XnbConfig(),
            XnbConfig(kernel="uniform", bandwidth_rule="scott", mu=20, theta=0.5),
            XnbConfig(bandwidth_rule="silverman_adaptive", theta=0.999999),
        ],
    )
    def test_entries_are_the_fitted_features_trace_and_table(self, tmp_path, capsys, config):
        d, _ = make_separated(n=45, m=8, k=3, seed=9)
        path = tmp_path / "train.csv"
        save_csv(d, path)
        bandwidth = config.bandwidth_rule.replace("_", "-")
        flags = ["--data", str(path), "--kernel", config.kernel, "--bandwidth", bandwidth,
                 "--mu", str(config.mu), "--theta", repr(config.theta)]
        assert main(["select", *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["fit", *flags, "--model", str(tmp_path / "m.json")]) == 0
        fitted = json.loads((tmp_path / "m.json").read_text())["features"]
        table = hellinger_table(d, fit_fnb(d, config).kde_bank, mu=config.mu)
        fmap = select_class_specific(table, SelectionConfig(theta=config.theta))
        assert list(payload) == list(d.classes)
        for c, entries in payload.items():
            assert [e["variable"] for e in entries] == fitted[c]
            trace = [(s.other_class, s.attained) for s in fmap.steps[c]]
            assert [(e["entered_for"], e["attained"]) for e in entries] == trace
            for e in entries:
                assert [p["other_class"] for p in e["pairs"]] == [o for o in d.classes if o != c]
                for p in e["pairs"]:
                    assert p["h"].hex() == table_value(table, e["variable"], c, p["other_class"]).hex()

    def test_values_near_the_largest_float_fit_silently(self, tmp_path):
        path = tmp_path / "near.csv"
        path.write_text("class,g1,g2\nA,1e308,0.5\nA,0,1.5\nA,5e307,0.7\nB,1,2.5\nB,2,3.1\nB,3,2.9\n")
        model = tmp_path / "m.json"
        env = dict(os.environ, PYTHONPATH=str(Path(xnb.__file__).resolve().parents[1]))
        runs = [
            (["select", "--data", str(path)], ""),
            (["fit", "--data", str(path), "--model", str(model)], f"saved xnb model to {model} (A:2, B:2)\n"),
        ]
        for argv, stderr in runs:
            result = subprocess.run([sys.executable, "-m", "xnb.cli", *argv], env=env, capture_output=True, text=True)
            assert result.returncode == 0 and result.stderr == stderr, (argv, result.stderr)
        fitted = load_model(model)
        h = fitted.kde_bank["A"].h[fitted.features.features["A"].index("g1")]
        assert h == pytest.approx(1.059 * 5e307 * 3**-0.2, rel=1e-15, abs=0)

    def test_diagnose_and_gnb_near_the_largest_float(self, tmp_path, capsys):
        # squares of g1 overflow: diagnose still writes finite statistics, and
        # gnb, whose class A variance of g1 is beyond the largest float, says so
        path = tmp_path / "near.csv"
        path.write_text("class,g1,g2\n" + "".join(f"{c},{g1},{g2}\n" for c, g1, g2 in zip(
            "AAABBB", [1e308, 0, 2, 1, 2, 3], [1, 2, 4, 3, 5, 7])))
        out = tmp_path / "g.json"
        assert main(["diagnose", "--data", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=_no_constant)
        assert all(0.0 < row["w"] <= 1.0 for row in report["shapiro_wilk"]["variables"])
        capsys.readouterr()
        assert main(["fit", "--method", "gnb", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 2
        assert "data error: variables 'g1': variance exceeds the largest float" in capsys.readouterr().err

    def test_scott_bandwidth_beyond_the_largest_float_falls_back_silently(self, tmp_path):
        # A's g1 has sigma 7.07e307, so 3.49 sigma 2^(-1/3) = 1.96e308 overflows;
        # the bandwidth takes the fallback 1e-3 x range without a numpy warning
        path = tmp_path / "scott.csv"
        path.write_text("class,g1,g2\nA,1e308,1\nA,0,2\nB,1,3\nB,2,4\nB,3,5\n")
        model = tmp_path / "m.json"
        env = dict(os.environ, PYTHONPATH=str(Path(xnb.__file__).resolve().parents[1]))
        argv = ["fit", "--method", "fnb", "--bandwidth", "scott", "--data", str(path), "--model", str(model)]
        result = subprocess.run([sys.executable, "-m", "xnb.cli", *argv], env=env, capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stderr == f"saved fnb model to {model} (A:2, B:2)\n"  # and nothing else
        assert load_model(model).kde_bank["A"].h[0] == 1e305

    def test_subnormal_column_gets_the_fallback_bandwidth(self, tmp_path, caplog):
        # column a holds multiples of 5e-324, so its rule bandwidths are
        # subnormal and take the fallback: no density overflows, no numpy
        # warning, and every JSON output is finite
        a = [0.0, 1e-323, 4.4e-323, 2e-323, 5e-324, 3e-323, 1.5e-323, 0.0, 2.5e-323, 1e-323, 5e-323, 3.5e-323]
        b = np.random.default_rng(1).normal(size=len(a)).tolist()
        path = tmp_path / "subnormal.csv"
        path.write_text("class,a,b\n" + "".join(f"{'AB'[i % 2]},{x!r},{y!r}\n" for i, (x, y) in enumerate(zip(a, b))))
        data = ["--data", str(path)]
        runs = []
        for method in ("xnb", "fnb"):
            model = tmp_path / f"{method}.json"
            runs += [
                (["fit", "--method", method, *data, "--model", str(model)], model),
                (["predict", *data, "--model", str(model), "--format", "json", "--out", str(tmp_path / "p.json")],
                 tmp_path / "p.json"),
            ]
        runs += [
            (["select", *data, "--out", str(tmp_path / "s.json")], tmp_path / "s.json"),
            (["evaluate", *data, "--k", "2", "--out", str(tmp_path / "e.json")], tmp_path / "e.json"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning (overflow, underflow, invalid)
            for argv, output in runs:
                assert main(argv) == 0, argv
                _strict_json(output)
        assert caplog.records == []  # and no library notice
        assert load_model(tmp_path / "fnb.json").kde_bank["A"].h[0] == 1e-9


class TestDiagnose:
    def test_json_and_summary(self, data_csv, capsys):
        assert main(["diagnose", "--data", str(data_csv), "--max-pairs", "20"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 2
        assert "shapiro_wilk" in payload and "conditional_independence" in payload
        assert "SW=" in captured.err

    def test_too_few_samples_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        save_csv(Dataset(("x", "y"), [[0.0, 1.0], [1.0, 0.5], [2.0, 2.0]], ("A", "B", "A")), path)
        assert main(["diagnose", "--data", str(path)]) == 2
        assert "at least 5 samples with 2 classes, got 3" in capsys.readouterr().err

    def test_class_col_by_index(self, tmp_path, capsys):
        d, _ = make_separated(n=30, m=4, k=2, seed=6)
        path = tmp_path / "data.csv"
        save_csv(d, path, class_column="target")
        assert main(["diagnose", "--data", str(path), "--class-col", "@4"]) == 0


class TestInspect:
    def test_hellinger_tsv(self, data_csv, capsys):
        assert main(["inspect", "hellinger", "--data", str(data_csv)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "variable\tclass_i\tclass_j\th"
        assert len(lines) == 9  # 8 variables x 1 class pair
        for line in lines[1:]:
            variable, ci, cj, h = line.split("\t")
            assert ci == "c0" and cj == "c1"
            assert len(h.split(".")[1]) == 6

    def test_output_to_file(self, data_csv, tmp_path):
        out = tmp_path / "table.tsv"
        assert main(["inspect", "hellinger", "--data", str(data_csv), "--out", str(out)]) == 0
        assert out.read_text().startswith("variable\t")

    @pytest.mark.parametrize("kind, name", [("class", "a\tb"), ("class", "a\r\nb"), ("variable", "g\n0")])
    def test_a_name_tsv_cannot_hold_is_data_error(self, tmp_path, capsys, kind, name):
        # TSV cannot quote: a tab or line break in a name that predict or inspect hellinger would write
        # is refused before any output, and JSON output still takes it
        d, _ = make_separated(n=40, m=4, k=2, seed=5)
        if kind == "class":
            d = Dataset(d.variable_names, d.values, tuple(name if label == "c0" else label for label in d.labels))
        else:
            d = Dataset((name, *d.variable_names[1:]), d.values, d.labels)
        data, model, out = tmp_path / "train.csv", tmp_path / "m.json", tmp_path / "out"
        save_csv(d, data)
        assert main(["fit", "--data", str(data), "--model", str(model)]) == 0
        capsys.readouterr()
        runs = [(["inspect", "hellinger", "--data", str(data)], data)]
        if kind == "class":
            runs.append((["predict", "--data", str(data), "--model", str(model)], model))
        for argv, source in runs:
            assert main([*argv, "--out", str(out)]) == 2
            error = f"{source}: {kind} name {name!r} holds a tab or line break, which TSV output cannot hold"
            assert capsys.readouterr().err == f"data error: {error}\n"
            assert not out.exists()
        assert main(["predict", "--data", str(data), "--model", str(model), "--format", "json", "--out", str(out)]) == 0
        assert {*json.loads(out.read_text())[0]["log_scores"]} == set(d.classes)


class TestImports:
    def test_every_verb_runs_without_scipy(self, tmp_path):
        script = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.modules["mpmath"] = None  # the other test-only reference
import numpy as np
import xnb, xnb.cli

rng = np.random.default_rng(2)
labels = tuple("ABC"[i % 3] for i in range(45))
values = rng.normal(size=(45, 12)) + 3.0 * np.array([[ord(c) - 65] for c in labels])
d = xnb.Dataset(tuple(f"g{{j}}" for j in range(12)), values, labels)
xnb.save_csv(d, "{tmp_path}/d.csv")
for argv in (
    ["fit", "--data", "{tmp_path}/d.csv", "--model", "{tmp_path}/m.json", "--jobs", "2"],
    ["predict", "--data", "{tmp_path}/d.csv", "--model", "{tmp_path}/m.json", "--out", "{tmp_path}/p.tsv"],
    ["evaluate", "--data", "{tmp_path}/d.csv", "--k", "3", "--jobs", "2", "--out", "{tmp_path}/e.json"],
    ["select", "--data", "{tmp_path}/d.csv", "--out", "{tmp_path}/s.json"],
    ["diagnose", "--data", "{tmp_path}/d.csv", "--out", "{tmp_path}/g.json"],
    ["inspect", "hellinger", "--data", "{tmp_path}/d.csv", "--out", "{tmp_path}/h.tsv"],
):
    assert xnb.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")
assert not loaded, loaded
"""
        package_root = str(Path(xnb.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr


# A small valid training file and the cells the fuzz writes into it.
_ROWS = 12
_GOOD = np.random.default_rng(11).normal(size=(_ROWS, 3)) + np.repeat([[0.0], [4.0]], _ROWS // 2, axis=0)
_BAD_CELLS = ["", " ", "nan", "inf", "-inf", "1e999", "abc", '"', '1"2', '"1,2', "1,", "\x00", "é"]
_ODD_CELLS = [" 1.5 ", "-0", "+2", "1e-300", "0x1", "1_0", "A", "B"]
# magnitudes at the ends of the float range: the largest, and subnormals
_EXTREME_CELLS = ["1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308", "5e-324", "-2.5e-320"]
# bytes that are not UTF-8: a lone continuation byte, a cut two-byte lead, Latin-1 é, 0xff
_NOT_UTF8 = [b"\x80", b"\xc3", b"\xe9", b"\xff"]


@st.composite
def malformed_csv(draw):
    """The valid file with cells replaced, rows cut short or lengthened, a header
    name repeated, and the text cut; as UTF-8 bytes, perhaps after a byte order
    mark. Returns the text and its bytes, which may also hold a byte that is not
    UTF-8 (then the text is None)."""
    rows = [["g1", "g2", "g3", "class"]]
    rows += [[format(v, ".17g") for v in row] + ["AB"[i * 2 // _ROWS]] for i, row in enumerate(_GOOD)]
    cells = _BAD_CELLS + _ODD_CELLS + _EXTREME_CELLS
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cut", "extend", "repeat"]))
        if kind == "cell":
            cell = draw(st.one_of(st.sampled_from(cells), st.text(max_size=3)))
            if rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = cell
        elif kind == "cut":
            del rows[i][draw(st.integers(0, len(rows[i]))):]
        elif kind == "extend":
            rows[i].insert(draw(st.integers(0, len(rows[i]))), draw(st.sampled_from(cells)))
        elif rows[0]:
            rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(st.sampled_from(rows[0]))
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    raw = ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        return None, raw[:at] + draw(st.sampled_from(_NOT_UTF8)) + raw[at:]
    return text, raw


def _misshapen(text: str) -> bool:
    """True if the header repeats a name or a non-blank row's width differs from it."""
    try:
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error:
        return False
    if not records:
        return False
    header = [h.strip() for h in records[0]]
    return len(set(header)) < len(header) or any(r and len(r) != len(header) for r in records[1:])


def _no_constant(name):
    raise ValueError(f"{name} in a JSON output")


def _strict_json(path: Path):
    """Parse a JSON output; NaN and Infinity are errors."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


@lru_cache(maxsize=None)
def _good_model_payload(method: str = "xnb") -> dict:
    d = Dataset(("g1", "g2", "g3"), _GOOD, tuple("AB"[i * 2 // _ROWS] for i in range(_ROWS)))
    fit = {"xnb": fit_xnb, "fnb": fit_fnb, "gnb": fit_gnb}[method]
    with tempfile.TemporaryDirectory() as tmp:
        save_model(fit(d), Path(tmp) / "m.json")
        return json.loads((Path(tmp) / "m.json").read_text())


_WRONG_VALUES = [None, True, 0, -1, 2.5, "x", "", [], [1, "a"], {}, {"a": 1}, float("nan")]


def _wrong_arrays(node: dict) -> list:
    """Well-typed but wrong versions of a v3 array node."""
    shape = node["shape"]
    return [
        {**node, "dtype": "<f4"},
        {**node, "shape": shape[::-1] + [2]},
        {**node, "shape": [2**62] * 2},
        {**node, "shape": [True] * len(shape)},
        {**node, "data": node["data"][:-4]},
        {**node, "data": "*" + node["data"][1:]},
        edit_array(node, lambda a: np.where(a == a.flat[0], np.nan, a)),
        edit_array(node, lambda a: -np.abs(a)),
        edit_array(node, lambda a: np.full_like(a, np.inf)),
    ]


@st.composite
def malformed_model(draw):
    """The valid model with one node deleted or replaced by a wrong type, an
    array node replaced by a wrong one, or its text cut."""
    payload = json.loads(json.dumps(_good_model_payload(draw(st.sampled_from(METHODS)))))
    parent, key = None, None
    node = payload
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = parent[key]
    if parent is not None:
        if isinstance(node, dict) and "dtype" in node and draw(st.booleans()):
            parent[key] = draw(st.sampled_from(_wrong_arrays(node)))
        elif isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(_WRONG_VALUES))
    text = json.dumps(payload)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@lru_cache(maxsize=None)
def _reader_model(method: str):
    """A model fitted on ``data_csv``'s data (xnb scores v00 and v03 of v00-v07) and its file text."""
    d, _ = make_separated(n=60, m=8, k=2, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        save_model({"xnb": fit_xnb, "gnb": fit_gnb}[method](d), Path(tmp) / "m.json")
        return load_model(Path(tmp) / "m.json"), (Path(tmp) / "m.json").read_text()


# what stands in a column that no class scores: text, blanks, non-finite values
_UNSCORED_CELLS = ["nan", "x", "", " text ", "inf", "1e999", '"', "1,5", "0.5"]
_BAD_SCORED_CELLS = ["nan", "-inf", "", "x", " 1e999 ", "1..5"]


@st.composite
def heldout_rows(draw, model):
    """Held-out CSV rows for ``model``, header first: its variables and 0-3 extra
    columns in a drawn order, text or non-finite cells in the unscored columns,
    1-200 rows, and often none, else 1-3 scored cells replaced by bad ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extras = [f"extra{i}" for i in range(draw(st.integers(0, 3)))]
    header = list(draw(st.permutations([*model.variable_names, *extras])))
    scored = [model.variable_names[j] for j in model.scored_columns]
    rows = [header]
    # row counts on either side of 64 and 128, where a doubling row buffer would grow
    for _ in range(draw(st.one_of(st.integers(1, 200), st.sampled_from([64, 65, 128, 129, 200])))):
        rows.append([
            format(rng.normal(0.0, 4.0), ".17g") if name in scored else str(rng.choice(_UNSCORED_CELLS))
            for name in header
        ])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        row[header.index(draw(st.sampled_from(scored)))] = draw(st.sampled_from(_BAD_SCORED_CELLS))
    return rows


def _oracle_predictions(model, rows):
    """``predict`` on each row's sample, built one scored cell at a time, as the
    JSON payload of ``xnb predict``; or the data error of the first bad scored
    cell, in row order and then in model variable order."""
    position = {name: i for i, name in enumerate(rows[0])}
    payload = []
    for lineno, record in enumerate(rows[1:], start=2):
        sample = np.zeros(model.m)
        for j in model.scored_columns:
            name = model.variable_names[j]
            cell = record[position[name]]
            try:
                sample[j] = float(cell)
            except ValueError:
                return f"row {lineno}, column {name!r}: cannot parse {cell.strip()!r}"
            if not math.isfinite(sample[j]):
                return f"row {lineno}, column {name!r}: missing or non-finite value"
        p = predict(model, sample)
        payload.append({"label": p.label, "log_scores": p.log_scores})
    return payload


class TestPredictReader:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from(["xnb", "gnb"]))
    def test_predictions_equal_the_oracle_rows(self, data, method):
        model, text = _reader_model(method)
        rows = data.draw(heldout_rows(model))
        expected = _oracle_predictions(model, rows)
        with tempfile.TemporaryDirectory() as tmp:
            held, model_path, out = Path(tmp) / "held.csv", Path(tmp) / "m.json", Path(tmp) / "p.json"
            with held.open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            model_path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["predict", "--model", str(model_path), "--data", str(held), "--format", "json",
                             "--out", str(out)])
            if isinstance(expected, str):
                assert (code, err.getvalue()) == (2, f"data error: {held}: {expected}\n")
            else:
                assert code == 0
                assert json.loads(out.read_text()) == expected

    def test_each_file_read_is_noted_once(self, data_csv, tmp_path, caplog):
        # one INFO record per file that load_csv or xnb predict reads: its rows, those that
        # plain blocks held, and the cells that went through float()
        caplog.set_level(logging.INFO, logger="xnb.dataset")
        model, quoted = tmp_path / "m.json", tmp_path / "quoted.csv"
        with data_csv.open(newline="") as src, quoted.open("w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        assert main(["fit", "--data", str(data_csv), "--model", str(model)]) == 0
        for data in (data_csv, quoted):
            assert main(["predict", "--data", str(data), "--model", str(model), "--out", str(tmp_path / "p.tsv")]) == 0
        assert [(r.name, r.levelno) for r in caplog.records] == [("xnb.dataset", logging.INFO)] * 3
        fitted, predicted, from_quoted = caplog.messages
        for message in (fitted, predicted):
            assert re.fullmatch(rf"{re.escape(str(data_csv))}: 60 rows read, 60 of them in plain blocks;"
                                r" \d cells through float\(\)", message)
        scored = len(load_model(model).scored_columns)
        assert from_quoted == f"{quoted}: 60 rows read, 0 of them in plain blocks; {60 * scored} cells through float()"

    def test_memory_grows_by_the_parsed_scored_cells(self, tmp_path):
        # 50 and 500 rows of 2 000 columns, of which xnb scores a few: the
        # extra 450 rows may cost their scored cells and per-row objects (the
        # parsed row, its Prediction and its output line), not m cells each
        # (an (n, m) matrix of samples adds 7.2 MB)
        m = 2000
        d, _ = make_separated(n=60, m=m, k=2, seed=3)
        model_path = tmp_path / "m.json"
        save_model(fit_xnb(d), model_path)
        scored = load_model(model_path).scored_columns
        assert 0 < len(scored) < 10
        rng = np.random.default_rng(5)
        peaks = []
        for n in (50, 500):
            path = tmp_path / f"held{n}.csv"
            cells = np.zeros((n, m), dtype=object)
            cells[:, scored] = rng.normal(size=(n, len(scored)))
            lines = [",".join(d.variable_names), *(",".join(map(str, row)) for row in cells)]
            path.write_text("\n".join(lines) + "\n")
            argv = ["predict", "--model", str(model_path), "--data", str(path), "--out", str(tmp_path / "p.tsv")]
            code, peak = traced_peak(lambda: main(argv))
            assert code == 0
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 450 * (8 * len(scored) + 1024)


    @pytest.mark.parametrize("method", ["gnb", "fnb"])
    def test_memory_of_a_model_scoring_every_column_does_not_grow_with_rows(self, tmp_path, method):
        # 2 and 7 rows of 20 000 columns, each scored by every class: a row is
        # scored as it is parsed, so the 5 extra rows may cost their per-row
        # objects (the Prediction and its output line), not their m parsed
        # cells (160 kB a row: holding every row took 0.8 MB more). Few rows,
        # because tracemalloc makes parsing a 20 000-cell row take about 15 ms.
        # Each command runs once untraced, then the cyclic garbage (such as
        # each run's argparse parser) is collected, so both traced runs start
        # from the same interpreter state: without either, a peak moved by
        # tens of kB with what the process ran before
        d = wide_dataset(n=6, k=2)
        model_path = tmp_path / "m.json"
        save_model(fit_gnb(d) if method == "gnb" else fit_fnb(d), model_path)
        rng = np.random.default_rng(8)
        texts = [",".join(map(str, rng.integers(-3, 4, size=d.m).tolist())) for _ in range(4)]
        peaks = []
        for n in (2, 7):
            path = tmp_path / f"held{n}.csv"
            path.write_text("\n".join([",".join(d.variable_names), *(texts[i % 4] for i in range(n))]) + "\n")
            argv = ["predict", "--model", str(model_path), "--data", str(path), "--out", str(tmp_path / "p.tsv")]
            assert main(argv) == 0
            gc.collect()
            code, peak = traced_peak(lambda: main(argv))
            assert code == 0
            assert len((tmp_path / "p.tsv").read_text().splitlines()) == n + 1
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 5 * 4096


class TestFuzz:
    """Malformed inputs are usage or data errors (exit 1 or 2), never internal ones."""

    @settings(max_examples=60, deadline=None)
    @given(malformed_csv(), st.sampled_from(["xnb", "fnb", "gnb"]), st.booleans())
    def test_malformed_csv(self, text_and_bytes, method, unwritable):
        text, raw = text_and_bytes
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "d.csv"
            data.write_bytes(raw)
            model = Path(tmp) / "good.json"
            model.write_text(json.dumps(_good_model_payload()))
            out = Path(tmp) / ("absent" if unwritable else "")
            runs = [
                (["fit", "--data", str(data), "--model", str(out / "m.json"), "--method", method], out / "m.json"),
                (["predict", "--data", str(data), "--model", str(model), "--format", "json", "--out", str(out / "p.json")],
                 out / "p.json"),
                (["diagnose", "--data", str(data), "--max-pairs", "2", "--out", str(out / "g.json")], out / "g.json"),
            ]
            for argv, output in runs:
                # text that is not UTF-8, a repeated column, a misshapen row or
                # an output that cannot be written is a data error for every verb
                data_error = unwritable or text is None or _misshapen(text)
                code = main(argv)
                assert code in ((2,) if data_error else (0, 1, 2)), argv
                if code == 0:
                    _strict_json(output)

    @settings(max_examples=60, deadline=None)
    @given(malformed_model())
    def test_malformed_model(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "d.csv"
            data.write_text("g1,g2,g3\n0.5,1.5,-2\n4,4,4\n", encoding="utf-8")
            model = Path(tmp) / "m.json"
            model.write_text(text, encoding="utf-8")
            argv = ["predict", "--data", str(data), "--model", str(model), "--format", "json", "--out", f"{tmp}/p"]
            code = main(argv)
            assert code in (0, 1, 2)
            if code == 0:
                _strict_json(Path(tmp) / "p")
