"""Smoke test of the benchmark at a tiny size.

Run it with `python3 -m pytest bench/smoke.py`. Its file name keeps it out
of the default test run, where its 30 s of load on 2 cores skews the
timing-based scaling test that runs after it.

Each workload runs with tracing on at m=60, so that every metric is
computed; the counts the benchmark derives must repeat exactly for a seed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPO = BENCH.parent
SEED = 5
EXACT_COUNTS = (
    "hellinger.kernel_evals",
    "selection.candidates",
    "selection.selected_vars",
    "classifier.density_evals_per_row",
    "dataset.csv_mb",
)


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, m=60, n_train=10 * w.k, n_heldout=30)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    cache = {}

    def get(name, key=0, trace=True):
        if (name, key, trace) not in cache:
            work = tmp_path_factory.mktemp(f"{name}-{key}")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(run, "WORK_DIR", work)
                cache[name, key, trace] = run.run_workload(
                    tiny(name), SEED, 0.0, trace, run.Checkout(REPO)
                )
        return cache[name, key, trace]

    return get


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_its_unit(results, name):
    result = results(name)
    assert result["problems"] == [] and result["uncaught_corruptions"] == []
    assert result["attempted"] == run.MIN_RUNS * len(run.VERBS) and result["failed"] == 0
    assert result["per_layer"]["trace.layer_failures"] == 0
    for group in ("end_to_end", "per_layer"):
        units = run.metric_units(group)
        emitted = run.report(result[group], units)
        assert set(emitted) == set(units)
        assert all(emitted[n]["unit"] == units[n] for n in units)


def test_traced_verbs_are_the_cli_commands(results, tmp_path_factory):
    result = results("multiclass-k10")
    layers = result["per_layer"]
    for trace in tmp_path_factory.getbasetemp().glob("multiclass-k10-*/trace-*.json"):
        ids = [s["id"] for s in json.loads(trace.read_text(encoding="utf-8"))]
        assert len(ids) == len(set(ids))
    # the traced predict is `xnb predict`: one traced call per held-out row
    assert layers["classifier.predict_rows"] == tiny("multiclass-k10").n_heldout
    # interpreter start-up alone is CLI time, so no verb's CLI overhead is 0 or less
    assert all(layers[f"cli.overhead_s.{verb}"] > 0 for verb in run.VERBS)


def test_counts_repeat_exactly_for_a_seed(results):
    first, second = results("multiclass-k10", 0), results("multiclass-k10", 1)
    for name in EXACT_COUNTS:
        assert first["per_layer"][name] == second["per_layer"][name], name
    assert first["end_to_end"]["model_mb"] == second["end_to_end"]["model_mb"]


def test_untraced_run_times_every_verb_twice(results):
    result = results("full-kde-k3", trace=False)
    assert result["failed"] == 0 and result["uncaught_corruptions"] == []
    assert result["runs"] == {task: run.MIN_RUNS for task in run.TASKS}
    # a reference time before the first sample and after every sample
    assert len(result["reference_s"]) == 1 + sum(result["runs"].values())
    assert set(result["end_to_end"]) == set(run.metric_units("end_to_end"))
    assert result["per_layer"] == {}


def test_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "wide-k3", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
