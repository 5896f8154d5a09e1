"""The xnb benchmark: seeded CLI sessions, end-to-end verb timings, layer trace.

Usage (from the root of a checkout):

    python3 bench/run.py --workload multiclass-k10 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1

For each workload the benchmark generates a training and a held-out CSV
from the seed, then runs `xnb fit`, `predict`, `evaluate` and `diagnose`,
each as a fresh process, one at a time (one client, closed loop). The
set-up and the verbs run in rounds, one after another, for about
`--seconds` and at least two rounds; times are medians of wall times
scaled to a fixed host speed (see REFERENCE_S). Every verb's
output is checked. With `--trace 1` it then runs each verb again in a
fresh traced process (see traced_verb.py), and reports per-layer metrics
instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A record of the run, with
the machine facts, is written under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from checks import (
    check_diagnosis,
    check_evaluation,
    check_markers,
    check_predictions,
    corruption_self_test,
    heldout_accuracy,
)
from tracing import Tracer, self_times
from workloads import BANDWIDTH, CV_FOLDS, KERNEL, MU, THETA, VERBS, WORKLOADS, Workload, generate

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
# At least two samples of the set-up and of every verb, spread over the
# run: on a shared 2-core machine speed drifts by 10-40% over 10-second spans.
# Every round runs everything once, so the longest verb (evaluate) gets as
# many samples as the shortest.
MIN_RUNS = 2
TASKS = ("setup", *VERBS)
# Host speed. On the shared 2-core host the benchmark was built on, the
# speed of every process drifts, at times by a factor of 2, and changes
# within seconds (a verb's CPU time moves with its wall time, so it is not
# waiting). The drift is largest for work like the verbs' own: starting
# Python and importing numpy and scipy, which is most of every verb. So
# right before and right after every sample (set-up or verb), the
# benchmark times a fixed reference process that does that kind of work
# and runs no xnb code (REFERENCE_SRC), and scales the sample's wall time
# to the host speed at which the reference takes REFERENCE_S:
# wall * REFERENCE_S / the mean of the two reference times. Every time
# metric is the median of its scaled samples. The reference does not
# depend on the library, so a change to the library shows in full; the
# unscaled medians are printed, and every sample is kept in the run's record.
REFERENCE_SRC = """
import numpy as np, scipy.special
x = np.random.default_rng(0).normal(size=(100, 2000))
for j in range(0, 2000, 100):
    d = x[:, None, j:j + 100] - x[None, :, j:j + 100]
    np.exp(-0.5 * d * d).sum()
n = 0
for i in range(400_000):
    n += i * i % 7
"""
REFERENCE_S = 1.0
CHILD_TIMEOUT_S = 170.0
MB = 1e6
OUTPUT_OF = {"fit": "model", "predict": "predictions", "evaluate": "evaluation",
             "diagnose": "diagnosis"}


def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


class Checkout:
    """The source tree under test: `src/xnb` of the working directory."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "xnb" / "__init__.py").is_file():
            raise SystemExit(f"bench: no xnb sources at {self.src / 'xnb'}; run from a checkout root")
        sys.path.insert(0, str(self.src))
        import xnb

        if Path(xnb.__file__).resolve().parent != (self.src / "xnb").resolve():
            raise SystemExit(f"bench: imported xnb from {xnb.__file__}, not from {self.src}")
        self.xnb = xnb
        self.env = dict(os.environ, PYTHONPATH=str(self.src.resolve()))


def run_child(cmd: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS in MB)."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # reaped by wait4 (for its rusage), so tell Popen it has exited
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MB


def cli_args(verb: str, w: Workload, seed: int, files: dict) -> list[str]:
    """The arguments of one verb's `xnb` command."""
    pipeline = ["--kernel", KERNEL, "--bandwidth", BANDWIDTH, "--mu", str(MU), "--theta", str(THETA)]
    return {
        "fit": ["fit", "--data", files["train"], "--model", files["model"], "--method", w.method,
                "--jobs", str(w.jobs), *pipeline],
        "predict": ["predict", "--model", files["model"], "--data", files["heldout"],
                    "--format", "json", "--out", files["predictions"]],
        "evaluate": ["evaluate", "--data", files["train"], "--methods", ",".join(w.eval_methods),
                     "--k", str(CV_FOLDS), "--seed", str(seed), "--jobs", str(w.jobs),
                     "--format", "json", "--out", files["evaluation"], *pipeline],
        "diagnose": ["diagnose", "--data", files["train"], "--seed", str(seed),
                     "--out", files["diagnosis"]],
    }[verb]


def reference_predictions(w: Workload, train, heldout, xnb) -> dict:
    """In-process fit and predict on the rows the predict check compares."""
    config = xnb.XnbConfig(kernel=KERNEL, bandwidth_rule=BANDWIDTH, mu=MU, theta=THETA)
    model = xnb.fit_fnb(train, config) if w.method == "fnb" else xnb.fit_xnb(train, config)
    reference = {}
    for i in range(0, heldout.n, w.check_stride):
        p = xnb.predict(model, heldout.values[i])
        reference[i] = (p.label, dict(p.log_scores))
    return reference


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Session:
    """One workload at one seed: inputs, verb runs, checks and samples."""

    def __init__(self, w: Workload, seed: int, checkout: Checkout, work: Path, tracer: Tracer):
        self.w, self.seed, self.checkout, self.work, self.tracer = w, seed, checkout, work, tracer
        self.files = {
            name: str(work / fname)
            for name, fname in (
                ("train", "train.csv"), ("heldout", "heldout.csv"), ("model", "model.json"),
                ("predictions", "predictions.json"), ("evaluation", "evaluation.json"),
                ("diagnosis", "diagnosis.json"),
            )
        }
        self.walls: dict[str, list[float]] = {task: [] for task in TASKS}
        self.scaled: dict[str, list[float]] = {task: [] for task in TASKS}
        self.reference_walls: list[float] = []
        self.time_reference()
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict = {}
        self.model_mb: float | None = None

    def setup(self):
        """Generate the data and write both CSVs; returns (train, held-out, markers)."""
        xnb = self.checkout.xnb
        with self.tracer.span("setup") as span:
            train, heldout, markers = generate(self.w, self.seed, xnb)
            for name, d in (("train", train), ("heldout", heldout)):
                with self.tracer.span("dataset.save_csv", file=name):
                    xnb.save_csv(d, self.files[name])
        self.record("setup", span["end"] - span["start"])
        return train, heldout, markers

    def time_reference(self) -> None:
        code, wall, _ = run_child([sys.executable, "-c", REFERENCE_SRC], dict(os.environ),
                                  self.work / "reference.log")
        if code != 0:
            raise SystemExit(f"bench: the reference process failed with exit code {code}")
        self.reference_walls.append(wall)

    def record(self, task: str, wall: float) -> None:
        """Keep a sample of `task`, and its wall time scaled to the host
        speed around it: the reference before it and one timed now."""
        before = self.reference_walls[-1]
        self.time_reference()
        self.walls[task].append(wall)
        self.scaled[task].append(wall * 2 * REFERENCE_S / (before + self.reference_walls[-1]))

    def run(self, seconds: float, expected: dict) -> None:
        """Run rounds of the four verbs, one after another, at least MIN_RUNS
        of them, and as many as end nearest to `seconds`; every verb output
        is checked. The set-up that made the inputs counts as the first
        round's; each later round starts by setting up the same inputs again."""
        start, rounds = time.perf_counter(), 0
        while True:
            for verb in VERBS:
                self.run_verb(verb, expected)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= MIN_RUNS and elapsed * (rounds + 0.5) / rounds >= seconds:
                return
            self.setup()

    def run_verb(self, verb: str, expected: dict) -> None:
        Path(self.files[OUTPUT_OF[verb]]).unlink(missing_ok=True)
        cmd = [sys.executable, "-c", "import sys; from xnb.cli import main; sys.exit(main())",
               *cli_args(verb, self.w, self.seed, self.files)]
        code, wall, rss = run_child(cmd, self.checkout.env, self.work / f"{verb}.log")
        self.attempted += 1
        self.record(verb, wall)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        problems = [f"exit code {code}"] if code != 0 else self._check(verb, expected)
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.w.name} {verb}: {p}" for p in problems)

    def _check(self, verb: str, expected: dict) -> list[str]:
        try:
            if verb == "fit":
                self.outputs["model"] = read_json(self.files["model"])
                self.model_mb = os.path.getsize(self.files["model"]) / MB
                return check_markers(self.outputs["model"], expected["markers"])
            if verb == "predict":
                self.outputs["predictions"] = read_json(self.files["predictions"])
                return check_predictions(self.outputs["predictions"], expected["truth"],
                                         expected["reference"], expected["floor"])
            if verb == "evaluate":
                self.outputs["evaluation"] = read_json(self.files["evaluation"])
                return check_evaluation(self.outputs["evaluation"], expected["methods"],
                                        expected["k"])
            self.outputs["diagnosis"] = read_json(self.files["diagnosis"])
            return check_diagnosis(self.outputs["diagnosis"], expected["n"], expected["m"])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def end_to_end(self, truth: tuple[str, ...]) -> dict[str, float]:
        metrics = {f"{task}_s": statistics.median(self.scaled[task]) for task in TASKS}
        metrics.update({
            "peak_rss_mb": self.peak_rss_mb,
            "model_mb": self.model_mb,
        })
        if "predictions" in self.outputs:
            metrics["heldout_accuracy"] = heldout_accuracy(
                self.outputs["predictions"], truth
            )
        if "evaluation" in self.outputs:
            metrics["cv_accuracy"] = self.outputs["evaluation"]["mean_accuracy"][self.w.cv_method]
        return metrics


def traced_pass(session: Session, parent: str) -> dict:
    """Each verb's command again in a traced fresh process, then the direct
    layer calls; their spans join the session's, under `parent`."""
    w, work, tracer = session.w, session.work, session.tracer
    request = work / "direct-request.json"
    request.write_text(json.dumps({
        "train": session.files["train"], "method": w.method, "jobs": w.jobs,
        "seed": session.seed, "kernel": KERNEL, "bandwidth": BANDWIDTH, "mu": MU, "theta": THETA,
    }), encoding="utf-8")
    infos, walls = {}, {}
    for verb in (*VERBS, "direct"):
        out = work / f"traced-{verb}.json"
        out.unlink(missing_ok=True)
        args = (["direct", str(request)] if verb == "direct"
                else ["xnb", *cli_args(verb, w, session.seed, session.files)])
        cmd = [sys.executable, str(BENCH_DIR / "traced_verb.py"), str(out), *args]
        with tracer.span(f"verb.{verb}", parent=parent) as span:
            code, walls[verb], _ = run_child(cmd, session.checkout.env, work / f"traced-{verb}.log")
        payload = read_json(str(out)) if out.exists() else {"spans": [], "info": {}}
        tracer.adopt(payload["spans"], parent=span["id"])
        infos[verb] = payload["info"]
        if code != 0 and not any("error" in s for s in payload["spans"]):
            # a failure outside the library calls: the CLI's own code, or a crash.
            # It is a failure of the trace, not of the run
            span["error"] = f"traced process exit code {code}"
    return {"infos": infos, "walls": walls}


def _median(values):
    return statistics.median(values) if values else None


def per_layer(w: Workload, session: Session, traced: dict, class_sizes: dict) -> dict[str, float]:
    """Per-layer metrics from the spans; a metric whose layer failed is left out."""
    spans = session.tracer.spans
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def verb_of(s):
        while s["parent"] is not None and not s["name"].startswith("verb."):
            s = by_id[s["parent"]]
        return s["name"][len("verb."):] if s["name"].startswith("verb.") else None

    def calls(name, verbs):
        return [s for s in spans if s["name"] == name and "error" not in s and verb_of(s) in verbs]

    def times(name, verbs=(*VERBS, "direct")):
        return [selfs[s["id"]] for s in calls(name, verbs)]

    def layer_s(name):
        """Median over the verb processes' calls, else over the direct calls."""
        return _median(times(name, VERBS)) or _median(times(name, ("direct",)))

    def timings(name, verb):
        """The `timings` of the result of the verb's call, when it has them."""
        return next((s["timings"] for s in calls(name, (verb,)) if "timings" in s), {})

    save_csv_by_setup: dict[str, float] = {}
    for s in spans:
        if s["name"] == "dataset.save_csv":
            save_csv_by_setup[s["parent"]] = save_csv_by_setup.get(s["parent"], 0.0) + selfs[s["id"]]

    fit_timings = timings(f"classifier.fit_{w.method}", "fit")
    model = session.outputs.get("model", {})
    diagnosis = session.outputs.get("diagnosis", {})
    out = {
        "dataset.load_csv_s": _median(times("dataset.load_csv", VERBS)),
        "dataset.save_csv_s": _median(list(save_csv_by_setup.values())),
        "dataset.csv_mb": (os.path.getsize(session.files["train"])
                           + os.path.getsize(session.files["heldout"])) / MB,
        "kde.bandwidth_s": fit_timings.get("bandwidth"),
        "kde.bank_s": fit_timings.get("kde"),
        "hellinger.table_s": layer_s("hellinger.table"),
        "hellinger.stage_s": fit_timings.get("hellinger"),
        "hellinger.kernel_evals": MU * w.n_train * w.m,
        "selection.select_s": layer_s("selection.select"),
        "selection.candidates": w.k * (w.k - 1) * w.m,
        "selection.selected_vars": traced["infos"]["direct"].get("selected_vars"),
        "classifier.save_model_s": layer_s("classifier.save_model"),
        "classifier.load_model_s": layer_s("classifier.load_model"),
        "classifier.density_evals_per_row": (
            sum(len(names) * class_sizes[c] for c, names in model["features"].items())
            if "features" in model else None),
        "evaluation.evaluate_cv_s": layer_s("evaluation.evaluate_cv"),
        "diagnostics.normality_scan_s": layer_s("diagnostics.normality_scan"),
        "diagnostics.ci_scan_s": layer_s("diagnostics.ci_scan"),
        "diagnostics.pairs_examined": diagnosis.get("conditional_independence", {}).get(
            "examined_pairs"),
        "cli.import_s": _median(times("cli.import")),
    }
    for method in ("xnb", "fnb", "gnb"):
        out[f"classifier.fit_{method}_s"] = layer_s(f"classifier.fit_{method}")
    if out["hellinger.table_s"]:
        out["hellinger.kernel_evals_per_s"] = out["hellinger.kernel_evals"] / out["hellinger.table_s"]

    rows = sorted(t * 1e3 for t in times("classifier.predict", ("predict",)))
    if len(rows) > 10:
        # the highest percentile with at least ten rows beyond it
        out["classifier.predict_row_ms_p50"] = statistics.median(rows)
        out["classifier.predict_row_ms_pNN"] = rows[len(rows) - 11]
        out["classifier.predict_row_pNN"] = 100.0 * (len(rows) - 10) / len(rows)
        out["classifier.predict_rows"] = len(rows)

    fold_timings = timings("evaluation.evaluate_cv", "evaluate")
    if fold_timings and out["evaluation.evaluate_cv_s"]:
        out["evaluation.fit_share"] = sum(fold_timings.values()) / out["evaluation.evaluate_cv_s"]

    for verb in VERBS:
        mine = [s for s in spans if verb_of(s) == verb]
        if not any("error" in s for s in mine):
            # wall time of the traced verb process minus its library calls
            library = sum(selfs[s["id"]] for s in mine
                          if not s["name"].startswith(("verb.", "cli.")))
            out[f"cli.overhead_s.{verb}"] = traced["walls"][verb] - library
    out["trace.overhead_s"] = sum(
        traced["walls"][verb] - statistics.median(session.walls[verb]) for verb in VERBS
    )
    out["trace.layer_failures"] = sum("error" in s for s in spans)
    return {k: v for k, v in out.items() if v is not None}


def machine_facts(checkout: Checkout, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(checkout.root),
        "xnb_version": getattr(checkout.xnb, "__version__", None),
        "seed": seed,
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout; None when it is not a git repository (a
    repository around it does not count) or git cannot say."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, checkout: Checkout) -> dict:
    """Set up, run and check the verbs, and (traced) run the trace pass."""
    work = WORK_DIR / f"{w.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    session = Session(w, seed, checkout, work, tracer)
    with tracer.span("workload", workload=w.name, seed=seed) as root:
        train, heldout, markers = session.setup()
        expected = {
            "markers": markers, "truth": heldout.labels, "floor": w.accuracy_floor,
            "reference": reference_predictions(w, train, heldout, checkout.xnb),
            "methods": w.eval_methods, "k": CV_FOLDS, "n": train.n, "m": train.m,
        }
        class_sizes = Counter(train.labels)
        del train, heldout

        session.run(seconds, expected)

        if set(session.outputs) == {"model", "predictions", "evaluation", "diagnosis"}:
            uncaught = corruption_self_test(session.outputs, expected)
        else:
            uncaught = ["outputs missing, self-test not run"]
        if trace:
            traced = traced_pass(session, root["id"])
    layers = per_layer(w, session, traced, class_sizes) if trace else {}

    result = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "runs": {task: len(session.walls[task]) for task in TASKS},
        "samples_s": session.walls,
        "scaled_s": session.scaled,
        "reference_s": session.reference_walls,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "uncaught_corruptions": uncaught,
        "end_to_end": {k: v for k, v in session.end_to_end(expected["truth"]).items()
                       if v is not None},
        "per_layer": layers,
        "facts": machine_facts(checkout, seed),
    }
    stem = f"{w.name}-s{seed}-t{int(trace)}"
    (WORK_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if trace:
        (WORK_DIR / f"trace-{stem}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return result


def report(values: dict, units: dict, prefix: str = "") -> dict:
    """Print each metric with its unit; return them in the result-line form."""
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            print(f"  {prefix}{name:34s} missing")
            continue
        print(f"  {prefix}{name:34s} {value:14.6g} {unit}")
        metrics[prefix + name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), checkout)
        prefix = f"{name}/" if len(names) > 1 else ""
        print(f"{name} seed={args.seed} runs={result['runs']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4g}")
        print(f"  facts {json.dumps(result['facts'])}")
        print("  unscaled wall medians: " + ", ".join(
            f"{task} {statistics.median(walls):.4g} s" for task, walls in result["samples_s"].items())
            + f"; reference {statistics.median(result['reference_s']):.4g} s")
        for problem in result["problems"]:
            print(f"  FAILED {problem}")
        for corruption in result["uncaught_corruptions"]:
            print(f"  CHECK DEFECT: corrupted output passed the checks ({corruption})")
        print("  end-to-end:")
        e2e = report(result["end_to_end"], metric_units("end_to_end"), prefix)
        layers = {}
        if args.trace:
            print("  per-layer (traced run):")
            layers = report(result["per_layer"], metric_units("per_layer"), prefix)
        metrics.update(layers if args.trace else e2e)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["problems"] and not result["uncaught_corruptions"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
