"""Run one `xnb` command, or the direct layer calls, in a fresh traced process.

Usage:
    python3 bench/traced_verb.py OUT.json xnb ARGS...          # an `xnb` command
    python3 bench/traced_verb.py OUT.json direct REQUEST.json  # direct layer calls

`xnb ARGS...` runs `xnb.cli.main(ARGS)`, the real verb, with a span around
every library function that the CLI module calls by name: each function
of `xnb.__all__` that `xnb.cli` imports, named after its module (for
`xnb.dataset.load_csv`, `dataset.load_csv`). A change to the CLI is
therefore traced without a change here. `direct` calls the layers that
the verbs only reach from inside another call (the Hellinger table,
selection, the scans and the fits the workload's verbs do not make). The
spans are written to OUT.json.

Only names in `xnb.__all__` and the CLI module are used, so that refactors
of private helpers leave the benchmark running. A library call that
raises is recorded on its span as a layer failure; a CLI verb then exits
with its error code, and the direct calls go on with the next layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path

from tracing import Tracer


def trace_cli_calls(xnb, t: Tracer) -> None:
    """Replace each library function the CLI module imports with a traced one."""
    for name in xnb.__all__:
        fn = getattr(xnb, name)
        if inspect.isfunction(fn) and getattr(xnb.cli, name, None) is fn:
            setattr(xnb.cli, name, _traced(t, fn))


def _traced(t: Tracer, fn):
    layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with t.span(layer) as span:
            result = fn(*args, **kwargs)
        # fit stages of a model, fold fit stages of an evaluation report
        timings = getattr(result, "timings", None)
        if isinstance(timings, dict):
            span["timings"] = dict(timings)
        return result

    return call


def direct(xnb, t: Tracer, req: dict, info: dict) -> None:
    config = xnb.XnbConfig(
        kernel=req["kernel"], bandwidth_rule=req["bandwidth"], mu=req["mu"], theta=req["theta"]
    )
    with t.layer_call("dataset.load_csv") as call:
        d = xnb.load_csv(req["train"], "class")
    if "error" in call:
        return
    with t.layer_call("classifier.fit_gnb"):
        xnb.fit_gnb(d)
    with t.layer_call("classifier.fit_fnb") as call:
        full = xnb.fit_fnb(d, config)
    if req["method"] != "xnb":
        with t.layer_call("classifier.fit_xnb"):
            xnb.fit_xnb(d, config, jobs=req["jobs"])
    if "error" not in call:
        # the fnb model holds a density for every (class, variable): the bank
        # that the Hellinger table takes
        with t.layer_call("hellinger.table") as call:
            table = xnb.hellinger_table(d, full.kde_bank, mu=config.mu, jobs=req["jobs"])
        del full
        if "error" not in call:
            with t.layer_call("selection.select") as call:
                fmap = xnb.select_class_specific(table, xnb.SelectionConfig(theta=config.theta))
            if "error" not in call:
                info["selected_vars"] = sum(len(fmap.features[c]) for c in fmap.classes)
    with t.layer_call("diagnostics.normality_scan"):
        xnb.normality_scan(d)
    with t.layer_call("diagnostics.ci_scan"):
        xnb.conditional_independence_scan(d, seed=req["seed"])


def main(argv: list[str]) -> int:
    out, mode, args = argv[0], argv[1], argv[2:]
    t = Tracer()
    info: dict = {}
    with t.span("cli.import"):
        import xnb
        import xnb.cli
    if mode == "xnb":
        trace_cli_calls(xnb, t)
        code = xnb.cli.main(args)
    else:
        direct(xnb, t, json.loads(Path(args[0]).read_text(encoding="utf-8")), info)
        code = 0
    Path(out).write_text(json.dumps({"spans": t.spans, "info": info}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
