"""Command-line interface.

Verbs: fit, predict, evaluate, select, diagnose, inspect hellinger.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import XnbConfig, fit_fnb, fit_gnb, fit_xnb, load_model, predict, save_model
from .dataset import csv_records, load_csv, read_numeric, write_output
from .diagnostics import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_PAIRS,
    DEFAULT_P_MAX,
    DEFAULT_R_MIN,
    run_diagnostics,
)
from .errors import DataError, XnbError
from .evaluation import DEFAULT_METHODS, METHODS, emit_report, evaluate_cv
from .hellinger import hellinger_table
from .kde import BANDWIDTH_RULES, DEFAULT_KERNEL, DEFAULT_MU, DEFAULT_RULE, KERNELS
from .selection import DEFAULT_THETA


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _class_col(token: str) -> str | int:
    """`--class-col NAME|@INDEX`: an @-prefixed token is a 0-based index."""
    if token.startswith("@"):
        try:
            return int(token[1:])
        except ValueError:
            raise _UsageError(f"invalid class column index {token!r}") from None
    return token


def _checked(cast, ok, domain: str):
    """An argparse type: ``cast(token)``, rejected unless ``ok`` holds (``domain`` says when)."""

    def parse(token: str):
        try:
            value = cast(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value {token!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {token}")
        return value

    return parse


def _config_from(args) -> XnbConfig:
    try:
        return XnbConfig(
            kernel=args.kernel,
            bandwidth_rule=args.bandwidth,
            mu=args.mu,
            theta=args.theta,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _load(args):
    return load_csv(args.data, _class_col(args.class_col))


def _cmd_fit(args) -> int:
    d = _load(args)
    if args.method == "gnb":
        model = fit_gnb(d)
    elif args.method == "fnb":
        model = fit_fnb(d, _config_from(args))
    else:
        model = fit_xnb(d, _config_from(args), jobs=args.jobs)
    save_model(model, args.model)
    counts = (
        ", ".join(f"{c}:{model.features.count(c)}" for c in model.classes)
        if args.method != "gnb"
        else "all variables"
    )
    print(f"saved {args.method} model to {args.model} ({counts})", file=sys.stderr)
    return 0


def _read_samples(path: str, variables) -> np.ndarray:
    """Read a headered CSV of unlabeled samples in model variable order."""
    path = Path(path)
    with csv_records(path) as (header, records):
        positions = {name: i for i, name in enumerate(header)}
        missing = [v for v in variables if v not in positions]
        if missing:
            raise DataError(f"{path}: missing model variables: {', '.join(missing[:5])}")
        return read_numeric(path, records, [positions[v] for v in variables])[0]


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    samples = _read_samples(args.data, model.variable_names)
    results = [predict(model, row) for row in samples]
    fmt = args.format or "tsv"
    if fmt == "json":
        payload = [
            {"label": r.label, "log_scores": {c: r.log_scores[c] for c in model.classes}}
            for r in results
        ]
        write_output(json.dumps(payload, indent=1, allow_nan=False) + "\n", args.out)
    else:
        lines = ["label\t" + "\t".join(f"score_{c}" for c in model.classes)]
        for r in results:
            scores = "\t".join(format(r.log_scores[c], ".6f") for c in model.classes)
            lines.append(f"{r.label}\t{scores}")
        write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    d = _load(args)
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise _UsageError(f"unknown methods: {', '.join(sorted(unknown))}")
    if args.k > d.n:
        raise DataError(f"--k {args.k} exceeds the sample count n={d.n}")
    report = evaluate_cv(
        d, methods=methods, k=args.k, seed=args.seed, config=_config_from(args), jobs=args.jobs
    )
    emit_report(report, format=args.format or "json", path=args.out, m_variables=d.m)
    return 0


def _cmd_select(args) -> int:
    d = _load(args)
    model = fit_xnb(d, _config_from(args), jobs=args.jobs)
    fmap = model.features
    payload = {
        c: [
            {
                "variable": v,
                "pairs": [
                    {"other_class": other, "h": h} for other, h in fmap.pair_h[c][v].items()
                ],
            }
            for v in fmap.features[c]
        ]
        for c in fmap.classes
    }
    write_output(json.dumps(payload, indent=1, allow_nan=False) + "\n", args.out)
    return 0


def _cmd_diagnose(args) -> int:
    d = _load(args)
    report = run_diagnostics(
        d,
        alpha=args.alpha,
        p_max=args.p_max,
        r_min=args.r_min,
        max_pairs=args.max_pairs,
        seed=args.seed,
    )
    write_output(json.dumps(report.to_dict(), indent=1, allow_nan=False) + "\n", args.out)
    print(report.summary(), file=sys.stderr)
    return 0


def _cmd_inspect_hellinger(args) -> int:
    d = _load(args)
    config = _config_from(args)
    # the all-variable model's bank is the one the table is built from
    bank = fit_fnb(d, config).kde_bank
    table = hellinger_table(d, bank, mu=config.mu, jobs=args.jobs)
    lines = ["variable\tclass_i\tclass_j\th"]
    for v, ci, cj, h in table.rows():
        lines.append(f"{v}\t{ci}\t{cj}\t{h:.6f}")
    write_output("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> _Parser:
    open_unit = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    common = _Parser(add_help=False)
    common.add_argument("--kernel", default=DEFAULT_KERNEL, choices=KERNELS)
    common.add_argument(
        "--bandwidth",
        default=DEFAULT_RULE,
        choices=tuple(r.replace("_", "-") for r in BANDWIDTH_RULES),
    )
    common.add_argument("--mu", type=int, default=DEFAULT_MU)
    common.add_argument("--theta", type=float, default=DEFAULT_THETA)
    common.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "at least 0"), default=0)
    common.add_argument("--class-col", default="class", metavar="NAME|@INDEX")
    common.add_argument("--format", choices=("json", "tsv"), default=None)
    common.add_argument("--jobs", type=_checked(int, lambda v: v >= 1, "at least 1"), default=1)
    common.add_argument("--model", default=None, help="model file path")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    parser = _Parser(prog="xnb", description="class-specific KDE naive Bayes toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit a model and save it")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=METHODS, default="xnb")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", parents=[common], help="label unlabeled samples")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="stratified cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p.add_argument("--k", type=_checked(int, lambda v: v >= 2, "at least 2"), default=10)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("select", parents=[common], help="per-class variable selection")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("diagnose", parents=[common], help="normality and dependence scans")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=open_unit, default=DEFAULT_ALPHA)
    p.add_argument("--p-max", type=open_unit, default=DEFAULT_P_MAX)
    p.add_argument(
        "--r-min", type=_checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"), default=DEFAULT_R_MIN
    )
    p.add_argument(
        "--max-pairs", type=_checked(int, lambda v: v >= 1, "at least 1"), default=DEFAULT_MAX_PAIRS
    )
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("inspect", help="inspect pipeline intermediates")
    inspect_sub = p.add_subparsers(dest="what", required=True)
    ph = inspect_sub.add_parser("hellinger", parents=[common], help="emit the distance table")
    ph.add_argument("--data", required=True)
    ph.set_defaults(func=_cmd_inspect_hellinger)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "fit" and not args.model:
            raise _UsageError("fit requires --model")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except XnbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
