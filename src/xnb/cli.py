"""Command-line interface.

Verbs: fit, predict, evaluate, select, diagnose, inspect hellinger.
Each flag is declared once, with its domain, in ``_FLAGS``; each verb
takes only the flags it reads, so any other flag is a usage error.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import METHODS, XnbConfig, fit_fnb, fit_gnb, fit_xnb, load_model, predict, save_model
from .dataset import csv_records, load_csv, read_numeric, write_json, write_output
from .diagnostics import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_PAIRS,
    DEFAULT_P_MAX,
    DEFAULT_R_MIN,
    run_diagnostics,
)
from .errors import DataError, XnbError
from .evaluation import DEFAULT_METHODS, check_methods, emit_report, evaluate_cv
from .hellinger import MAX_MU, HellingerTable, hellinger_table
from .kde import BANDWIDTH_RULES, DEFAULT_KERNEL, DEFAULT_MU, DEFAULT_RULE, KERNELS
from .selection import DEFAULT_THETA, SelectionConfig, select_class_specific


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
            raise argparse.ArgumentTypeError(f"invalid class column index {token!r}") from None
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


def _method_list(token: str) -> tuple[str, ...]:
    """`--methods A,B,...`: the methods ``evaluate_cv`` accepts."""
    try:
        return check_methods(tok.strip() for tok in token.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} (from {token!r})") from None


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"at least {low}")


_OPEN_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _config_from(args) -> XnbConfig:
    """The pipeline settings of a verb's flags; a verb without --theta keeps the default."""
    theta = getattr(args, "theta", DEFAULT_THETA)
    rule = args.bandwidth.replace("-", "_")  # the one other spelling: silverman-adaptive is silverman_adaptive
    return XnbConfig(kernel=args.kernel, bandwidth_rule=rule, mu=args.mu, theta=theta)


def _table_from(args) -> HellingerTable:
    """The Hellinger table of a verb's --data, built as ``fit_xnb`` builds it."""
    d = load_csv(args.data, args.class_col)
    config = _config_from(args)
    # the all-variable model's bank is the one the table is built from
    bank = fit_fnb(d, config).kde_bank
    return hellinger_table(d, bank, mu=config.mu, jobs=args.jobs)


def _cmd_fit(args) -> int:
    d = load_csv(args.data, args.class_col)
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


def _read_samples(path: str, model):
    """Yield each row of a headered CSV of unlabeled samples: its values at ``model.scored_columns``.

    The header must name every model variable, in any order, but only the
    columns some class scores are parsed; the others are never read. Each
    row is yielded as it is parsed.
    """
    path = Path(path)
    with csv_records(path) as (header, records):
        positions = {name: i for i, name in enumerate(header)}
        missing = [v for v in model.variable_names if v not in positions]
        if missing:
            raise DataError(f"{path}: missing model variables: {', '.join(missing[:5])}")
        columns = [positions[model.variable_names[j]] for j in model.scored_columns]
        for row, _ in read_numeric(path, header, records, columns):
            yield row


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    # one full-width sample, refilled per row; its unscored columns stay 0.0, which predict never reads.
    # Each row is scored as it is parsed; the output is written after the last row, so a bad
    # cell anywhere leaves no partial output
    sample = np.zeros(model.m)
    results = []
    for i, row in enumerate(_read_samples(args.data, model), start=1):
        sample[model.scored_columns] = row
        try:
            results.append(predict(model, sample))
        except DataError as exc:
            raise DataError(f"{args.data}: data row {i}: {exc}") from exc
    if args.format == "json":
        payload = [
            {"label": r.label, "log_scores": {c: r.log_scores[c] for c in model.classes}}
            for r in results
        ]
        write_json(payload, args.out)
    else:
        lines = ["label\t" + "\t".join(f"score_{c}" for c in model.classes)]
        for r in results:
            scores = "\t".join(format(r.log_scores[c], ".6f") for c in model.classes)
            lines.append(f"{r.label}\t{scores}")
        write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    d = load_csv(args.data, args.class_col)
    if args.k > d.n:
        raise DataError(f"--k {args.k} exceeds the sample count n={d.n}")
    report = evaluate_cv(
        d, methods=args.methods, k=args.k, seed=args.seed, config=_config_from(args), jobs=args.jobs
    )
    emit_report(report, format=args.format, path=args.out)
    return 0


def _cmd_select(args) -> int:
    table = _table_from(args)
    fmap = select_class_specific(table, SelectionConfig(theta=args.theta))
    row = {v: j for j, v in enumerate(table.variable_names)}
    payload = {}
    for c in fmap.classes:
        columns = {other: table.pair_column(c, other) for other in table.classes if other != c}
        payload[c] = [
            {
                "variable": s.variable,
                "pairs": [
                    {"other_class": other, "h": float(h[row[s.variable]])} for other, h in columns.items()
                ],
                "entered_for": s.other_class,
                "attained": s.attained,
            }
            for s in fmap.steps[c]
        ]
    write_json(payload, args.out)
    return 0


def _cmd_diagnose(args) -> int:
    d = load_csv(args.data, args.class_col)
    report = run_diagnostics(
        d,
        alpha=args.alpha,
        p_max=args.p_max,
        r_min=args.r_min,
        max_pairs=args.max_pairs,
        seed=args.seed,
    )
    write_json(report.to_dict(), args.out)
    print(report.summary(), file=sys.stderr)
    return 0


def _cmd_inspect_hellinger(args) -> int:
    table = _table_from(args)
    lines = ["variable\tclass_i\tclass_j\th"]
    for v, ci, cj, h in table.rows():
        lines.append(f"{v}\t{ci}\t{cj}\t{h:.6f}")
    write_output("\n".join(lines) + "\n", args.out)
    return 0


# Every flag once, as its add_argument keywords; a verb adds only the flags its _cmd_* reads.
_FLAGS = {
    "data": dict(required=True),
    "class-col": dict(type=_class_col, default="class", metavar="NAME|@INDEX"),
    "kernel": dict(default=DEFAULT_KERNEL, choices=KERNELS),
    "bandwidth": dict(default=DEFAULT_RULE, choices=tuple(r.replace("_", "-") for r in BANDWIDTH_RULES)),
    "mu": dict(type=_checked(int, lambda v: 2 <= v <= MAX_MU, f"in [2, {MAX_MU}]"), default=DEFAULT_MU),
    "jobs": dict(type=_at_least(1), default=1),
    "theta": dict(type=_OPEN_UNIT, default=DEFAULT_THETA),
    "seed": dict(type=_at_least(0), default=0),
    "model": dict(required=True, help="model file path"),
    "out": dict(help="output path (default: stdout)"),
    "format": dict(choices=("json", "tsv")),  # each verb sets its own default
    "method": dict(choices=METHODS, default="xnb"),
    "methods": dict(type=_method_list, default=DEFAULT_METHODS),
    "k": dict(type=_at_least(2), default=10),
    "alpha": dict(type=_OPEN_UNIT, default=DEFAULT_ALPHA),
    "p-max": dict(type=_OPEN_UNIT, default=DEFAULT_P_MAX),
    "r-min": dict(type=_checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"), default=DEFAULT_R_MIN),
    "max-pairs": dict(type=_at_least(1), default=DEFAULT_MAX_PAIRS),
}
# the flags that read a labeled CSV and build its densities and Hellinger table
_PIPELINE = ("data", "class-col", "kernel", "bandwidth", "mu", "jobs")


def build_parser() -> _Parser:
    parser = _Parser(prog="xnb", description="class-specific KDE naive Bayes toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    inspect = sub.add_parser("inspect", help="inspect pipeline intermediates")
    inspect_sub = inspect.add_subparsers(dest="what", required=True)

    def verb(group, name, help_text, func, flags, **defaults):
        p = group.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func, **defaults)

    verb(sub, "fit", "fit a model and save it", _cmd_fit, (*_PIPELINE, "theta", "model", "method"))
    verb(sub, "predict", "label unlabeled samples", _cmd_predict, ("data", "model", "out", "format"),
         format="tsv")
    verb(sub, "evaluate", "stratified cross-validation", _cmd_evaluate,
         (*_PIPELINE, "theta", "seed", "out", "methods", "k", "format"), format="json")
    verb(sub, "select", "per-class variable selection", _cmd_select, (*_PIPELINE, "theta", "out"))
    verb(sub, "diagnose", "normality and dependence scans", _cmd_diagnose,
         ("data", "class-col", "seed", "out", "alpha", "p-max", "r-min", "max-pairs"))
    verb(inspect_sub, "hellinger", "emit the distance table", _cmd_inspect_hellinger, (*_PIPELINE, "out"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
