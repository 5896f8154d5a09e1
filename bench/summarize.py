"""Fold run records into one trajectory point: per workload, the median and
quartiles of every metric over the runs.

Usage: python3 bench/summarize.py OUT.json [RESULT.json ...]

Without RESULT files it reads every `.bench_work/result-*.json`.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import WORK_DIR, metric_units


def summarize(records: list[dict]) -> dict:
    units = {group: metric_units(group) for group in ("end_to_end", "per_layer")}
    workloads: dict[str, dict] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        group = "per_layer" if r["trace"] else "end_to_end"
        entry = workloads.setdefault(r["workload"], {"seeds": {}, "attempted": 0, "failed": 0})
        entry["seeds"].setdefault(group, []).append(r["seed"])
        entry["attempted"] += r["attempted"]
        entry["failed"] += r["failed"]
        for name, value in r[group].items():
            entry.setdefault(group, {}).setdefault(name, []).append(value)
    for entry in workloads.values():
        for group in ("end_to_end", "per_layer"):
            for name, values in entry.get(group, {}).items():
                q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else (values[0],) * 3)
                entry[group][name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                      "runs": len(values), "unit": units[group].get(name)}
    facts = dict(records[0]["facts"]) if records else {}
    facts.pop("seed", None)
    return {"facts": facts, "workloads": workloads}


def main(argv: list[str]) -> int:
    out, paths = Path(argv[0]), [Path(p) for p in argv[1:]] or sorted(WORK_DIR.glob("result-*.json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    out.write_text(json.dumps(summarize(records), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
