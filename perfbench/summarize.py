#!/usr/bin/env python3
"""Summarize benchmark result records into one point of the trajectory.

Reads the records ``run.py`` wrote under ``perfbench/_work/results/`` and
writes, per workload and metric, the median and quartiles over the runs
together with the spread (interquartile distance over the median), the
run count and the environment of the first record.  From the repository
root:

    python3 perfbench/summarize.py --out perfbench/baseline/<label>.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(records: list) -> dict:
    out = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        section = out.setdefault(rec["workload"], {}).setdefault(
            "end_to_end" if rec["trace"] == 0 else "per_layer", {"runs": 0, "seeds": []})
        section["runs"] += 1
        section["seeds"].append(rec["seed"])
        section["correct"] = section.get("correct", True) and not rec["failures"]
        section.setdefault("environment", rec["environment"])
        for name, metric in rec["metrics"].items():
            entry = section.setdefault("metrics", {}).setdefault(
                name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for workload in out.values():
        for section in workload.values():
            for entry in section["metrics"].values():
                values = entry.pop("values")
                median = statistics.median(values)
                entry["median"] = median
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    entry["q1"], entry["q3"] = q1, q3
                    entry["spread"] = (q3 - q1) / median if median else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", default=os.path.join(HERE, "_work", "results"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    records = []
    for path in sorted(glob.glob(os.path.join(args.results, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        print(f"no records under {args.results}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(summarize(records), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
