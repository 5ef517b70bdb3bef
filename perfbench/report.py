"""Summarize benchmark run records, and compare two sets of them.

    python3 perfbench/run.py --workload train --seed 3 --seconds 20 \
        --out runs/base/train-3.json          # one record per run
    python3 perfbench/report.py runs/base                 # medians, spreads
    python3 perfbench/report.py runs/base runs/head       # base vs head

Prints, per workload and end-to-end metric, the median, quartiles and
quartile spread of each set and, with two sets, the head's change against
the bound in ``BENCHMARK.json``.  Refuses (exit 2) to compare records whose
host identity differs (cores, BLAS and its pool size, ``REPRO_THREADS``,
scale, Python, numpy): numbers from different hosts or settings are not a
comparison.  Records marked invalid (an open-loop run whose generator fell
behind) or incorrect are listed and left out of the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import HOST_IDENTITY

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    records = [json.loads(path.read_text())
               for path in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"error: no run records in {directory}")
    return records


def identity(record: dict) -> dict:
    return {key: record["host"].get(key) for key in HOST_IDENTITY}


def summarize(records: list[dict]) -> dict:
    """(workload, metric) -> sorted values of the usable runs."""
    values: dict[tuple, list] = {}
    for record in records:
        result = record["result"]
        if record.get("invalid") or not result["correct"]:
            print(f"  left out: {record['workload']} seed {record['seed']} "
                  f"(invalid: {record.get('invalid')}, "
                  f"correct: {result['correct']})")
            continue
        for name, metric in result["metrics"].items():
            values.setdefault((record["workload"], name),
                              []).append(metric["value"])
    return values


def spread(values: list) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path, nargs="?")
    args = parser.parse_args(argv)
    sets = [load(args.base)] + ([load(args.head)] if args.head else [])
    reference = identity(sets[0][0])
    for records in sets:
        for record in records:
            if identity(record) != reference:
                print(f"error: host records differ, refusing to compare:\n"
                      f"  {reference}\n  {identity(record)}",
                      file=sys.stderr)
                return 2
    print("host " + json.dumps(reference, sort_keys=True))
    bounds = {metric["name"]: metric for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summaries = [summarize(records) for records in sets]
    for key in sorted(summaries[0]):
        workload, name = key
        median, q1, q3, share = spread(summaries[0][key])
        line = (f"{workload + '/' + name:<40} n={len(summaries[0][key]):<3} "
                f"median {median:11.4f} [{q1:.4f}, {q3:.4f}] "
                f"spread {share:6.3f}")
        if len(summaries) == 2 and key in summaries[1]:
            head = spread(summaries[1][key])[0]
            change = (head - median) / median
            metric = bounds.get(name)
            verdict = ""
            if metric is not None:
                worse = change if metric["better"] == "lower" else -change
                verdict = ("REGRESSION" if worse > metric["bound"]
                           else "within bound")
            line += f" -> head {head:11.4f} ({change:+.1%}) {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
