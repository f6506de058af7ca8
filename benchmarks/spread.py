"""Summarise recorded benchmark runs: medians, quartile spreads, drift.

    python3 benchmarks/spread.py RUNS.jsonl [--against EARLIER.jsonl]

``RUNS.jsonl`` holds lines appended by ``bench.py --record``.  For every
workload and end-to-end metric this prints the median over the untraced
runs, the distance between the first and third quartile as a share of the
median, and that spread as a share of the metric's bound in
BENCHMARK.json.  With ``--against``, it also prints how much worse each
median is than the earlier file's, as a share of the bound.  It exits 1
when a spread (``setup_s`` excepted) exceeds its bound or a median
drifts by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per untraced run]}}``."""
    values: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            run = json.loads(line)
            if run["trace"] == 0:
                for name, metric in run["metrics"].items():
                    values[run["workload"]][name].append(metric["value"])
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs")
    parser.add_argument("--against", help="an earlier record file of the same benchmark")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    runs = load(args.runs)
    earlier = load(args.against) if args.against else {}
    ok = True
    print(f"{'workload':<16} {'metric':<12} {'n':>3} {'median':>12} {'iqr/med':>8} "
          f"{'/bound':>7}" + (f" {'drift/bound':>11}" if earlier else ""))
    for workload in sorted(runs):
        for name, metric in declared.items():
            values = runs[workload][name]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"{workload:<16} {name:<12} {len(values):>3} {median:>12.6g} "
                    f"{spread:>8.4f} {spread / metric['bound']:>7.2f}")
            if name != "setup_s" and spread > metric["bound"]:
                ok = False
            before = earlier.get(workload, {}).get(name)
            if before:
                base = statistics.median(before)
                worse = (median - base) / base
                if metric["better"] == "higher":
                    worse = -worse
                line += f" {worse / metric['bound']:>11.2f}"
                if worse > metric["bound"]:
                    ok = False
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
