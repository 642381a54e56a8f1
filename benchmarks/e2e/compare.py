"""Compare two sets of runs, metric by metric, with the benchmark's bounds.

    python3 benchmarks/e2e/compare.py out/set-a.json out/set-b.json

One row per workload x metric: both medians, the ratio B/A with its base,
each set's spread (interquartile distance over the median), and a verdict.
``within`` means B's median is no worse than A's by more than the metric's
bound from ``BENCHMARK.json``; where either set's spread exceeds the bound
the row reads ``unresolved``, not unchanged, unless every run of B is
better than every run of A. Per-layer metrics have no bound and are listed
for information. Exit status 1 if any end-to-end row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` cuts."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """The row's verdict and how much worse B's median is (as a share of
    A's median; negative when B is better)."""
    base, new = statistics.median(a), statistics.median(b)
    if base == 0:
        return ("within" if new == 0 else "unresolved"), 0.0
    change = (new - base) / base
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("better" if b_wins else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    return ("better" if worse_by < -bound else "within"), worse_by


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as f:
        set_a: Dict[str, Dict[str, List[float]]] = json.load(f)
    with open(argv[1]) as f:
        set_b: Dict[str, Dict[str, List[float]]] = json.load(f)
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    informational = {m["name"]: m for m in spec["per_layer"]}
    status = 0
    print(f"{'workload':15} {'metric':42} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload in sorted(set(set_a) & set(set_b)):
        for metric in set_a[workload]:
            a, b = set_a[workload][metric], set_b[workload].get(metric)
            if not b or metric.startswith("_"):
                continue
            spec_row = bounded.get(metric) or informational.get(metric)
            if spec_row is None:
                continue
            bound = spec_row.get("bound")
            base, new = statistics.median(a), statistics.median(b)
            ratio = f"{new / base:7.3f}" if base else "    n/a"
            if bound is None:
                row = "info"
            else:
                row, _ = verdict(a, b, spec_row["better"], bound)
                if row == "worse":
                    status = 1
            print(f"{workload:15} {metric:42} {base:12.6g} {new:12.6g} "
                  f"{ratio} {spread(a):9.3f} {spread(b):9.3f} "
                  f"{bound if bound is not None else '':>6}  {row}"
                  f"  (base {base:.6g} {spec_row['unit']}, "
                  f"n={len(a)}/{len(b)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
