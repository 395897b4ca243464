"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/system/compare.py A.jsonl B.jsonl

A and B hold run records appended by ``run.py --out`` (one JSON object
per line, typically several seeds per workload).  For every workload and
metric this prints each side's median and quartiles, B's change as a
share of A's median (positive means worse), the bound from
BENCHMARK.json and a verdict:

``within``      the medians differ by no more than the bound;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than the bound;
``unresolved``  either side's spread (quartile distance over median) is
                wider than the bound, and not every B run beats every A
                run.

Per-layer metrics have no bound and get the change only.  For runs made
with the same workload and seed on both sides, it also reports whether
the funnel counts of the leading ops and the failed-op counts are
identical.  Exit status 1 when a gated metric is worse, or when those
counts differ; 2 when the records mix run lengths or smoke runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summary(values):
    """(median, first quartile, third quartile, spread)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def verdict(a_values, b_values, lower_is_better, bound):
    """(signed change, verdict) of B against A; positive change = worse."""
    a_med, _, _, a_spread = summary(a_values)
    b_med, _, _, b_spread = summary(b_values)
    if a_med == 0:
        change = 0.0 if b_med == 0 else float("inf")
    else:
        change = (b_med - a_med) / abs(a_med)
    if not lower_is_better:
        change = -change
    if bound is None:
        return change, ""
    if max(a_spread, b_spread) > bound:
        if lower_is_better:
            b_wins = max(b_values) < min(a_values)
        else:
            b_wins = min(b_values) > max(a_values)
        return change, "better" if b_wins else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within"


def grouped(records):
    """{(workload, trace): {metric: [values]}}."""
    groups = defaultdict(lambda: defaultdict(list))
    for record in records:
        for name, value in record["metrics"].items():
            groups[(record["workload"], record["trace"])][name].append(value)
    return groups


def counts_by_seed(records):
    """{(workload, seed): (funnel, failed)} of records that keep a funnel."""
    return {(r["workload"], r["seed"]): (r["funnel"], r["failed"])
            for r in records if r["funnel"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="run records of the base side")
    parser.add_argument("b", help="run records of the side compared")
    args = parser.parse_args(argv)

    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_records, b_records = load_records(args.a), load_records(args.b)
    # Only runs of the same length and size measure the same thing.
    shapes = {(r["seconds"], r["smoke"]) for r in a_records + b_records}
    if len(shapes) > 1:
        print("compare.py: the records mix run lengths or smoke runs: %s"
              % sorted(shapes), file=sys.stderr)
        return 2
    a_groups, b_groups = grouped(a_records), grouped(b_records)

    status = 0
    print("%-16s %-34s %28s %28s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict"))
    for key in sorted(set(a_groups) & set(b_groups)):
        for name in sorted(set(a_groups[key]) & set(b_groups[key])):
            a_values, b_values = a_groups[key][name], b_groups[key][name]
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            change, outcome = verdict(a_values, b_values,
                                      meta.get("better", "lower") == "lower",
                                      bound)
            if outcome == "worse":
                status = 1
            a_med, a_q1, a_q3, _ = summary(a_values)
            b_med, b_q1, b_q3, _ = summary(b_values)
            print("%-16s %-34s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%+7.1f%% %6s  %s" % (
                      key[0], name, a_med, a_q1, a_q3, b_med, b_q1, b_q3,
                      100 * change,
                      "" if bound is None else "%.0f%%" % (100 * bound),
                      outcome))

    a_counts, b_counts = counts_by_seed(a_records), counts_by_seed(b_records)
    shared = sorted(set(a_counts) & set(b_counts))
    differing = [key for key in shared if a_counts[key] != b_counts[key]]
    print()
    print("funnel and failed-op counts: %d workload/seed pairs compared, %s"
          % (len(shared), "all identical" if not differing else
             "differ on %s" % ", ".join("%s seed %s" % key
                                        for key in differing)))
    if differing:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
