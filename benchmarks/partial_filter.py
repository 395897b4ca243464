"""Does the partial level-2 filter pay on the host flat tier?

Sweet KNN runs its partial filter (fixed θ = UB, no ``kNearests`` kept
during the scan, a k-select afterwards) when ``k/d > 8`` (Fig. 8).
This script times the full-filter flat engine ``ti-flat`` against the
partial-filter flat engine ``sweet-flat`` on 20 self-joins where that
rule picks the partial filter: ``gaussian_mixture`` and
``high_dim_weakly_clustered`` at seed 7, n in {1024, 3072} and
(d, k) in {(1, 10), (1, 20), (2, 20), (2, 40), (4, 40)}.  Each time is
the best of 3 wall-clock ``knn_join`` runs; every answer is checked
against ``brute``.

``sweet-flat`` was removed at the commit after ``062fe8c`` on the
strength of this table (docs/SCHEDULER.md), so run the script against
a checkout of ``062fe8c``, with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=<checkout>/src \\
        python benchmarks/partial_filter.py

The table is written to ``benchmarks/results/partial_filter.txt``.
"""

import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import engine_names, knn_join, sched
from repro.datasets import synthetic

FULL, PARTIAL = "ti-flat", "sweet-flat"
SEED = 7
RUNS = 3
OUT = Path(__file__).parent / "results" / "partial_filter.txt"


def shapes():
    for data in ("mixture", "highdim"):
        for n in (1024, 3072):
            for d, k in ((1, 10), (1, 20), (2, 20), (2, 40), (4, 40)):
                yield data, n, d, k


def points(data, n, d):
    rng = np.random.default_rng(SEED)
    if data == "mixture":
        return synthetic.gaussian_mixture(n, d, rng)
    return synthetic.high_dim_weakly_clustered(n, d, rng)


def best_time(x, k, method):
    best, result = math.inf, None
    for _ in range(RUNS):
        start = time.perf_counter()
        result = knn_join(x, x, k, method=method)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    if PARTIAL not in engine_names():
        sys.exit("%s is not registered in this tree; run this script "
                 "against a checkout of 062fe8c" % PARTIAL)
    rows, ratios = [], []
    for data, n, d, k in shapes():
        x = points(data, n, d)
        oracle = knn_join(x, x, k, method="brute")
        times = {}
        for method in (FULL, PARTIAL):
            times[method], result = best_time(x, k, method)
            if not result.matches(oracle):
                raise AssertionError("%s differs from brute on %s n=%d "
                                     "d=%d k=%d" % (method, data, n, d, k))
        auto = sched.decide(n, n, k, d, method="auto").engine
        ratio = times[PARTIAL] / times[FULL]
        ratios.append(ratio)
        rows.append("%-8s %5d %3d %3d  %8.4f  %10.4f  %6.2f  %s" % (
            data, n, d, k, times[FULL], times[PARTIAL], ratio, auto))

    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    faster = [r for r in ratios if r < 1.0]
    lines = [
        "Partial vs full filter on the flat tier: best of %d knn_join "
        "self-joins, seed %d, k/d > 8" % (RUNS, SEED),
        "host: %s, %d CPUs, numpy %s, OPENBLAS_NUM_THREADS=%s" % (
            platform.machine(), os.cpu_count(), np.__version__,
            os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        "",
        "data         n   d   k   %s  %s  ratio  auto" % (FULL, PARTIAL),
    ] + rows + [
        "",
        "ratio = %s time / %s time (above 1: the partial filter is "
        "slower)" % (PARTIAL, FULL),
        "geomean ratio %.2f, max %.2f; %s faster on %d of %d shapes%s" % (
            geomean, max(ratios), PARTIAL, len(faster), len(ratios),
            (", by at most %.2fx" % (1.0 / min(faster))) if faster else ""),
    ]
    text = "\n".join(lines) + "\n"
    OUT.write_text(text)
    print(text)


if __name__ == "__main__":
    main()
