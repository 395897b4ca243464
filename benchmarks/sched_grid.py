"""The scheduler's held-out grid: which engine is fastest, and the
regret of each fixed policy and of ``auto``.

32 self-joins: ``gaussian_mixture`` and ``high_dim_weakly_clustered``
at seed 7, n in {1024, 3072}, d in {4, 16, 64, 256}, k in {5, 20}.
Each time is the best of 2 wall-clock ``knn_join`` runs.  Regret is a
policy's time over the fastest engine on that shape.  Every engine's
answer is checked against ``brute``.

Run with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python benchmarks/sched_grid.py

The table is written to ``benchmarks/results/sched_grid.txt``.
"""

import math
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro import knn_join, sched
from repro.datasets import synthetic

ENGINES = ("ti-flat", "kdtree", "brute")
SEED = 7
RUNS = 2
OUT = Path(__file__).parent / "results" / "sched_grid.txt"


def shapes():
    for data in ("mixture", "highdim"):
        for n in (1024, 3072):
            for d in (4, 16, 64, 256):
                for k in (5, 20):
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
    rows, regrets = [], {name: [] for name in ENGINES + ("auto",)}
    picks, wins = {}, {name: 0 for name in ENGINES}
    for data, n, d, k in shapes():
        x = points(data, n, d)
        times = {}
        oracle = None
        for method in ("brute",) + ENGINES[:-1]:
            times[method], result = best_time(x, k, method)
            if method == "brute":
                oracle = result
            elif not result.matches(oracle):
                raise AssertionError("%s differs from brute on %s n=%d "
                                     "d=%d k=%d" % (method, data, n, d, k))
        auto = sched.decide(n, n, k, d, method="auto").engine
        picks[auto] = picks.get(auto, 0) + 1
        fastest = min(ENGINES, key=times.get)
        wins[fastest] += 1
        for name in ENGINES:
            regrets[name].append(times[name] / times[fastest])
        regrets["auto"].append(times[auto] / times[fastest])
        rows.append("%-8s %5d %4d %3d  %s  %-10s %s" % (
            data, n, d, k,
            "  ".join("%8.4f" % times[name] for name in ENGINES),
            fastest, auto))

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    lines = [
        "Scheduler held-out grid: best of %d knn_join self-joins, seed %d"
        % (RUNS, SEED),
        "host: %s, %d CPUs, numpy %s, OPENBLAS_NUM_THREADS=%s" % (
            platform.machine(), os.cpu_count(), np.__version__,
            os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        "",
        "data         n    d   k  %s  fastest    auto" % "  ".join(
            "%8s" % name for name in ENGINES),
    ] + rows + [
        "",
        "fastest: " + ", ".join("%s %d" % (name, wins[name])
                                for name in ENGINES),
        "auto picks: " + ", ".join("%s x%d" % item
                                   for item in sorted(picks.items())),
        "policy      geomean regret   max",
    ] + ["%-10s  %14.2fx  %5.2fx" % (name, geomean(regrets[name]),
                                      max(regrets[name]))
         for name in ("auto",) + ENGINES]
    text = "\n".join(lines) + "\n"
    OUT.write_text(text)
    print(text)


if __name__ == "__main__":
    main()
