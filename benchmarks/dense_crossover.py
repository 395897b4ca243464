"""The dense level-2 route's crossover (``repro.native.engine.DENSE_CROSSOVER``).

For every query of 30 indexes (4000 rows: Gaussian mixtures at four
separations and one weakly clustered set, d in {8, 29, 64, 128, 256,
512}; 128 held-out queries in 32-query batches, k = 20) this measures

* the query's pick estimate: the share of the live rows in the
  candidate clusters the scan could enter (``scan_numpy.dense_pick``);
* its TI scan on the C kernel, one query per call, best of 5, less the
  same call with no candidates (the per-call overhead a query cluster
  call shares);
* the dense route's cost per row of its 32-row batch, best of 5.

A crossover ``c`` routes a query dense when its estimate is at least
``c``; its cost on an index is the summed per-query cost of that
routing over the cost of the per-query best.  The table reports each
``c``'s geometric mean and maximum over the indexes, and the same for
the engine's own rule (``engine.dense_crossover``).  A last table asks
whether a d term beats one constant: one constant, one crossover per d
and the engine's form ``c·min(1, (DENSE_CROSSOVER_DIM / d) ** p)`` are
each fitted on the even query rows of every index and scored on the
odd ones.

The queries join the index's landmarks (``Index.join_plan``), and each
query's centre-distance row is the plan's, as ``ti_knn_join`` hands it to
level 2.

Run with one BLAS thread (needs the C kernel)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python benchmarks/dense_crossover.py

The table is written to ``benchmarks/results/dense_crossover.txt``.
"""

import math
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.filters import center_distance_rows
from repro.core.predicates import TopKPredicate
from repro.datasets import synthetic
from repro.index import Index
from repro.native import cscan, engine
from repro.native.layout import flat_targets

K = 20
N_TARGETS = 4000
N_QUERIES = 128
BATCH = 32
REPS = 5
CROSSOVERS = (math.inf, 0.99, 0.98, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5,
              0.3, 0.0)
#: The exponents ``p`` of the d form tried (0 is one constant).
POWERS = (0.0, 1 / 12, 1 / 8, 1 / 6, 1 / 4, 1 / 3)
OUT = Path(__file__).parent / "results" / "dense_crossover.txt"


def data_sets():
    for dim in (8, 29, 64, 128, 256, 512):
        for separation in (12.0, 4.0, 2.0, 1.0):
            yield dim, "mixture sep %g" % separation, separation
        yield dim, "weakly clustered", None


def points(dim, separation):
    rng = np.random.default_rng(3)
    n = N_TARGETS + N_QUERIES
    if separation is None:
        return synthetic.high_dim_weakly_clustered(
            n, dim, rng, intrinsic_dim=min(64, dim))
    return synthetic.gaussian_mixture(n, dim, rng, n_clusters=40,
                                      separation=separation,
                                      intrinsic_dim=min(6, dim))


def best_time(fn):
    best = math.inf
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def estimate(flat, row, cand):
    """The pick's estimate as a share of the live rows."""
    sizes = flat.offsets[cand + 1] - flat.offsets[cand]
    keys = row[cand] + flat.heads[cand]
    order = np.argsort(keys, kind="stable")
    held = np.cumsum(sizes[order])
    bound = keys[order][np.argmax(held >= K)] if held[-1] >= K else np.inf
    lows = row[cand] - flat.heads[cand]
    return sizes[lows <= bound].sum() / flat.member_idx.size


def measure(kernel, dim, separation):
    """Per query: (estimate, TI scan s, dense s)."""
    x = points(dim, separation)
    targets, queries = x[:N_TARGETS], x[N_TARGETS:]
    index = Index(targets, seed=0)
    flat = flat_targets(index.target_clusters)
    ti = cscan.BoundScan(kernel, flat)
    dense = engine.DenseScan(flat)
    out = []
    for start in range(0, N_QUERIES, BATCH):
        batch = queries[start:start + BATCH]
        plan = index.join_plan(batch)
        state = plan.level1_for(TopKPredicate(K))
        all_rows = np.empty((len(batch), flat.n_clusters))
        per_query = []
        for qc, members in enumerate(plan.query_clusters.members):
            if not members.size:
                continue
            cand, ub = state.candidates[qc], state.bounds[qc]
            rows = center_distance_rows(batch[members], plan.target_clusters,
                                        cand, plan.query_rows[members])
            all_rows[members] = rows
            for i, q in enumerate(members):
                one = (batch[q:q + 1], rows[i:i + 1])
                scan = best_time(lambda: ti.scan(*one, cand, ub, K))
                call = best_time(lambda: ti.scan(*one, cand[:0], ub, K))
                per_query.append((estimate(flat, rows[i], cand), scan - call))
        row_s = best_time(lambda: dense.scan(batch, all_rows, None, np.inf,
                                             K)) / len(batch)
        out.extend((est, scan, row_s) for est, scan in per_query)
    return np.array(out)


def _cost(table, crossover):
    """A routing's summed cost over the per-query best."""
    return (np.where(table[:, 0] >= crossover, table[:, 2], table[:, 1]).sum()
            / np.minimum(table[:, 1], table[:, 2]).sum())


def _scored(tables, dims, rule):
    """Geomean and maximum cost of ``rule(d)`` over the indexes."""
    costs = [_cost(t, rule(d)) for t, d in zip(tables, dims)]
    return math.exp(np.mean(np.log(costs))), max(costs)


def _d_form(c, power):
    return lambda d: c * min(1.0, (engine.DENSE_CROSSOVER_DIM / d) ** power)


def held_out(tables, dims):
    """One crossover, one per d and the engine's d form, each fitted on
    the even query rows of every index and scored on the odd ones."""
    fit = [t[0::2] for t in tables]
    rest = [t[1::2] for t in tables]

    def fitted(rules):
        return min(rules, key=lambda rule: _scored(fit, dims, rule[1])[0])

    one, _ = fitted([(c, lambda d, c=c: c) for c in CROSSOVERS])
    per_d = {}
    for dim in sorted(set(dims)):
        pick = [(t, d) for t, d in zip(fit, dims) if d == dim]
        per_d[dim] = min(CROSSOVERS, key=lambda c: _scored(
            [t for t, _ in pick], [d for _, d in pick], lambda d: c)[0])
    form, _ = fitted([((c, p), _d_form(c, p)) for c in CROSSOVERS
                      if c <= 1 for p in POWERS])
    rows = [("one crossover %s" % one, lambda d: one),
            ("per d " + " ".join("%d:%s" % item for item in per_d.items()),
             per_d.get),
            ("d form c=%s p=%.3f" % form, _d_form(*form))]
    return ["", "held out (fitted on even query rows, scored on odd ones)"] + [
        "%-48s geomean cost %.3fx" % (label, _scored(rest, dims, rule)[0])
        for label, rule in rows]


def main():
    kernel = cscan.load()
    if kernel is None:
        raise SystemExit("no C kernel: %s" % cscan.fallback_reason)
    lines = ["Dense route crossover: per-query TI scan vs dense row cost",
             "host: %s, %s cores, numpy %s, OPENBLAS_NUM_THREADS=%s" % (
                 platform.machine(), os.cpu_count(), np.__version__,
                 os.environ.get("OPENBLAS_NUM_THREADS")),
             "", "%4s  %-18s %9s %12s %12s %11s" % (
                 "d", "data", "est. med", "TI med us", "dense us",
                 "dense wins")]
    tables, dims = [], []
    for dim, label, separation in data_sets():
        t = measure(kernel, dim, separation)
        tables.append(t)
        dims.append(dim)
        lines.append("%4d  %-18s %9.3f %12.1f %12.1f %10.0f%%" % (
            dim, label, np.median(t[:, 0]), np.median(t[:, 1]) * 1e6,
            np.median(t[:, 2]) * 1e6, 100 * np.mean(t[:, 1] > t[:, 2])))
        print(lines[-1], flush=True)
    lines += ["", "%-10s %14s %8s" % ("crossover", "geomean cost", "max")]
    rules = [(c, lambda d, c=c: c) for c in CROSSOVERS]
    rules.append(("engine", engine.dense_crossover))
    for label, rule in rules:
        lines.append("%-10s %13.3fx %7.2fx" % (
            (label,) + _scored(tables, dims, rule)))
    lines += held_out(tables, dims)
    OUT.write_text("\n".join(lines) + "\n")
    print("\n".join(lines[-len(rules) - 6:]))


if __name__ == "__main__":
    main()
