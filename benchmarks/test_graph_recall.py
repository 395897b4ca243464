"""Graph tier vs exact TI — recall/latency trade-off (not a paper
figure; the motivating case *is* in the paper).

Table IV of Sweet KNN shows the TI filter collapsing on
high-intrinsic-dimension data: on arcene (d=10000) the funnel saves
almost nothing and every query degenerates to a brute scan.  The
:mod:`repro.graph` tier (PR 7) is the repository's answer: an
NN-descent k-NN graph whose query cost tracks the graph degree rather
than ``|T|``, at a *measured* recall cost.

Two workloads:

* **clustered** — the paper's favourable regime (low intrinsic
  dimension, clear blobs).  Exact TI already prunes most distances
  here; the graph's speedup is modest and this table documents that
  honestly.
* **arcene-like** — high ambient dimension with moderate intrinsic
  dimension (a random linear embedding), the regime the exact filter
  cannot prune.  This is where the approximate tier earns its keep,
  and where the acceptance floors are asserted: at the ``ef`` the
  stored calibration curve picks for ``recall_target=0.9``, the walk
  must measure recall@10 >= 0.9 on held-out queries while answering
  at least ``MIN_SPEEDUP``x faster than the exact TI join.

Recorded in ``BENCH_graph_recall.json``: per-set exact timings and
saved fractions, the full (ef, recall, query_time_s, speedup) sweep,
the calibration curve, and the calibrated operating point.
"""

import time

import numpy as np
import pytest

from repro.bench.reporting import emit, emit_json, format_table
from repro.core.ti_knn import ti_knn_join
from repro.graph import GraphConfig, build_graph, calibrate
from repro.graph.recall import measured_recall
from repro.graph.search import graph_knn_search
from repro.index import Index

K = 10
N_QUERIES = 128
EF_SWEEP = (32, 64, 128, 256)
RECALL_TARGET = 0.9

#: Acceptance floors, asserted on the arcene-like set at the
#: calibrated ef.
MIN_RECALL = 0.9
MIN_SPEEDUP = 5.0
#: Only assert the wall-clock ratio when the exact join is comfortably
#: above timer noise (mirrors the warm-start benchmark's gate).
MIN_MEASURABLE_EXACT_S = 0.2


def _clustered_set(rng):
    """The paper's favourable regime: blobs with low intrinsic dim."""
    n, dim = 4000, 32
    centers = rng.normal(scale=8.0, size=(48, dim))
    points = np.concatenate(
        [center + rng.normal(scale=0.6, size=(n // 48, dim))
         for center in centers])
    return "clustered", points


def _arcene_like_set(rng):
    """High ambient dimension, moderate intrinsic dimension: a random
    linear embedding of a 40-d latent cloud into 200 dimensions —
    the shape on which Table IV reports the TI funnel collapsing."""
    n, ambient, intrinsic = 6000, 200, 40
    latent = rng.normal(size=(n, intrinsic))
    mix = rng.normal(size=(intrinsic, ambient)) / np.sqrt(intrinsic)
    points = latent @ mix + 0.01 * rng.normal(size=(n, ambient))
    return "arcene-like", points


def _probe_like_queries(targets, rng):
    rows = rng.integers(0, len(targets), size=N_QUERIES)
    scale = targets.std(axis=0)
    return targets[rows] + 0.05 * scale * rng.standard_normal(
        (N_QUERIES, targets.shape[1]))


def _bench_one(name, targets, rng):
    queries = _probe_like_queries(targets, rng)

    start = time.perf_counter()
    index = Index(targets, seed=1)
    index_build_s = time.perf_counter() - start

    start = time.perf_counter()
    graph = build_graph(index, GraphConfig(graph_k=24, sample=256),
                        seed=9)
    graph_build_s = time.perf_counter() - start
    curve = calibrate(graph, index, k=K, ef_grid=EF_SWEEP, n_probe=96)

    exact_rng = np.random.default_rng(2)
    plan = index.join_plan(queries)
    start = time.perf_counter()
    exact = ti_knn_join(queries, targets, K, exact_rng, plan=plan)
    exact_s = time.perf_counter() - start

    sweep = []
    for ef in EF_SWEEP:
        start = time.perf_counter()
        approx = graph_knn_search(graph, queries, targets, K, ef=ef)
        approx_s = time.perf_counter() - start
        sweep.append({
            "ef": ef,
            "recall": round(measured_recall(approx.indices,
                                            exact.indices), 4),
            "query_time_s": round(approx_s, 6),
            "speedup": round(exact_s / max(approx_s, 1e-9), 2),
            "distances_per_query": int(
                approx.stats.level2_distance_computations
                // len(queries)),
        })

    calibrated_ef = graph.ef_for(RECALL_TARGET, K)
    calibrated = next((entry for entry in sweep
                       if entry["ef"] == calibrated_ef), None)
    if calibrated is None:
        start = time.perf_counter()
        approx = graph_knn_search(graph, queries, targets, K,
                                  ef=calibrated_ef)
        approx_s = time.perf_counter() - start
        calibrated = {
            "ef": int(calibrated_ef),
            "recall": round(measured_recall(approx.indices,
                                            exact.indices), 4),
            "query_time_s": round(approx_s, 6),
            "speedup": round(exact_s / max(approx_s, 1e-9), 2),
            "distances_per_query": int(
                approx.stats.level2_distance_computations
                // len(queries)),
        }

    return {
        "dataset": name,
        "n_targets": int(len(targets)),
        "dim": int(targets.shape[1]),
        "k": K,
        "n_queries": N_QUERIES,
        "index_build_s": round(index_build_s, 6),
        "graph_build_s": round(graph_build_s, 6),
        "graph_build_distances": int(graph.build_distance_computations),
        "graph_iterations": list(graph.iteration_updates),
        "exact_query_time_s": round(exact_s, 6),
        "exact_saved_fraction": round(exact.stats.saved_fraction, 4),
        "calibration": curve.describe(),
        "recall_target": RECALL_TARGET,
        "calibrated": calibrated,
        "sweep": sweep,
    }


@pytest.mark.paper_experiment("graph_recall")
def test_graph_recall():
    rng = np.random.default_rng(17)
    records = [_bench_one(*_clustered_set(rng), rng=rng),
               _bench_one(*_arcene_like_set(rng), rng=rng)]

    rows = []
    for record in records:
        rows.append([record["dataset"], "exact TI", "-", "1.00",
                     "%.1f" % (1e3 * record["exact_query_time_s"]),
                     "1.0",
                     "%.1f%%" % (100 * record["exact_saved_fraction"])])
        for entry in record["sweep"]:
            marker = ("*" if entry["ef"] == record["calibrated"]["ef"]
                      else "")
            rows.append([record["dataset"],
                         "graph-bfs%s" % marker, entry["ef"],
                         "%.3f" % entry["recall"],
                         "%.1f" % (1e3 * entry["query_time_s"]),
                         "%.1f" % entry["speedup"],
                         "-"])
    emit("graph_recall", format_table(
        "Approximate graph tier vs exact TI (k=%d, %d queries; * = ef "
        "calibrated for recall >= %.1f)" % (K, N_QUERIES, RECALL_TARGET),
        ["dataset", "engine", "ef", "recall@%d" % K, "query ms",
         "speedup(x)", "TI saved"],
        rows,
        notes=["exact TI saves %.1f%% of distances on the clustered set "
               "but only %.1f%% on the arcene-like set — the regime the "
               "graph tier exists for"
               % (100 * records[0]["exact_saved_fraction"],
                  100 * records[1]["exact_saved_fraction"])]))
    emit_json("graph_recall", {"recall_target": RECALL_TARGET,
                               "min_recall": MIN_RECALL,
                               "min_speedup": MIN_SPEEDUP,
                               "datasets": records})

    # Acceptance floors on the high-dimensional set.
    high_dim = records[1]
    operating = high_dim["calibrated"]
    assert operating["recall"] >= MIN_RECALL, (
        "calibrated ef=%d measured recall %.3f < %.2f"
        % (operating["ef"], operating["recall"], MIN_RECALL))
    if high_dim["exact_query_time_s"] >= MIN_MEASURABLE_EXACT_S:
        assert operating["speedup"] >= MIN_SPEEDUP, (
            "calibrated ef=%d speedup %.1fx < %.1fx"
            % (operating["ef"], operating["speedup"], MIN_SPEEDUP))
