"""Serving throughput — the ``repro.serve`` subsystem under load.

Unlike the figure/table benchmarks this does not reproduce a paper
artefact; it records the serving layer's acceptance criteria: a
sustained open-loop run over one shared target set must serve every
request from the cached index (>95% hit rate) with answers exactly
equal to a direct :func:`repro.knn_join` of the server's default engine
(``ti-flat``), and a deliberately saturated run must stay bounded —
typed rejections, no deadlock, no lost in-flight requests.
"""

import numpy as np
import pytest

from repro import knn_join
from repro.bench.reporting import emit, format_table
from repro.serve import KNNServer, ServeConfig, run_open_loop

N_REQUESTS = 240
N_TARGETS = 400
DIM = 8
K = 10

_reports = {}


@pytest.fixture(scope="module")
def workload(bench_seed):
    rng = np.random.default_rng(bench_seed)
    targets = rng.normal(size=(N_TARGETS, DIM))
    base = rng.choice(N_TARGETS, size=N_REQUESTS)
    queries = targets[base] + 0.05 * rng.normal(size=(N_REQUESTS, DIM))
    return targets, queries


@pytest.mark.paper_experiment("serving")
def test_sustained_load_is_cached_and_exact(benchmark, workload):
    targets, queries = workload

    # No degradation: brute's distances may differ from ti-flat's in
    # the last ulp, and this scenario asserts bit-equal answers.
    def serve():
        with KNNServer(degraded_method=None, max_batch_size=32) as server:
            return run_open_loop(server, targets, queries, K)

    report = benchmark.pedantic(serve, rounds=1, iterations=1)
    _reports["sustained"] = report

    assert report.served == N_REQUESTS
    assert report.rejected == 0 and report.expired == 0
    assert report.errors == []
    assert report.stats.cache_hit_rate > 0.95

    direct = knn_join(queries, targets, K, method=ServeConfig.method)
    for i, response in report.responses:
        assert np.array_equal(response.indices, direct.indices[i])
        assert np.array_equal(response.distances, direct.distances[i])

    benchmark.extra_info.update({
        "served_rps": round(report.served_rate, 1),
        "cache_hit_rate": round(report.stats.cache_hit_rate, 4),
        "p50_ms": round(1e3 * report.stats.latency_percentile(50), 3),
        "p99_ms": round(1e3 * report.stats.latency_percentile(99), 3),
    })


@pytest.mark.paper_experiment("serving")
def test_saturation_is_bounded_and_lossless(workload):
    targets, queries = workload
    with KNNServer(degraded_method="brute",
                   max_batch_size=8, max_wait_s=0.02,
                   max_queue_depth=8, degrade_at=0.5) as server:
        report = run_open_loop(server, targets, queries, K)
    _reports["saturated"] = report

    # Bounded queue: every request is either served or rejected with a
    # typed error — none lost, none deadlocked.
    assert report.served + report.rejected + report.expired == N_REQUESTS
    assert report.errors == []
    assert report.stats.queue_depth == 0

    direct = knn_join(queries, targets, K, method=ServeConfig.method)
    direct_brute = knn_join(queries, targets, K, method="brute")
    for i, response in report.responses:
        reference = direct_brute if response.degraded else direct
        assert np.array_equal(np.sort(response.indices),
                              np.sort(reference.indices[i]))
        assert np.allclose(response.distances, reference.distances[i],
                           rtol=0, atol=1e-9)
    _emit_table()


def _emit_table():
    rows = []
    for scenario in ("sustained", "saturated"):
        report = _reports.get(scenario)
        if report is None:
            continue
        stats = report.stats
        rows.append([
            scenario, report.n_requests, report.served, report.rejected,
            report.expired, stats.degraded,
            round(100.0 * stats.cache_hit_rate, 1),
            round(stats.mean_batch_rows, 1),
            round(1e3 * stats.latency_percentile(50), 2),
            round(1e3 * stats.latency_percentile(99), 2),
            round(report.served_rate, 1),
        ])
    text = format_table(
        "Serving throughput - repro.serve under open-loop load",
        ["scenario", "offered", "served", "rejected", "expired",
         "degraded", "cache hit %", "batch rows", "p50 ms", "p99 ms",
         "served/s"],
        rows,
        notes=["sustained: the default engine (ti-flat) and flush rule, "
               "no degradation; nothing is dropped; answers bit-equal "
               "to direct knn_join.",
               "saturated: queue depth 8 forces admission control; "
               "every request is served or typed-rejected."])
    emit("serving_throughput", text)
