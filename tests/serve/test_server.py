"""Tests for :class:`repro.serve.KNNServer`.

The load-bearing invariant: every served answer is exactly what a
direct :func:`repro.knn_join` call returns for the same queries — under
concurrency, under queue saturation, under deadline expiry, and under
degradation to the fallback engine.
"""

import threading

import numpy as np
import pytest

from repro import knn_join
from repro.errors import (DeadlineExceeded, Overloaded, ServeError,
                          ValidationError)
from repro.serve import KNNServer, ServeConfig


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    targets = rng.normal(size=(250, 6))
    queries = rng.normal(size=(80, 6))
    return targets, queries


@pytest.fixture
def server(data):
    targets, _ = data
    with KNNServer(method="ti-cpu", max_wait_s=0.005) as srv:
        yield srv


class TestBasics:
    def test_single_point_round_trip(self, server, data):
        targets, queries = data
        response = server.query(queries[0], targets, k=5)
        direct = knn_join(queries[:1], targets, 5, method="ti-cpu")
        assert response.distances.shape == (5,)
        assert np.array_equal(response.indices, direct.indices[0])
        assert np.array_equal(response.distances, direct.distances[0])

    def test_batch_request_round_trip(self, server, data):
        targets, queries = data
        response = server.query(queries[:7], targets, k=4)
        direct = knn_join(queries[:7], targets, 4, method="ti-cpu")
        assert response.distances.shape == (7, 4)
        assert np.array_equal(response.indices, direct.indices)
        assert np.array_equal(response.distances, direct.distances)

    def test_repeat_traffic_hits_index_cache(self, server, data):
        targets, queries = data
        for i in range(6):
            server.query(queries[i], targets.copy(), k=3)
        stats = server.stats()
        assert stats.cache_misses == 1
        assert stats.cache_hits >= 5

    def test_response_metadata(self, server, data):
        targets, queries = data
        response = server.query(queries[0], targets, k=3)
        assert response.engine == "ti-cpu"
        assert not response.degraded
        assert response.latency_s >= 0
        assert response.batch_rows >= 1

    def test_sweet_engine_serves_exact_answers(self, data):
        targets, queries = data
        with KNNServer(method="sweet", max_wait_s=0.002) as srv:
            response = srv.query(queries[:4], targets, k=5)
        direct = knn_join(queries[:4], targets, 5, method="sweet")
        assert np.array_equal(response.indices, direct.indices)
        assert np.array_equal(response.distances, direct.distances)

    def test_default_engine_is_the_host_flat_tier(self, data):
        targets, queries = data
        with KNNServer(max_wait_s=0.002) as srv:
            response = srv.query(queries[:4], targets, k=5)
        direct = knn_join(queries[:4], targets, 5, method="ti-flat")
        assert response.engine == "ti-flat"
        assert np.array_equal(response.indices, direct.indices)
        assert np.array_equal(response.distances, direct.distances)


class TestValidation:
    def test_primary_engine_must_support_prepared_index(self):
        with pytest.raises(ValidationError):
            KNNServer(method="brute")

    def test_mt_option_rejected_per_request(self, server, data):
        targets, queries = data
        with pytest.raises(ValidationError):
            server.submit(queries[0], targets, 3, mt=5)

    def test_submit_requires_started_server(self, data):
        targets, queries = data
        srv = KNNServer(method="ti-cpu")
        with pytest.raises(ServeError):
            srv.submit(queries[0], targets, 3)

    def test_config_and_overrides_compose(self):
        config = ServeConfig(method="ti-cpu", max_batch_size=16)
        srv = KNNServer(config, max_queue_depth=7)
        assert srv.config.max_batch_size == 16
        assert srv.config.max_queue_depth == 7

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValidationError):
            KNNServer(method="ti-cpu", degrade_at=0.0)
        with pytest.raises(ValidationError):
            KNNServer(method="ti-cpu", max_batch_size=0)


class TestConcurrencyDeterminism:
    """Satellite: N threads hammering the server get bit-identical
    neighbour sets to direct ``knn_join`` calls, including under forced
    queue saturation and deadline expiry."""

    N_THREADS = 6
    PER_THREAD = 10

    def _hammer(self, server, targets, queries, k, outcomes, idx,
                deadline_s=None):
        served, failed = [], 0
        for i in range(self.PER_THREAD):
            row = (idx * self.PER_THREAD + i) % len(queries)
            try:
                response = server.query(queries[row], targets, k,
                                        deadline_s=deadline_s, timeout=30)
                served.append((row, response))
            except (Overloaded, DeadlineExceeded):
                failed += 1
        outcomes[idx] = (served, failed)

    def _assert_bit_identical(self, served, direct):
        for row, response in served:
            assert np.array_equal(response.indices, direct.indices[row])
            assert np.array_equal(response.distances,
                                  direct.distances[row])

    def test_threads_get_exact_answers(self, data):
        targets, queries = data
        direct = knn_join(queries, targets, 5, method="ti-cpu")
        outcomes = [None] * self.N_THREADS
        with KNNServer(method="ti-cpu", max_wait_s=0.003) as server:
            threads = [threading.Thread(
                target=self._hammer,
                args=(server, targets, queries, 5, outcomes, t))
                for t in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        total_served = 0
        for served, failed in outcomes:
            assert failed == 0
            total_served += len(served)
            self._assert_bit_identical(served, direct)
        assert total_served == self.N_THREADS * self.PER_THREAD

    def test_saturation_keeps_answers_exact_and_loses_nothing(self, data):
        targets, queries = data
        direct = knn_join(queries, targets, 4, method="ti-cpu")
        outcomes = [None] * self.N_THREADS
        server = KNNServer(method="ti-cpu", degraded_method="brute",
                           max_wait_s=0.02, max_queue_depth=4,
                           degrade_at=0.5)
        direct_brute = knn_join(queries, targets, 4, method="brute")
        with server:
            threads = [threading.Thread(
                target=self._hammer,
                args=(server, targets, queries, 4, outcomes, t))
                for t in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        stats = server.stats()
        total_served = sum(len(served) for served, _ in outcomes)
        total_failed = sum(failed for _, failed in outcomes)
        # No lost requests: every submission either served or rejected.
        assert total_served + total_failed == \
            self.N_THREADS * self.PER_THREAD
        assert stats.served == total_served
        assert stats.rejected + stats.expired == total_failed
        assert stats.queue_depth == 0
        for served, _ in outcomes:
            for row, response in served:
                if response.degraded:
                    assert response.engine == "brute"
                    assert np.array_equal(np.sort(response.indices),
                                          np.sort(direct_brute.indices[row]))
                    assert np.allclose(response.distances,
                                       direct_brute.distances[row],
                                       rtol=0, atol=0)
                else:
                    assert np.array_equal(response.indices,
                                          direct.indices[row])
                    assert np.array_equal(response.distances,
                                          direct.distances[row])

    def test_deadline_expiry_under_load(self, data):
        targets, queries = data
        direct = knn_join(queries, targets, 3, method="ti-cpu")
        outcomes = [None] * 4
        with KNNServer(method="ti-cpu", max_wait_s=0.05) as server:
            threads = [threading.Thread(
                target=self._hammer,
                args=(server, targets, queries, 3, outcomes, t),
                kwargs={"deadline_s": 0.0 if t % 2 else None})
                for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for t, (served, failed) in enumerate(outcomes):
            if t % 2:   # deadline 0: everything expires, nothing served
                assert failed == self.PER_THREAD
                assert served == []
            else:
                assert failed == 0
                self._assert_bit_identical(served, direct)
        assert server.stats().expired == 2 * self.PER_THREAD


class TestDegradation:
    def test_burst_degrades_and_stays_exact(self, data):
        targets, queries = data
        server = KNNServer(method="ti-cpu", degraded_method="brute",
                           max_wait_s=0.1, max_queue_depth=20,
                           degrade_at=0.5, max_batch_size=64)
        futures = []
        with server:
            for i in range(20):
                futures.append((i, server.submit(queries[i], targets, 4)))
            responses = [(i, f.result(timeout=30)) for i, f in futures]
        assert any(r.degraded for _, r in responses)
        assert server.stats().degraded > 0
        direct = knn_join(queries[:20], targets, 4, method="ti-cpu")
        for i, response in responses:
            assert np.array_equal(np.sort(response.indices),
                                  np.sort(direct.indices[i]))
            assert np.allclose(response.distances, direct.distances[i],
                               rtol=0, atol=1e-9)

    def test_degraded_batch_skips_removed_rows(self, data, monkeypatch):
        targets, _ = data
        server = KNNServer(method="ti-cpu", degraded_method="brute",
                           max_wait_s=0.005)
        run_batch = server._run_batch
        monkeypatch.setattr(
            server, "_run_batch",
            lambda requests, pressure: run_batch(requests, 1.0))
        index, _ = server.store.get(targets)
        index.remove(np.arange(5))
        queries = targets[:5] + 1e-3
        with server:
            response = server.query(queries, targets, k=1)
        assert response.degraded
        live = index.active_ids()
        direct = knn_join(queries, targets[live], 1, method="brute")
        assert not np.array_equal(response.indices[:, 0], np.arange(5))
        assert np.array_equal(response.indices, live[direct.indices])
        assert np.array_equal(response.distances, direct.distances)

    def test_degradation_disabled(self, data):
        targets, queries = data
        server = KNNServer(method="ti-cpu", degraded_method=None,
                           max_wait_s=0.05, max_queue_depth=10)
        with server:
            futures = [server.submit(queries[i], targets, 3)
                       for i in range(10)]
            responses = [f.result(timeout=30) for f in futures]
        assert not any(r.degraded for r in responses)


class TestLifecycle:
    def test_stop_drains_in_flight_requests(self, data):
        targets, queries = data
        server = KNNServer(method="ti-cpu", max_wait_s=10.0)
        server.start()
        futures = [server.submit(queries[i], targets, 3)
                   for i in range(5)]
        server.stop()                   # long max_wait: drain must flush
        direct = knn_join(queries[:5], targets, 3, method="ti-cpu")
        for i, future in enumerate(futures):
            response = future.result(timeout=1)
            assert np.array_equal(response.indices, direct.indices[i])

    def test_context_manager_restarts(self, data):
        targets, queries = data
        server = KNNServer(method="ti-cpu")
        with server:
            server.query(queries[0], targets, 3)
        assert not server.running
        with server:                    # restartable
            server.query(queries[1], targets, 3)
        assert server.stats().served == 2
