"""Sharded execution: the bit-for-bit correctness contract.

A sharded run must return *exactly* the serial run's neighbours,
distances and work counters — not approximately, not reordered — at
every worker count and for every pool kind.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro import SweetKNN, knn_join
from repro.errors import ValidationError
from repro.obs import Tracer, use_tracer
from repro.obs.funnel import funnel_from_stats
from repro.parallel import shutdown_pools

#: Work counters that must sum exactly across shards (the same tuple
#: the batched-execution tests assert over).
COUNTERS = ("level2_distance_computations", "center_distance_computations",
            "init_distance_computations", "examined_points",
            "candidate_cluster_pairs", "heap_updates")


def _assert_identical(sharded, serial):
    np.testing.assert_array_equal(sharded.indices, serial.indices)
    np.testing.assert_array_equal(sharded.distances, serial.distances)
    for counter in COUNTERS:
        assert getattr(sharded.stats, counter) == \
            getattr(serial.stats, counter), counter
    assert funnel_from_stats(sharded.stats) == \
        funnel_from_stats(serial.stats)


class TestShardDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["process", "thread"])
    def test_ti_cpu_bit_identical(self, clustered_points, workers, kind):
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="ti-cpu", seed=3)
        sharded = knn_join(clustered_points, clustered_points, 6,
                           method="ti-cpu", seed=3, workers=workers,
                           pool=kind)
        _assert_identical(sharded, serial)
        if workers > 1:
            assert sharded.stats.extra["workers"] == workers
            assert sharded.stats.extra["shards"] >= workers
            assert sharded.stats.extra["pool"] == kind

    @pytest.mark.parametrize("kind", ["process", "thread"])
    def test_sweet_bit_identical(self, clustered_points, kind):
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="sweet", seed=3)
        sharded = knn_join(clustered_points, clustered_points, 6,
                           method="sweet", seed=3, workers=2, pool=kind)
        _assert_identical(sharded, serial)
        assert sharded.sim_time_s > 0

    def test_uniform_data_bit_identical(self, uniform_points):
        serial = knn_join(uniform_points, uniform_points, 5,
                          method="ti-cpu", seed=7)
        sharded = knn_join(uniform_points, uniform_points, 5,
                           method="ti-cpu", seed=7, workers=2, pool="thread")
        _assert_identical(sharded, serial)

    def test_serial_pool_kind_matches_too(self, clustered_points):
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="ti-cpu", seed=3)
        sharded = knn_join(clustered_points, clustered_points, 6,
                           method="ti-cpu", seed=3, workers=2, pool="serial")
        _assert_identical(sharded, serial)

    def test_forced_tile_size_still_shards(self, clustered_points):
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="ti-cpu", seed=3, query_batch_size=40)
        sharded = knn_join(clustered_points, clustered_points, 6,
                           method="ti-cpu", seed=3, query_batch_size=40,
                           workers=2, pool="thread")
        _assert_identical(sharded, serial)
        assert sharded.stats.extra["shards"] == -(-len(clustered_points)
                                                  // 40)


class TestCallerBuildsStep1:
    def test_sweetknn_sharded_equals_serial(self, clustered_points):
        index = SweetKNN(clustered_points, seed=3, method="ti-cpu")
        serial = index.query(clustered_points, k=6)
        sharded = index.query(clustered_points, k=6, workers=2,
                              pool="thread")
        _assert_identical(sharded, serial)

    @pytest.mark.parametrize("run", [
        {"workers": 2, "pool": "serial"},
        {"workers": 2, "pool": "thread"},
        {"query_batch_size": 40},
    ], ids=["serial-pool", "thread-pool", "batched"])
    def test_prepare_runs_once_per_join_in_the_caller(
            self, clustered_points, monkeypatch, run):
        import repro.core.ti_knn as ti_knn

        real = ti_knn.prepare_clusters
        threads = []

        def counted(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(ti_knn, "prepare_clusters", counted)
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="ti-cpu", seed=3)
        # Two identical joins: each builds its own Step 1, once, on the
        # calling thread; nothing outlives the call to be reused.
        for _ in range(2):
            del threads[:]
            tiled = knn_join(clustered_points, clustered_points, 6,
                             method="ti-cpu", seed=3, **run)
            assert threads == [threading.current_thread()]
            _assert_identical(tiled, serial)

    def test_thread_pool_join_releases_its_targets(self, clustered_points):
        # Content no other test uses, so no earlier join's state could
        # stand in for this one's.
        targets = np.random.default_rng(97).normal(
            size=clustered_points.shape)
        ref = weakref.ref(targets)
        result = knn_join(clustered_points, targets, 6, method="ti-cpu",
                          seed=3, workers=2, pool="thread")
        assert result.stats.extra["shards"] >= 2
        del targets
        gc.collect()
        assert ref() is None


class TestObservability:
    def test_shard_spans_and_metrics(self, clustered_points):
        tracer = Tracer()
        with use_tracer(tracer):
            result = knn_join(clustered_points, clustered_points, 6,
                              method="ti-cpu", seed=3, workers=2,
                              pool="thread")

        shards = result.stats.extra["shards"]
        shard_spans = tracer.finished_spans("engine.shard")
        assert len(shard_spans) == shards
        for span in shard_spans:
            assert "worker" in span.attributes
            assert span.attributes["stop"] > span.attributes["start"]
        assert len(tracer.finished_spans("engine.shard_fanout")) == 1
        assert len(tracer.finished_spans("engine.shard_merge")) == 1
        assert tracer.registry.value("parallel.workers") == 2
        assert tracer.registry.value("parallel.shards") == shards

    def test_funnel_counters_published_once(self, clustered_points):
        tracer = Tracer()
        with use_tracer(tracer):
            result = knn_join(clustered_points, clustered_points, 6,
                              method="ti-cpu", seed=3, workers=2,
                              pool="thread")
        assert tracer.registry.value("join.examined_points") == \
            result.stats.examined_points


class TestErrorHandling:
    def test_worker_error_propagates_and_pool_survives(self,
                                                       clustered_points):
        with pytest.raises((ValueError, ValidationError)):
            knn_join(clustered_points, clustered_points, 6,
                     method="ti-cpu", seed=3, workers=2, pool="thread",
                     mq=0)
        after = knn_join(clustered_points, clustered_points, 6,
                         method="ti-cpu", seed=3, workers=2, pool="thread")
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="ti-cpu", seed=3)
        _assert_identical(after, serial)

    def test_shutdown_pools_is_clean(self, clustered_points):
        knn_join(clustered_points, clustered_points, 6, method="ti-cpu",
                 seed=3, workers=2, pool="thread")
        shutdown_pools()
        # Pools are recreated on demand after a global shutdown.
        again = knn_join(clustered_points, clustered_points, 6,
                         method="ti-cpu", seed=3, workers=2, pool="thread")
        serial = knn_join(clustered_points, clustered_points, 6,
                          method="ti-cpu", seed=3)
        _assert_identical(again, serial)
