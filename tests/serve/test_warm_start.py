"""Warm-start serving: a server preloaded from a saved index directory
answers its very first request from the cache, with no build."""

import numpy as np
import pytest

from repro import knn_join
from repro.errors import ValidationError
from repro.index import Index
from repro.serve import KNNServer, ServeConfig


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    targets = rng.normal(size=(300, 7))
    queries = rng.normal(size=(50, 7))
    return targets, queries


@pytest.fixture
def index_dir(tmp_path, data):
    targets, _ = data
    path = tmp_path / "served-idx"
    # seed=0 / mt=None match the ServeConfig defaults, so the server's
    # lookup key lands on the preloaded entry.
    Index(targets, seed=0).save(path)
    return path


class TestWarmStart:
    def test_first_request_is_a_cache_hit(self, index_dir, data):
        targets, queries = data
        config = ServeConfig(method="ti-cpu", index_dir=str(index_dir),
                             max_wait_s=0.005)
        with KNNServer(config) as server:
            response = server.query(queries[:5], targets, k=4)
            stats = server.stats()
        assert stats.cache_misses == 0
        assert stats.cache_hits >= 1
        assert response.distances.shape == (5, 4)

    def test_served_answers_match_direct_join(self, index_dir, data):
        targets, queries = data
        config = ServeConfig(method="ti-cpu", index_dir=str(index_dir),
                             max_wait_s=0.005)
        with KNNServer(config) as server:
            response = server.query(queries, targets, k=6)
        direct = knn_join(queries, targets, 6, method="brute")
        np.testing.assert_array_equal(response.indices, direct.indices)
        np.testing.assert_array_equal(response.distances, direct.distances)

    def test_unrelated_targets_still_build(self, index_dir, data):
        """Preloading is a cache seed, not a restriction: traffic over
        different targets misses and builds as usual."""
        _, queries = data
        other = np.random.default_rng(77).normal(size=(120, 7))
        config = ServeConfig(method="ti-cpu", index_dir=str(index_dir),
                             max_wait_s=0.005)
        with KNNServer(config) as server:
            response = server.query(queries[:3], other, k=3)
            stats = server.stats()
        assert stats.cache_misses == 1
        direct = knn_join(queries[:3], other, 3, method="brute")
        np.testing.assert_array_equal(response.indices, direct.indices)

    def test_bad_index_dir_fails_at_startup(self, tmp_path):
        config = ServeConfig(method="ti-cpu",
                             index_dir=str(tmp_path / "missing"))
        with pytest.raises(ValidationError):
            KNNServer(config)

    def test_two_worker_server_parity(self, index_dir, data):
        """The CI round-trip contract: fresh process + preloaded index
        + 2 serving workers == direct knn_join, exactly."""
        targets, queries = data
        config = ServeConfig(method="ti-cpu", index_dir=str(index_dir),
                             workers=2, max_wait_s=0.005)
        with KNNServer(config) as server:
            response = server.query(queries, targets, k=5)
            stats = server.stats()
        assert stats.cache_misses == 0
        direct = knn_join(queries, targets, 5, method="brute")
        np.testing.assert_array_equal(response.indices, direct.indices)
        np.testing.assert_array_equal(response.distances, direct.distances)
