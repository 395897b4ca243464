"""Recall-targeted serving: per-request routing between the exact
engines and the approximate graph tier.

The contract under test: ``recall_target=None`` is bit-identical to
pre-graph serving; a target routes to the graph tier only when the
store's index carries a *fresh* graph artifact, and every response
reports which path served it.
"""

import numpy as np
import pytest

from repro import knn_join
from repro.errors import ValidationError
from repro.graph import GraphConfig
from repro.graph.recall import measured_recall
from repro.index import Index
from repro.serve import KNNServer, ServeConfig, run_open_loop


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(31)
    blobs = [rng.normal(size=(120, 6)) + offset
             for offset in (0.0, 7.0, -7.0)]
    targets = np.concatenate(blobs)
    rng.shuffle(targets)
    rows = rng.integers(0, len(targets), size=40)
    queries = targets[rows] + rng.normal(scale=0.05, size=(40, 6))
    return targets, queries


@pytest.fixture(scope="module")
def graph_index_dir(tmp_path_factory, data):
    """A saved index with a calibrated graph artifact (seed=0 matches
    the ServeConfig default, so the server preloads it)."""
    targets, _ = data
    path = tmp_path_factory.mktemp("routing") / "idx"
    index = Index(targets, seed=0)
    index.build_graph(GraphConfig(graph_k=12, sample=64), k=5,
                      n_probe=32)
    index.save(path)
    return path


def _server(index_dir=None, **overrides):
    kwargs = dict(method="ti-cpu", max_wait_s=0.005,
                  index_dir=str(index_dir) if index_dir else None)
    kwargs.update(overrides)
    return KNNServer(ServeConfig(**kwargs))


class TestExactDefault:
    def test_no_target_stays_bit_identical(self, graph_index_dir, data):
        """recall_target=None serves exactly the pre-graph answers even
        when a graph artifact is loaded and fresh."""
        targets, queries = data
        with _server(graph_index_dir) as server:
            response = server.query(queries, targets, k=6)
            stats = server.stats()
        direct = knn_join(queries, targets, 6, method="brute")
        np.testing.assert_array_equal(response.indices, direct.indices)
        np.testing.assert_array_equal(response.distances, direct.distances)
        assert response.route == "exact"
        assert response.recall_target is None
        assert response.ef is None
        assert stats.route_exact >= 1
        assert stats.route_approx == 0


class TestApproxRoute:
    def test_target_routes_to_graph_tier(self, graph_index_dir, data):
        targets, queries = data
        with _server(graph_index_dir) as server:
            response = server.query(queries, targets, k=5,
                                    recall_target=0.9)
            stats = server.stats()
        assert response.route == "approx"
        assert response.recall_target == 0.9
        assert response.ef >= 5
        assert response.engine == "graph-bfs"
        assert not response.degraded
        assert stats.route_approx >= 1
        direct = knn_join(queries, targets, 5, method="brute")
        assert measured_recall(response.indices, direct.indices) >= 0.9

    def test_mixed_traffic_splits_by_request(self, graph_index_dir,
                                             data):
        targets, queries = data
        with _server(graph_index_dir) as server:
            report = run_open_loop(server, targets, queries, 5,
                                   recall_target=0.9, recall_every=2)
        assert report.served == len(queries)
        routes = {i: response.route for i, response in report.responses}
        # Deterministic mix: odd request indices carry the target.
        for i, route in routes.items():
            assert route == ("approx" if i % 2 == 1 else "exact")
        stats = report.stats
        assert stats.route_exact == len(queries) // 2
        assert stats.route_approx == len(queries) // 2
        assert len(stats.latencies_exact_s) == stats.route_exact
        assert len(stats.latencies_approx_s) == stats.route_approx

    def test_approx_batches_separate_from_exact(self, graph_index_dir,
                                                data):
        """The batch key includes the route, so one flush never mixes
        exact and approximate requests."""
        targets, queries = data
        with _server(graph_index_dir, max_wait_s=0.05) as server:
            futures = [server.submit(queries[i], targets, 5,
                                     recall_target=0.9 if i % 2 else None)
                       for i in range(8)]
            responses = [f.result() for f in futures]
        for i, response in enumerate(responses):
            assert response.route == ("approx" if i % 2 else "exact")


class TestFallbacks:
    def test_no_graph_routes_exact(self, tmp_path, data):
        targets, queries = data
        plain = tmp_path / "plain-idx"
        Index(targets, seed=0).save(plain)
        with _server(plain) as server:
            response = server.query(queries[:4], targets, k=5,
                                    recall_target=0.9)
        assert response.route == "exact"
        assert response.recall_target == 0.9
        assert response.ef is None
        direct = knn_join(queries[:4], targets, 5, method="brute")
        np.testing.assert_array_equal(response.indices, direct.indices)

    def test_stale_graph_routes_exact(self, tmp_path, data):
        targets, queries = data
        path = tmp_path / "stale-idx"
        index = Index(targets, seed=0)
        index.build_graph(GraphConfig(graph_k=8, sample=32,
                                      max_version_lag=0),
                          calibrate=False)
        index.remove([0])
        index.save(path)
        with _server(path) as server:
            response = server.query(queries[:4], targets, k=5,
                                    recall_target=0.9)
        assert response.route == "exact"
        assert response.ef is None

    def test_disabled_graph_method_routes_exact(self, graph_index_dir,
                                                data):
        targets, queries = data
        with _server(graph_index_dir, graph_method=None) as server:
            response = server.query(queries[:4], targets, k=5,
                                    recall_target=0.9)
        assert response.route == "exact"

    def test_invalid_target_rejected(self, graph_index_dir, data):
        targets, queries = data
        with _server(graph_index_dir) as server:
            for bad in (0.0, -1.0, 1.5):
                with pytest.raises(ValidationError):
                    server.submit(queries[0], targets, 5,
                                  recall_target=bad)

    def test_greedy_graph_method(self, graph_index_dir, data):
        targets, queries = data
        with _server(graph_index_dir,
                     graph_method="graph-greedy") as server:
            response = server.query(queries[:4], targets, k=5,
                                    recall_target=0.5)
        assert response.route == "approx"
        assert response.engine == "graph-greedy"
