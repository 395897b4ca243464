"""NN-descent builder: determinism, convergence, adjacency quality,
staleness policy and byte-identical persistence."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro import knn_join
from repro.errors import ValidationError
from repro.graph import GraphConfig, KNNGraph, build_graph, calibrate
from repro.graph.storage import GRAPH_MANIFEST_NAME
from repro.index import Index

#: ``TestDeterminism.test_graph_is_pinned``'s digest of the fixture graph.
GRAPH_DIGEST = "deeed48952a4614e"


def _dir_digest(path):
    """One sha256 over every file of a graph directory, sorted by name."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _assert_graphs_equal(a, b):
    np.testing.assert_array_equal(a.node_ids, b.node_ids)
    np.testing.assert_array_equal(a.neighbors, b.neighbors)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.entry_points, b.entry_points)
    assert a.iteration_updates == b.iteration_updates
    assert a.build_distance_computations == b.build_distance_computations


class TestDeterminism:
    def test_double_build_is_bit_identical(self, graph_index,
                                           graph_config, graph):
        again = build_graph(graph_index, graph_config, seed=11)
        _assert_graphs_equal(graph, again)

    def test_saved_directories_are_byte_identical(self, tmp_path,
                                                  graph_points):
        digests = []
        for run in ("a", "b"):
            index = Index(graph_points, seed=3)
            graph = index.build_graph(GraphConfig(graph_k=12, sample=64),
                                      seed=11, k=5, n_probe=32)
            path = tmp_path / run
            graph.save(path)
            digests.append(_dir_digest(path))
        assert digests[0] == digests[1]

    def test_seed_changes_the_graph(self, graph_index, graph_config,
                                    graph):
        other = build_graph(graph_index, graph_config, seed=12)
        assert not np.array_equal(other.neighbors, graph.neighbors)

    def test_graph_is_pinned(self, graph):
        """The fixture graph's ids and update counts, hashed.  The build
        draws what a query-side landmark pick of its exact bootstrap
        drew before that Step 1 joined the index's own landmarks
        (``build._skip_landmark_draws``), so a graph of a
        ``(seed, fingerprint)`` key keeps its bytes; a change of the
        build's random stream shows here."""
        digest = hashlib.sha256()
        for array in (graph.node_ids, graph.neighbors, graph.entry_points):
            digest.update(np.ascontiguousarray(array, dtype=np.int64))
        digest.update(repr(list(graph.iteration_updates)).encode())
        assert digest.hexdigest()[:16] == GRAPH_DIGEST

    def test_default_seed_is_the_index_seed(self, graph_index,
                                            graph_config):
        graph = build_graph(graph_index, graph_config)
        assert graph.seed == graph_index.seed


class TestQuality:
    def test_adjacency_recall_floor(self, graph, graph_points):
        """Most stored edges are true nearest neighbours."""
        kg = graph.graph_k
        truth = knn_join(graph_points, graph_points, kg + 1,
                         method="brute").indices[:, 1:]
        hit = total = 0
        for row in range(graph.n_nodes):
            want = set(int(i) for i in truth[row])
            got = set(int(i) for i in graph.neighbors[row] if i >= 0)
            hit += len(want & got)
            total += len(want)
        assert hit / total >= 0.8

    def test_convergence(self, graph, graph_config):
        updates = graph.iteration_updates
        assert 0 < len(updates) <= graph_config.max_iters
        assert updates[-1] <= updates[0]
        threshold = max(1, int(graph_config.delta * graph.n_nodes
                               * graph.graph_k))
        assert (updates[-1] <= threshold
                or len(updates) == graph_config.max_iters)

    def test_neighbor_rows_are_sorted_and_self_free(self, graph):
        own = np.arange(graph.n_nodes)[:, None]
        valid = graph.neighbors >= 0
        assert not np.any((graph.neighbors == own) & valid)
        dists = np.where(valid, graph.distances, np.inf)
        assert np.all(np.diff(dists, axis=1) >= 0)

    def test_entry_points_are_valid_positions(self, graph):
        entries = graph.entry_points
        assert entries.size > 1
        assert np.all((entries >= 0) & (entries < graph.n_nodes))
        assert np.array_equal(entries, np.unique(entries))

    def test_tiny_set_clamps_graph_k(self):
        points = np.random.default_rng(0).normal(size=(5, 3))
        graph = build_graph(Index(points, seed=1),
                            GraphConfig(graph_k=16, sample=4))
        assert graph.graph_k == 4
        assert np.all(graph.neighbors >= 0)

    def test_rejects_degenerate_index(self):
        points = np.random.default_rng(0).normal(size=(3, 3))
        index = Index(points, seed=1)
        index.remove([0, 1])
        with pytest.raises(ValidationError):
            build_graph(index)


class TestTombstones:
    def test_dead_rows_are_not_nodes(self, graph_points):
        index = Index(graph_points, seed=3)
        index.remove([0, 17, 100])
        graph = build_graph(index, GraphConfig(graph_k=8, sample=32))
        assert not np.isin([0, 17, 100], graph.node_ids).any()
        assert graph.n_nodes == index.n_active


class TestStaleness:
    def test_fresh_after_build(self, graph, graph_index):
        assert graph.is_fresh_for(graph_index)

    def test_fresh_within_version_lag(self, graph_points):
        index = Index(graph_points, seed=3)
        graph = build_graph(index, GraphConfig(graph_k=8, sample=32,
                                               max_version_lag=2))
        index.remove([1])
        assert graph.is_fresh_for(index)
        index.remove([2])
        assert graph.is_fresh_for(index)
        index.remove([3])
        assert not graph.is_fresh_for(index)

    def test_other_lineage_is_never_fresh(self, graph, graph_points):
        other = Index(graph_points[:100], seed=3)
        assert not graph.is_fresh_for(other)
        assert not graph.is_fresh_for(None)


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path, graph,
                                             graph_index):
        calibrated = build_graph(graph_index,
                                 GraphConfig(graph_k=12, sample=64),
                                 seed=11)
        calibrate(calibrated, graph_index, k=5, n_probe=32)
        path = tmp_path / "g"
        calibrated.save(path)
        loaded = KNNGraph.load(path)
        _assert_graphs_equal(calibrated, loaded)
        assert loaded.seed == calibrated.seed
        assert loaded.fingerprint == calibrated.fingerprint
        assert loaded.built_version == calibrated.built_version
        assert loaded.config.describe() == calibrated.config.describe()
        assert (loaded.calibration.describe()
                == calibrated.calibration.describe())
        assert loaded.mmapped

    def test_manifest_has_no_wall_clock(self, tmp_path, graph):
        """The byte-determinism contract bans timestamps (the index
        manifest stamps created_unix_s; the graph one must not)."""
        graph.save(tmp_path / "g")
        with open(tmp_path / "g" / GRAPH_MANIFEST_NAME) as handle:
            manifest = json.load(handle)
        assert not any("unix" in key or "time" in key
                       for key in manifest)

    def test_load_rejects_tampered_arrays(self, tmp_path, graph):
        path = tmp_path / "g"
        graph.save(path)
        np.save(path / "neighbors.npy",
                np.asarray(graph.neighbors)[:, :2].copy())
        with pytest.raises(ValidationError):
            KNNGraph.load(path)
