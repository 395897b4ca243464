"""Tests for the KD-tree baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.brute_force import brute_force_knn
from repro.baselines.kdtree import KDTree, kdtree_knn


class TestKDTree:
    def test_query_matches_brute_force(self, clustered_points):
        tree = KDTree(clustered_points)
        ref = brute_force_knn(clustered_points, clustered_points, 7)
        for q in range(0, len(clustered_points), 23):
            dists, idx = tree.query(clustered_points[q], 7)
            np.testing.assert_array_equal(idx, ref.indices[q])
            np.testing.assert_array_equal(dists, ref.distances[q])

    def test_prunes_on_low_dim(self, rng):
        points = rng.normal(size=(2000, 2))
        tree = KDTree(points)
        tree.distance_computations = 0
        tree.query(points[0], 5)
        assert tree.distance_computations < 1000

    def test_degrades_with_dimension(self, rng):
        """The classic KD-tree curse: pruning dies in high dimension —
        the reason the paper's TI approach exists."""
        def work(dim):
            points = rng.normal(size=(500, dim))
            tree = KDTree(points)
            tree.distance_computations = 0
            for q in range(10):
                tree.query(points[q], 5)
            return tree.distance_computations

        assert work(2) < work(50)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 3)))

    def test_join_matches_brute_force(self, uniform_points):
        ref = brute_force_knn(uniform_points, uniform_points, 6)
        res = kdtree_knn(uniform_points, uniform_points, 6)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_join_invalid_k(self, uniform_points):
        with pytest.raises(ValueError):
            kdtree_knn(uniform_points, uniform_points, 0)

    def test_stats_record_tree_and_work(self, uniform_points):
        res = kdtree_knn(uniform_points, uniform_points, 6)
        assert res.stats.extra["tree_nodes"] > 1
        assert res.stats.level2_distance_computations > 0

    @given(hnp.arrays(np.float64, st.tuples(st.integers(5, 60),
                                            st.integers(1, 5)),
                      elements=st.floats(-100, 100, allow_nan=False)),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_property_exact(self, points, k):
        k = min(k, points.shape[0])
        ref = brute_force_knn(points, points, k)
        res = kdtree_knn(points, points, k)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)
