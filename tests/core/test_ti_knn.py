"""End-to-end tests for the sequential TI-KNN reference (Fig. 4)."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.core.ti_knn import prepare_clusters, ti_knn_join


def assert_same_answer(res, ref):
    """Bit for bit: distances and ids, ties included."""
    np.testing.assert_array_equal(res.indices, ref.indices)
    np.testing.assert_array_equal(res.distances, ref.distances)


class TestTiKnnJoin:
    def test_matches_brute_force_self_join(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 10)
        res = ti_knn_join(clustered_points, clustered_points, 10,
                          np.random.default_rng(0))
        assert_same_answer(res, ref)

    def test_matches_brute_force_disjoint_sets(self, rng):
        queries = rng.normal(size=(80, 5))
        targets = rng.normal(size=(250, 5)) * 2
        ref = brute_force_knn(queries, targets, 7)
        res = ti_knn_join(queries, targets, 7, np.random.default_rng(1))
        assert_same_answer(res, ref)

    def test_uniform_data_still_exact(self, uniform_points):
        ref = brute_force_knn(uniform_points, uniform_points, 5)
        res = ti_knn_join(uniform_points, uniform_points, 5,
                          np.random.default_rng(2))
        assert_same_answer(res, ref)

    def test_k_equals_one(self, clustered_points):
        res = ti_knn_join(clustered_points, clustered_points, 1,
                          np.random.default_rng(0))
        # Self-join: the nearest neighbour of each point is itself.
        np.testing.assert_array_equal(res.distances[:, 0], 0.0)

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(30, 3))
        ref = brute_force_knn(points, points, 30)
        res = ti_knn_join(points, points, 30, np.random.default_rng(0))
        assert_same_answer(res, ref)

    def test_duplicates(self, rng):
        base = rng.normal(size=(10, 4))
        points = np.tile(base, (8, 1))
        ref = brute_force_knn(points, points, 9)
        res = ti_knn_join(points, points, 9, np.random.default_rng(0))
        assert_same_answer(res, ref)

    def test_invalid_k(self, clustered_points):
        with pytest.raises(ValueError):
            ti_knn_join(clustered_points, clustered_points, 0,
                        np.random.default_rng(0))
        with pytest.raises(ValueError):
            ti_knn_join(clustered_points, clustered_points, 10 ** 6,
                        np.random.default_rng(0))

    def test_stats_populated(self, clustered_points):
        res = ti_knn_join(clustered_points, clustered_points, 5,
                          np.random.default_rng(0))
        stats = res.stats
        n = len(clustered_points)
        assert stats.n_queries == stats.n_targets == n
        assert 0 < stats.level2_distance_computations < n * n
        assert 0 < stats.saved_fraction < 1
        assert stats.mq == stats.mt > 0
        assert stats.candidate_cluster_pairs <= stats.mq * stats.mt

    def test_saved_fraction_high_on_clustered_data(self, clustered_points):
        res = ti_knn_join(clustered_points, clustered_points, 5,
                          np.random.default_rng(0))
        assert res.stats.saved_fraction > 0.5

    def test_landmark_count_override(self, clustered_points):
        res = ti_knn_join(clustered_points, clustered_points, 5,
                          np.random.default_rng(0), mq=4, mt=7)
        assert res.stats.mq == 4
        assert res.stats.mt == 7

    def test_plan_reuse_consistent(self, clustered_points):
        rng = np.random.default_rng(0)
        plan = prepare_clusters(clustered_points, clustered_points, rng)
        res_a = ti_knn_join(clustered_points, clustered_points, 5,
                            None, plan=plan)
        res_b = ti_knn_join(clustered_points, clustered_points, 5,
                            np.random.default_rng(0))
        assert_same_answer(res_a, res_b)


class TestPrepareClusters:
    def test_plan_shapes(self, clustered_points):
        plan = prepare_clusters(clustered_points, clustered_points,
                                np.random.default_rng(0))
        n = len(clustered_points)
        expected_m = int(round(3 * np.sqrt(n)))
        assert plan.mq == expected_m
        assert plan.mt == expected_m
        assert plan.center_dists.shape == (plan.mq, plan.mt)

    def test_memory_budget_caps_landmarks(self, clustered_points):
        plan = prepare_clusters(clustered_points, clustered_points,
                                np.random.default_rng(0),
                                memory_budget_bytes=10 * 10 * 4)
        assert plan.mq <= 10

    def test_target_side_sorted(self, clustered_points):
        plan = prepare_clusters(clustered_points, clustered_points,
                                np.random.default_rng(0))
        for dists in plan.target_clusters.member_dists:
            assert np.all(np.diff(dists) <= 1e-15)
