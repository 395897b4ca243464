"""Tests for the prepared index and its reuse by SweetKNN."""

import numpy as np
import pytest

from repro import SweetKNN, knn_join
from repro.engine.prepared import PreparedIndex
from repro.errors import ValidationError
from repro.index import index as index_module


class TestPreparedIndex:
    def test_builds_target_side_once(self, clustered_points, rng):
        index = PreparedIndex(clustered_points, seed=0)
        assert index.build_count == 1
        first = index.target_clusters
        for _ in range(3):
            queries = rng.normal(size=(20, clustered_points.shape[1]))
            plan = index.join_plan(queries)
            assert plan.target_clusters is first

    def test_join_plan_results_exact(self, clustered_points, rng):
        index = PreparedIndex(clustered_points, seed=0)
        queries = rng.normal(size=(25, clustered_points.shape[1]))
        plan = index.join_plan(queries)
        assert plan.query_clusters.n_points == 25
        assert plan.center_dists.shape == (plan.mq, plan.mt)

    def test_level1_cached_per_k(self, clustered_points, rng):
        index = PreparedIndex(clustered_points, seed=0)
        queries = rng.normal(size=(20, clustered_points.shape[1]))
        plan = index.join_plan(queries)
        ubs3, candidates3 = plan.level1(3)
        plan.level1(5)
        again, candidates = plan.level1(3)
        # The second k=3 request hits the cache.
        assert again is ubs3 and candidates is candidates3

    def test_rejects_bad_inputs(self, clustered_points):
        with pytest.raises(ValidationError):
            PreparedIndex(np.empty((0, 3)))
        index = PreparedIndex(clustered_points)
        with pytest.raises(ValidationError):
            index.join_plan(np.zeros((4, clustered_points.shape[1] + 1)))
        with pytest.raises(ValidationError):
            index.join_plan(np.empty((0, clustered_points.shape[1])))


class TestSweetKNNReuse:
    def test_landmark_selection_runs_once_for_targets(
            self, clustered_points, rng, monkeypatch):
        """Regression: query() used to re-cluster the target set."""
        calls = []
        real = index_module.select_landmarks_random_spread

        def counting(points, m, rng_):
            calls.append(points)
            return real(points, m, rng_)

        monkeypatch.setattr(index_module, "select_landmarks_random_spread",
                            counting)
        index = SweetKNN(clustered_points, seed=0)
        dim = clustered_points.shape[1]
        index.query(rng.normal(size=(15, dim)), 4)
        index.query(rng.normal(size=(25, dim)), 4)
        target_side = [p for p in calls if p is index.targets]
        assert len(target_side) == 1
        assert index.index.build_count == 1

    def test_repeated_query_array_reuses_join_plan(self, clustered_points,
                                                   rng):
        index = SweetKNN(clustered_points, seed=0)
        queries = rng.normal(size=(20, clustered_points.shape[1]))
        index.query(queries, 3)
        first = index._join_plans[-1][-1]
        index.query(queries, 5)  # same array object, different k
        assert index._join_plans[-1][-1] is first
        assert len(index._join_plans) == 1

    def test_update_drops_join_plans_of_earlier_versions(
            self, clustered_points, rng):
        """Each index version has its own clustered target set; a cached
        plan of an earlier version would keep it alive for nothing."""
        index = SweetKNN(clustered_points, seed=0)
        dim = clustered_points.shape[1]
        index.query(rng.normal(size=(20, dim)), 3)
        index.query(rng.normal(size=(20, dim)), 3)
        index.index.add(rng.normal(size=(4, dim)))
        index.query(rng.normal(size=(20, dim)), 3)
        assert len(index._join_plans) == 1
        assert (index._join_plans[0][-1].target_clusters
                is index.index.target_clusters)

    def test_execution_plans_cached_per_shape(self, clustered_points, rng):
        index = SweetKNN(clustered_points, seed=0)
        queries = rng.normal(size=(20, clustered_points.shape[1]))
        plan_a = index.plan(queries, 4)
        plan_b = index.plan(queries, 4)
        assert plan_a is plan_b
        assert index.plan(queries, 5) is not plan_a

    def test_query_results_stay_exact_across_calls(self, clustered_points,
                                                   rng):
        index = SweetKNN(clustered_points, seed=0)
        for size in (10, 30):
            queries = rng.normal(size=(size, clustered_points.shape[1]))
            ref = knn_join(queries, clustered_points, 5, method="brute")
            assert index.query(queries, 5).matches(ref)

    def test_rejects_mt_at_query_time(self, clustered_points):
        index = SweetKNN(clustered_points)
        with pytest.raises(ValidationError):
            index.query(clustered_points, 3, mt=12)

    def test_rejects_non_prepared_engine(self, clustered_points):
        with pytest.raises(ValidationError):
            SweetKNN(clustered_points, method="cublas")

    def test_cpu_engine_prepared_index(self, clustered_points, rng):
        index = SweetKNN(clustered_points, method="ti-cpu")
        queries = rng.normal(size=(12, clustered_points.shape[1]))
        ref = knn_join(queries, clustered_points, 4, method="brute")
        assert index.query(queries, 4).matches(ref)
        assert index.index.build_count == 1
