"""Tests for the public API (knn_join, SweetKNN, KNNResult)."""

import numpy as np
import pytest

from repro import METHODS, SweetKNN, knn_join
from repro.core.result import JoinStats, KNNResult
from repro.engine import get_engine
from repro.errors import ValidationError

#: The engines knn_join can answer a fixed-k query with; the range
#: predicates (result_kind="range") and the approximate graph walks
#: have their own suites (exactness cannot be asserted for the latter).
FIXED_K_METHODS = [m for m in METHODS
                   if get_engine(m).caps.result_kind == "knn"
                   and not get_engine(m).caps.approximate]


class TestKnnJoin:
    @pytest.mark.parametrize("method", FIXED_K_METHODS)
    def test_all_methods_agree(self, clustered_points, method):
        ref = knn_join(clustered_points, clustered_points, 6,
                       method="brute")
        res = knn_join(clustered_points, clustered_points, 6, method=method)
        assert res.matches(ref)

    def test_default_method_is_sweet(self, clustered_points):
        res = knn_join(clustered_points, clustered_points, 4)
        assert res.method == "sweet-knn"

    def test_unknown_method(self, clustered_points):
        with pytest.raises(ValidationError):
            knn_join(clustered_points, clustered_points, 4, method="magic")

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            knn_join(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)), 2)

    def test_non_2d_input(self, rng):
        with pytest.raises(ValidationError):
            knn_join(rng.normal(size=10), rng.normal(size=(10, 2)), 2)

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            knn_join(np.empty((0, 3)), np.empty((5, 3)), 1)

    def test_k_too_large(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError):
            knn_join(points, points, 11)

    def test_k_nonpositive(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ValidationError):
            knn_join(points, points, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_queries(self, rng, bad):
        queries = rng.normal(size=(10, 3))
        targets = rng.normal(size=(10, 3))
        queries[4, 1] = bad
        with pytest.raises(ValidationError, match="queries contain"):
            knn_join(queries, targets, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_targets(self, rng, bad):
        queries = rng.normal(size=(10, 3))
        targets = rng.normal(size=(10, 3))
        targets[0, 0] = bad
        with pytest.raises(ValidationError, match="targets contain"):
            knn_join(queries, targets, 2)

    def test_options_forwarded(self, clustered_points):
        res = knn_join(clustered_points, clustered_points, 4,
                       method="sweet", threads_per_query=4)
        assert res.stats.extra["threads_per_query"] == 4

    def test_gpu_methods_report_sim_time(self, clustered_points):
        for method in ("sweet", "ti-gpu", "cublas"):
            res = knn_join(clustered_points, clustered_points, 4,
                           method=method)
            assert res.sim_time_s > 0
        assert knn_join(clustered_points, clustered_points, 4,
                        method="brute").sim_time_s is None

    def test_seed_controls_landmarks(self, clustered_points):
        a = knn_join(clustered_points, clustered_points, 4, seed=1)
        b = knn_join(clustered_points, clustered_points, 4, seed=1)
        c = knn_join(clustered_points, clustered_points, 4, seed=2)
        assert a.sim_time_s == b.sim_time_s
        assert a.matches(c)  # result exact regardless of landmarks


class TestSweetKNNIndex:
    def test_query(self, clustered_points, rng):
        index = SweetKNN(clustered_points)
        queries = rng.normal(size=(20, clustered_points.shape[1]))
        ref = knn_join(queries, clustered_points, 5, method="brute")
        res = index.query(queries, 5)
        assert res.matches(ref)

    def test_query_one(self, clustered_points, rng):
        index = SweetKNN(clustered_points)
        point = rng.normal(size=clustered_points.shape[1])
        neighbours = index.query_one(point, 5)
        assert neighbours.distances.shape == (5,)
        assert neighbours.indices.shape == (5,)
        assert neighbours.k == 5
        batch = index.query(point[np.newaxis, :], 5)
        assert np.array_equal(neighbours.indices, batch.indices[0])
        assert np.array_equal(neighbours.distances, batch.distances[0])

    def test_query_one_rejects_batch_input(self, clustered_points, rng):
        index = SweetKNN(clustered_points)
        with pytest.raises(ValidationError):
            index.query_one(rng.normal(size=(2, clustered_points.shape[1])),
                            3)

    def test_self_join(self, clustered_points):
        index = SweetKNN(clustered_points)
        res = index.self_join(3)
        np.testing.assert_allclose(res.distances[:, 0], 0.0, atol=1e-12)

    def test_invalid_targets(self):
        with pytest.raises(ValidationError):
            SweetKNN(np.empty((0, 4)))

    def test_non_finite_targets(self, rng):
        targets = rng.normal(size=(20, 4))
        targets[3, 2] = np.nan
        with pytest.raises(ValidationError):
            SweetKNN(targets)


class TestKNNResult:
    def test_pack_pads_short_rows(self):
        rows = [(np.asarray([1.0]), np.asarray([3]))]
        distances, indices = KNNResult.pack(rows, 3)
        assert distances.shape == (1, 3)
        assert np.isinf(distances[0, 1:]).all()
        assert (indices[0, 1:] == -1).all()

    def test_matches_tolerance(self):
        stats = JoinStats()
        a = KNNResult(np.asarray([[1.0, 2.0]]), np.asarray([[0, 1]]), stats)
        b = KNNResult(np.asarray([[1.0, 2.0 + 5e-5]]),
                      np.asarray([[0, 9]]), stats)
        assert a.matches(b)          # indices may differ, distances close
        c = KNNResult(np.asarray([[1.0, 2.5]]), np.asarray([[0, 1]]), stats)
        assert not a.matches(c)

    def test_saved_fraction(self):
        stats = JoinStats(n_queries=10, n_targets=10,
                          level2_distance_computations=25)
        assert stats.saved_fraction == pytest.approx(0.75)

    def test_summary_keys(self):
        stats = JoinStats(n_queries=2, n_targets=3, k=1, dim=4)
        summary = stats.summary()
        assert summary["|Q|"] == 2
        assert "saved_fraction" in summary
