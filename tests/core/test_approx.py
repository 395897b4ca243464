"""Tests for the (1+epsilon)-approximate extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import knn_join


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    points = np.concatenate([rng.normal(size=(200, 6)) + c
                             for c in rng.uniform(-15, 15, size=(5, 6))])
    rng.shuffle(points)
    oracle = knn_join(points, points, 8, method="brute")
    return points, oracle


class TestApproximateMode:
    def test_epsilon_zero_is_exact(self, data):
        points, oracle = data
        res = knn_join(points, points, 8, method="sweet", seed=0,
                       epsilon=0.0)
        np.testing.assert_array_equal(res.indices, oracle.indices)
        np.testing.assert_array_equal(res.distances, oracle.distances)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 1.0])
    def test_kth_distance_guarantee(self, data, eps):
        """The contract: returned k-th distance <= (1+eps) * true."""
        points, oracle = data
        res = knn_join(points, points, 8, method="sweet", seed=0,
                       epsilon=eps)
        assert np.all(res.distances[:, -1]
                      <= (1 + eps) * oracle.distances[:, -1] + 1e-9)

    def test_monotone_work_reduction(self, data):
        points, _ = data
        computed = [
            knn_join(points, points, 8, method="sweet", seed=0,
                     epsilon=eps).stats.level2_distance_computations
            for eps in (0.0, 0.5, 2.0)]
        assert computed[0] >= computed[1] >= computed[2]

    def test_negative_epsilon_rejected(self, data):
        points, _ = data
        with pytest.raises(ValueError):
            knn_join(points, points, 4, method="sweet", epsilon=-0.1)

    def test_partial_filter_respects_guarantee(self, data):
        points, oracle = data
        res = knn_join(points, points, 8, method="sweet", seed=0,
                       epsilon=0.5, force_filter="partial")
        assert np.all(res.distances[:, -1]
                      <= 1.5 * oracle.distances[:, -1] + 1e-9)

    @given(eps=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_property_guarantee_over_epsilon(self, data, eps):
        points, oracle = data
        res = knn_join(points, points, 8, method="sweet", seed=0,
                       epsilon=eps)
        assert np.all(res.distances[:, -1]
                      <= (1 + eps) * oracle.distances[:, -1] + 1e-9)

    def test_high_recall_at_small_epsilon(self, data):
        points, oracle = data
        res = knn_join(points, points, 8, method="sweet", seed=0,
                       epsilon=0.1)
        hits = np.asarray([
            len(set(res.indices[q]) & set(oracle.indices[q]))
            for q in range(len(points))])
        assert hits.mean() / 8 > 0.9
