"""Tests for landmark clustering (Step 1 of Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bounds import nearest_columns
from repro.core.clustering import center_distances, cluster_points
from repro.core.landmarks import select_landmarks_random_spread


def _cluster(points, m, seed=0, sort_descending=False):
    rng = np.random.default_rng(seed)
    centers = select_landmarks_random_spread(points, m, rng)
    return cluster_points(points, centers, sort_descending=sort_descending)


class TestClusterPoints:
    def test_every_point_assigned_once(self, clustered_points):
        cs = _cluster(clustered_points, 12)
        assert cs.cluster_sizes().sum() == cs.n_points
        assert cs.check_invariants()

    def test_assignment_is_nearest_center(self, clustered_points):
        cs = _cluster(clustered_points, 12)
        for i in range(cs.n_points):
            dists = np.linalg.norm(cs.centers - clustered_points[i], axis=1)
            assert dists[cs.assignment[i]] == pytest.approx(dists.min())

    def test_dist_to_center_correct(self, clustered_points):
        cs = _cluster(clustered_points, 12)
        for i in range(0, cs.n_points, 17):
            expected = np.linalg.norm(
                clustered_points[i] - cs.centers[cs.assignment[i]])
            assert cs.dist_to_center[i] == pytest.approx(expected)

    def test_sorted_descending(self, clustered_points):
        cs = _cluster(clustered_points, 12, sort_descending=True)
        for dists in cs.member_dists:
            assert np.all(np.diff(dists) <= 1e-15)

    def test_radius_is_max_member_distance(self, clustered_points):
        cs = _cluster(clustered_points, 12)
        for cid in range(cs.n_clusters):
            if cs.member_dists[cid].size:
                assert cs.radius[cid] == pytest.approx(
                    cs.member_dists[cid].max())
            else:
                assert cs.radius[cid] == 0.0

    def test_landmark_in_own_cluster_at_zero(self, clustered_points):
        cs = _cluster(clustered_points, 12)
        for cid, point_idx in enumerate(cs.center_indices):
            assert cs.dist_to_center[point_idx] == pytest.approx(0.0)

    def test_init_distance_count(self, clustered_points):
        cs = _cluster(clustered_points, 12)
        assert cs.init_distance_computations == cs.n_points * 12

    def test_chunking_consistency(self, rng):
        """Chunked assignment must equal a one-shot computation even
        when n exceeds the chunk size (high-d shrinks the chunk)."""
        points = rng.normal(size=(300, 700))  # chunk ~ 2**26/(m*d)
        cs = _cluster(points, 30)
        assert cs.check_invariants()

    @pytest.mark.parametrize("dim", [1, 29, 512])
    @pytest.mark.parametrize("sort_descending", [False, True])
    def test_lone_point_matches_the_nearest_columns_path(
            self, rng, dim, sort_descending):
        """A one-point set skips the selection; its distance is still
        the one nearest_columns returns, bit for bit."""
        for scale in (1e-150, 1.0, 1e150):
            point = rng.normal(size=(1, dim)) * scale
            cs = cluster_points(point, np.arange(1),
                                sort_descending=sort_descending)
            dist, idx = nearest_columns(point, point, 1)
            assert cs.dist_to_center.tobytes() == dist[:, 0].tobytes()
            assert np.array_equal(cs.assignment, idx[:, 0])
            assert [m.tolist() for m in cs.members] == [[0]]
            assert cs.member_dists[0].tobytes() == dist[0].tobytes()
            assert cs.radius.tobytes() == dist[0].tobytes()
            assert cs.check_invariants()

    @given(hnp.arrays(np.float64, (30, 3),
                      elements=st.floats(-100, 100, allow_nan=False)),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_property_partition(self, points, m):
        cs = _cluster(points, m, sort_descending=True)
        all_members = np.sort(np.concatenate(cs.members))
        np.testing.assert_array_equal(all_members, np.arange(30))
        assert cs.check_invariants()


class TestCenterDistances:
    def test_matrix(self, clustered_points):
        cq = _cluster(clustered_points, 8, seed=1)
        ct = _cluster(clustered_points, 6, seed=2, sort_descending=True)
        mat = center_distances(cq, ct)
        assert mat.shape == (8, 6)
        assert mat[2, 3] == pytest.approx(
            np.linalg.norm(cq.centers[2] - ct.centers[3]))
