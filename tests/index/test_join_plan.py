"""Step 1 of a prepared index: queries join the index's own landmarks."""

import numpy as np
import pytest

from repro import SweetKNN, knn_join
from repro.core import filters
from repro.core.bounds import euclidean
from repro.index import Index


@pytest.fixture
def index(clustered_points):
    return Index(clustered_points, seed=0)


@pytest.fixture
def queries(rng, clustered_points):
    return clustered_points[:40] + rng.normal(scale=0.3, size=(40, 8))


def _landmarks(plan):
    """Per query cluster, the target cluster its members' rows pick."""
    nearest = plan.query_rows.argmin(axis=1)
    return [np.unique(nearest[members])
            for members in plan.query_clusters.members]


class TestStructure:
    def test_query_clusters_are_occupied_target_clusters(self, index,
                                                         queries):
        plan = index.join_plan(queries)
        cq, ct = plan.query_clusters, plan.target_clusters
        picked = _landmarks(plan)
        assert all(ids.size == 1 for ids in picked)
        picked = np.concatenate(picked)
        np.testing.assert_array_equal(
            picked, np.unique(plan.query_rows.argmin(axis=1)))
        matrix = filters.center_matrix(ct)
        for qc, (landmark, members) in enumerate(zip(picked, cq.members)):
            if members.size == 1:
                continue
            assert cq.center_indices[qc] == -1
            np.testing.assert_array_equal(cq.centers[qc],
                                          ct.centers[landmark])
            np.testing.assert_array_equal(plan.center_dists[qc],
                                          matrix[landmark])
        assert any(members.size > 1 for members in cq.members)

    def test_radius_covers_every_direct_form_distance(self, index, queries):
        plan = index.join_plan(queries)
        cq = plan.query_clusters
        for qc, members in enumerate(cq.members):
            for q in members:
                assert euclidean(queries[q], cq.centers[qc]) <= cq.radius[qc]

    def test_a_lone_query_is_its_own_landmark(self, index, queries):
        for rows in (queries[:1], queries):
            plan = index.join_plan(rows)
            cq = plan.query_clusters
            for qc, members in enumerate(cq.members):
                if members.size != 1:
                    continue
                assert cq.radius[qc] == 0.0
                assert cq.center_indices[qc] == members[0]
                np.testing.assert_array_equal(cq.centers[qc],
                                              rows[members[0]])
                np.testing.assert_array_equal(plan.center_dists[qc],
                                              plan.query_rows[members[0]])
        assert index.join_plan(queries[:1]).query_clusters.radius[0] == 0.0


class TestCenterMatrix:
    def test_built_once_per_index_version(self, index, queries, rng,
                                          monkeypatch):
        real = filters.banded_distances
        builds = []

        def counted(a, b, *args):
            if a is b:
                builds.append(1)
            return real(a, b, *args)

        monkeypatch.setattr(filters, "banded_distances", counted)
        knn = SweetKNN.from_index(index, method="ti-flat")

        def check():
            live = index.active_ids()
            oracle = knn_join(queries, index.targets[live], 5,
                              method="brute")
            result = knn.query(queries.copy(), 5)
            np.testing.assert_array_equal(result.indices,
                                          live[oracle.indices])
            np.testing.assert_array_equal(result.distances,
                                          oracle.distances)

        check()
        check()
        assert len(builds) == 1
        index.add(rng.normal(size=(10, 8)))
        check()
        check()
        assert len(builds) == 2
        index.remove(np.arange(0, 30, 3))
        check()
        check()
        assert len(builds) == 3
