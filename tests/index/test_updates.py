"""Incremental updates: exactness against full rebuilds, stable ids,
and the rebuild policy."""

import numpy as np
import pytest

from repro import SweetKNN, knn_join
from repro.errors import ValidationError
from repro.index import Index, UpdatePolicy


def _brute_reference(queries, index, k):
    """Brute-force answer over the index's live rows, in global ids."""
    active = index.active_ids()
    result = knn_join(queries, index.targets[active], k, method="brute")
    return result.distances, active[result.indices]


def _assert_exact(index, queries, k, method="ti-cpu"):
    """The index's engine answer equals brute force over its live set."""
    knn = SweetKNN.from_index(index, method=method)
    result = knn.query(queries, k)
    ref_dists, ref_ids = _brute_reference(queries, index, k)
    np.testing.assert_allclose(result.distances, ref_dists,
                               rtol=0, atol=1e-9)
    for row in range(len(queries)):
        np.testing.assert_array_equal(np.sort(result.indices[row]),
                                      np.sort(ref_ids[row]))


class TestAdd:
    def test_add_assigns_fresh_stable_ids(self, clustered_points, rng):
        index = Index(clustered_points, seed=0)
        n = len(clustered_points)
        ids = index.add(rng.normal(size=(7, clustered_points.shape[1])))
        np.testing.assert_array_equal(ids, np.arange(n, n + 7))
        assert index.version == 2
        assert index.n_active == n + 7
        assert index.target_clusters.check_invariants()

    def test_add_keeps_members_sorted_descending(self, clustered_points,
                                                 rng):
        index = Index(clustered_points, seed=0)
        index.add(rng.normal(size=(25, clustered_points.shape[1])))
        for dists in index.target_clusters.member_dists:
            assert np.all(np.diff(dists) <= 1e-15)

    def test_added_points_are_queryable_exactly(self, clustered_points,
                                                rng):
        index = Index(clustered_points, seed=0)
        new = rng.normal(size=(10, clustered_points.shape[1]))
        index.add(new)
        _assert_exact(index, new, 5)

    def test_add_validates(self, clustered_points):
        index = Index(clustered_points, seed=0)
        with pytest.raises(ValidationError):
            index.add(np.zeros((3, clustered_points.shape[1] + 2)))
        with pytest.raises(ValidationError):
            index.add(np.full((1, clustered_points.shape[1]), np.nan))


class TestRemove:
    def test_remove_tombstones_rows(self, clustered_points):
        index = Index(clustered_points, seed=0)
        index.remove([3, 17, 90])
        assert index.n_tombstones == 3
        assert index.n_active == len(clustered_points) - 3
        for gone in (3, 17, 90):
            for members in index.target_clusters.members:
                assert gone not in members

    def test_removed_rows_never_returned(self, clustered_points):
        index = Index(clustered_points, seed=0)
        removed = [0, 5, 9, 42]
        index.remove(removed)
        result = SweetKNN.from_index(index, method="ti-cpu").query(
            clustered_points, 8)
        assert not np.isin(result.indices, removed).any()
        _assert_exact(index, clustered_points[:20], 6)

    def test_emptied_clusters_keep_flat_tier_identical(self,
                                                      clustered_points,
                                                      rng):
        """Removing every member of two target clusters leaves them
        empty (no rebuild); ``ti-flat`` still matches ``ti-cpu`` in
        results and every counter."""
        queries = np.concatenate([
            clustered_points[:20],
            rng.normal(size=(20, clustered_points.shape[1]))])
        results = []
        # One identically built and updated index per engine: query-side
        # landmarks are drawn from the index's own RNG.
        for method in ("ti-cpu", "ti-flat"):
            index = Index(clustered_points, seed=0,
                          policy=UpdatePolicy(max_tombstone_fraction=1.0))
            members = index.target_clusters.members
            emptied = [tc for tc in range(len(members))
                       if members[tc].size][:2]
            index.remove(np.concatenate([members[tc] for tc in emptied]))
            assert index.build_count == 1
            sizes = index.target_clusters.cluster_sizes()
            assert all(sizes[tc] == 0 for tc in emptied)
            results.append(
                SweetKNN.from_index(index, method=method).query(queries, 6))
        reference, flat = results
        np.testing.assert_array_equal(flat.indices, reference.indices)
        np.testing.assert_array_equal(flat.distances, reference.distances)
        counters = [{name: value for name, value in vars(r.stats).items()
                     if name != "extra"} for r in results]
        assert counters[0] == counters[1]

    def test_remove_validates(self, clustered_points):
        index = Index(clustered_points, seed=0)
        with pytest.raises(ValidationError):
            index.remove([len(clustered_points)])
        index.remove([1])
        with pytest.raises(ValidationError, match="already removed"):
            index.remove([1])
        with pytest.raises(ValidationError, match="every target"):
            index.remove(index.active_ids())


class TestRebuildPolicy:
    def test_tombstone_fraction_triggers_rebuild(self, clustered_points):
        index = Index(clustered_points, seed=0,
                      policy=UpdatePolicy(max_tombstone_fraction=0.2))
        index.remove(np.arange(100))
        assert index.build_count == 2  # policy escalated to a rebuild
        assert index.target_clusters.n_clusters > 0
        # Ids stay global even after the rebuild re-clusters live rows.
        for members in index.target_clusters.members:
            assert not np.isin(members, np.arange(100)).any()
        _assert_exact(index, clustered_points[:15], 4)

    def test_rebuild_is_deterministic(self, clustered_points):
        a = Index(clustered_points, seed=0)
        b = Index(clustered_points, seed=0)
        for index in (a, b):
            index.remove(np.arange(110))
        assert a.build_count == b.build_count == 2
        np.testing.assert_array_equal(
            a.target_clusters.center_indices,
            b.target_clusters.center_indices)

    def test_forced_rebuild_drains_staleness(self, clustered_points):
        index = Index(clustered_points, seed=0)
        index.remove([1, 2, 3])
        version = index.version
        index.rebuild()
        assert index.build_count == 2
        assert index.version == version + 1
        assert index._dead_since_rebuild == 0
        _assert_exact(index, clustered_points[:10], 3)

    def test_small_updates_do_not_rebuild(self, clustered_points, rng):
        index = Index(clustered_points, seed=0)
        index.add(rng.normal(size=(5, clustered_points.shape[1])))
        index.remove([2])
        assert index.build_count == 1


class TestPropertyRandomSequences:
    @pytest.mark.parametrize("trial", range(4))
    @pytest.mark.parametrize("method", ["ti-cpu", "ti-flat"])
    def test_update_sequence_equals_fresh_rebuild(self, clustered_points,
                                                  method, trial):
        """Property: after every step of a random add/remove sequence,
        queries give exactly the answers of brute force over the mutated
        live set — i.e. incremental maintenance never drifts from a full
        rebuild's ground truth.  Querying between updates also checks
        that no engine reuses state derived from an earlier version
        (the flat tier's memoized layout)."""
        rng = np.random.default_rng(1000 + trial)
        dim = clustered_points.shape[1]
        index = Index(clustered_points, seed=trial)
        queries = rng.normal(size=(30, dim))
        _assert_exact(index, queries, 6, method)
        for _ in range(6):
            if rng.random() < 0.5:
                index.add(rng.normal(size=(int(rng.integers(1, 20)), dim)))
            else:
                active = index.active_ids()
                take = int(rng.integers(1, max(2, active.size // 10)))
                index.remove(rng.choice(active, size=take, replace=False))
            _assert_exact(index, queries, 6, method)
        assert index.target_clusters.cluster_sizes().sum() == index.n_active

    def test_mutated_index_round_trips_through_disk(self, tmp_path,
                                                    clustered_points, rng):
        """Persistence composes with updates: save after mutations, load,
        and both the live set and the answers survive."""
        dim = clustered_points.shape[1]
        index = Index(clustered_points, seed=0)
        index.add(rng.normal(size=(12, dim)))
        index.remove([4, 8, 15, 16, 23, 42])
        index.save(tmp_path / "mutated")
        loaded = Index.load(tmp_path / "mutated")
        assert loaded.key == index.key
        assert loaded.n_tombstones == index.n_tombstones
        queries = rng.normal(size=(20, dim))
        knn_a = SweetKNN.from_index(index, method="ti-cpu")
        knn_b = SweetKNN.from_index(loaded, method="ti-cpu")
        a = knn_a.query(queries, 5)
        b = knn_b.query(queries, 5)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.distances, b.distances)

    def test_updating_a_loaded_index_materializes(self, tmp_path,
                                                  clustered_points, rng):
        index = Index(clustered_points, seed=0)
        index.save(tmp_path / "idx")
        loaded = Index.load(tmp_path / "idx", mmap=True)
        assert loaded.mmapped and loaded.source_path
        loaded.add(rng.normal(size=(3, clustered_points.shape[1])))
        assert not loaded.mmapped
        assert loaded.source_path is None  # diverged from the disk image
        _assert_exact(loaded, clustered_points[:10], 4)
