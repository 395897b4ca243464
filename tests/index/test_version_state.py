"""Per-version index state: values derived from an installed target
clustering are memoized per object, and never cross index versions.

The tail-bound matrix, the cluster sizes, the flat layout and the C
kernel's pointer layout are computed once per
:class:`~repro.core.clustering.ClusteredSet` (or
:class:`~repro.native.layout.FlatTargets`) object.  ``Index.add`` /
``remove`` install an edited copy of the clustered set and ``rebuild``
a fresh one, so every version must derive its own values.
"""

import gc

import numpy as np
import pytest

from repro import knn_join
from repro.core.filters import tail_bound_matrix
from repro.core.memo import IdentityMemo
from repro.index import Index, UpdatePolicy
from repro.native import cscan
from repro.native.layout import flat_targets
from repro.serve import KNNServer

K = 5


def _fresh_sizes(ct):
    return np.array([len(m) for m in ct.members], dtype=np.int64)


def _fresh_tails(ct, k):
    """The tail-bound matrix by a per-cluster loop (the reference)."""
    tails = np.full((ct.n_clusters, k), np.inf)
    for cid, dists in enumerate(ct.member_dists):
        take = min(k, dists.size)
        tails[cid, :take] = dists[::-1][:take]
    return tails


def _assert_state_matches(ct):
    assert np.array_equal(ct.cluster_sizes(), _fresh_sizes(ct))
    assert np.array_equal(tail_bound_matrix(ct, K), _fresh_tails(ct, K))


def _live_brute(index, queries, k):
    live = index.active_ids()
    ref = knn_join(queries, index.targets[live], k, method="brute")
    return ref.distances, live[ref.indices]


class TestServedUpdateSequence:
    @pytest.mark.parametrize("trial", range(3))
    def test_served_answers_equal_brute_after_every_step(
            self, clustered_points, trial):
        """A seeded random add/remove/rebuild sequence, applied to the
        index each server holds; after every step both engines serve
        brute force's answer over the live rows, and the flat tier's
        answer equals the reference engine's bit for bit."""
        rng = np.random.default_rng(500 + trial)
        dim = clustered_points.shape[1]
        queries = rng.normal(scale=3.0, size=(12, dim)) + 3.0
        servers = {method: KNNServer(method=method, degraded_method=None)
                   for method in ("ti-flat", "ti-cpu")}
        indexes = {}
        for method, server in servers.items():
            index, _ = server.store.get(clustered_points)
            # A low growth bound: additions also trigger policy rebuilds.
            index.policy = UpdatePolicy(max_cluster_growth=1.2)
            indexes[method] = index
        for server in servers.values():
            server.start()
        try:
            for step in range(8):
                op = ("add", "remove", "rebuild")[int(rng.integers(3))]
                add = rng.normal(scale=3.0, size=(int(rng.integers(1, 15)),
                                                  dim))
                active = indexes["ti-cpu"].active_ids()
                drop = rng.choice(active, size=int(rng.integers(1, 10)),
                                  replace=False)
                for index in indexes.values():
                    if op == "add":
                        index.add(add)
                    elif op == "remove":
                        index.remove(drop)
                    else:
                        index.rebuild()
                answers = {}
                for method, server in servers.items():
                    response = server.query(queries, clustered_points, K,
                                            timeout=60)
                    ref_dists, ref_ids = _live_brute(indexes[method],
                                                     queries, K)
                    assert np.array_equal(response.indices, ref_ids), \
                        (method, step, op)
                    np.testing.assert_allclose(response.distances,
                                               ref_dists, rtol=0,
                                               atol=1e-9)
                    answers[method] = response
                assert np.array_equal(answers["ti-flat"].indices,
                                      answers["ti-cpu"].indices)
                assert np.array_equal(answers["ti-flat"].distances,
                                      answers["ti-cpu"].distances)
        finally:
            for server in servers.values():
                server.stop()


class TestDerivedValuesFollowVersions:
    @pytest.mark.parametrize("update", ["add", "remove", "rebuild"])
    def test_next_version_never_sees_cached_tails_or_sizes(
            self, clustered_points, update):
        index = Index(clustered_points, seed=0)
        before = index.target_clusters
        old_sizes = before.cluster_sizes()
        old_tails = tail_bound_matrix(before, K)
        # Centres are at distance 0 from themselves: adding points next
        # to them, or removing them, changes their clusters' tails.
        if update == "add":
            index.add(before.centers[:3] + 1e-9)
        elif update == "remove":
            index.remove(before.center_indices[:3])
        else:
            index.rebuild()
        after = index.target_clusters
        assert after is not before
        _assert_state_matches(after)
        if update != "rebuild":
            assert not np.array_equal(after.cluster_sizes(), old_sizes)
            assert not np.array_equal(tail_bound_matrix(after, K),
                                      old_tails)
        # The old version keeps the values of its own member lists.
        assert tail_bound_matrix(before, K) is old_tails
        _assert_state_matches(before)

    def test_copy_made_then_edited_derives_its_own_values(
            self, clustered_points):
        """``_next_clusters`` copies the set and then edits the copy's
        member lists: values cached on the original stay with it."""
        index = Index(clustered_points, seed=0)
        original = index.target_clusters
        _assert_state_matches(original)
        copy = index._next_clusters()
        copy.members[0] = copy.members[0][1:]
        copy.member_dists[0] = copy.member_dists[0][1:]
        _assert_state_matches(copy)
        assert copy.cluster_sizes()[0] == original.cluster_sizes()[0] - 1
        _assert_state_matches(original)

    def test_cached_values_are_read_only(self, clustered_points):
        ct = Index(clustered_points, seed=0).target_clusters
        for value in (ct.cluster_sizes(), tail_bound_matrix(ct, K)):
            with pytest.raises(ValueError):
                value[0] = 0

    def test_tails_are_cached_per_k(self, clustered_points):
        ct = Index(clustered_points, seed=0).target_clusters
        assert tail_bound_matrix(ct, 3) is tail_bound_matrix(ct, 3)
        assert tail_bound_matrix(ct, 4).shape == (ct.n_clusters, 4)
        assert np.array_equal(tail_bound_matrix(ct, 3),
                              tail_bound_matrix(ct, 4)[:, :3])


class TestBoundScanLayout:
    def test_layout_is_not_shared_across_versions(self, clustered_points):
        kernel = cscan.load()
        if kernel is None:
            pytest.skip("C kernel unavailable: %s" % cscan.fallback_reason)
        index = Index(clustered_points, seed=0)
        flats = [flat_targets(index.target_clusters)]
        index.remove(np.arange(10))
        flats.append(flat_targets(index.target_clusters))
        index.add(clustered_points[:5] + 0.5)
        flats.append(flat_targets(index.target_clusters))
        layouts = []
        for flat in flats:
            layout = cscan.BoundScan(kernel, flat).layout
            assert cscan.BoundScan(kernel, flat).layout == layout
            assert layout[1:] == (
                flat.points.ctypes.data, flat.points.shape[1],
                flat.member_idx.ctypes.data, flat.member_dists.ctypes.data,
                flat.offsets.ctypes.data)
            layouts.append(layout)
        assert len({layout[1:] for layout in layouts}) == len(flats)


class TestIdentityMemo:
    class Box:
        pass

    def test_computes_once_per_object_and_key(self):
        memo = IdentityMemo()
        box = self.Box()
        calls = []
        for key in (1, 1, 2):
            memo.get(box, lambda key=key: calls.append(key) or key, key=key)
        assert calls == [1, 2]
        assert len(memo) == 1

    def test_entry_dies_with_its_object(self):
        memo = IdentityMemo()
        box = self.Box()
        memo.get(box, lambda: 1)
        assert len(memo) == 1
        del box
        gc.collect()
        assert len(memo) == 0

    def test_objects_without_weak_references_are_not_cached(self):
        memo = IdentityMemo()
        calls = []
        key = (1, 2)
        for _ in range(2):
            memo.get(key, lambda: calls.append(1))
        assert len(calls) == 2 and len(memo) == 0
