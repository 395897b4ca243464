"""Flat (CSR-packed) view of a clustered target set.

The flat level-2 kernels (:mod:`repro.native.scan_numpy`) want the
per-cluster member lists of a
:class:`~repro.core.clustering.ClusteredSet` as three flat arrays
(member indices, member distances, cluster offsets) instead of a list
of ragged ndarrays: one contiguous layout indexed with
``offsets[tc]:offsets[tc + 1]``.  A fourth array, ``heads``, holds
each cluster's first (largest) member distance, so the full scan can
test every candidate cluster's first member in one vector op.  The
dense level-2 route (:class:`~repro.native.engine.DenseScan`) reads two
more per-row arrays: the squared norms of its GEMM and each row's
cluster, which masks removed rows and pruned clusters.

Packing is O(n·d) and allocates ~28 bytes per target point, so it is
memoized per :class:`ClusteredSet` *object*
(:class:`~repro.core.memo.IdentityMemo`): a prepared plan queried many
times — or sliced into query batches/shards — packs once per process.
The memo treats the clustered set as immutable, the contract every
prepared plan already imposes; :meth:`repro.index.Index.add` /
:meth:`~repro.index.Index.remove` keep it by installing a new clustered
set per version, so an updated index packs once per version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.memo import IdentityMemo

__all__ = ["FlatTargets", "flat_targets", "cached_layouts", "clear_memo"]

_memo = IdentityMemo()       # ClusteredSet -> FlatTargets


@dataclass(frozen=True)
class FlatTargets:
    """CSR layout of a target clustering's member lists.

    Attributes
    ----------
    points:
        (n, d) float64 C-contiguous target matrix (shared with the
        clustered set when already canonical).
    member_idx:
        (n,) int64 concatenation of every cluster's member indices, in
        the clustered set's (descending member-distance) order.
    member_dists:
        (n,) float64 member-to-centre distances, aligned with
        ``member_idx``.
    offsets:
        (m + 1,) int64 row pointer: cluster ``tc``'s members live at
        ``[offsets[tc], offsets[tc + 1])``.
    heads:
        (m,) float64 ``member_dists[offsets[tc]]`` per cluster (its
        largest member distance, where the early break is tested);
        ``+inf`` for an empty cluster, whose lower bound ``-inf`` is
        never pruned.
    sq_norms:
        (n,) float64 ``‖t‖²`` of every row of ``points``.
    row_cluster:
        (n,) int64 cluster of every row of ``points``; ``m`` for a row
        in no member list (a removed row).
    """

    points: np.ndarray
    member_idx: np.ndarray
    member_dists: np.ndarray
    offsets: np.ndarray
    heads: np.ndarray
    sq_norms: np.ndarray
    row_cluster: np.ndarray

    @property
    def n_clusters(self):
        return int(self.offsets.shape[0] - 1)

    def sizes(self):
        return np.diff(self.offsets)


def _pack(clustered):
    sizes = np.asarray([m.size for m in clustered.members], dtype=np.int64)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if sizes.sum():
        member_idx = np.ascontiguousarray(
            np.concatenate(clustered.members).astype(np.int64, copy=False))
        member_dists = np.ascontiguousarray(
            np.concatenate(clustered.member_dists).astype(
                np.float64, copy=False))
    else:
        member_idx = np.empty(0, dtype=np.int64)
        member_dists = np.empty(0, dtype=np.float64)
    heads = np.full(sizes.size, np.inf)
    nonempty = sizes > 0
    heads[nonempty] = member_dists[offsets[:-1][nonempty]]
    points = np.ascontiguousarray(
        np.asarray(clustered.points, dtype=np.float64))
    row_cluster = np.full(points.shape[0], sizes.size, dtype=np.int64)
    row_cluster[member_idx] = np.repeat(np.arange(sizes.size), sizes)
    return FlatTargets(points=points, member_idx=member_idx,
                       member_dists=member_dists, offsets=offsets,
                       heads=heads,
                       sq_norms=np.einsum("ij,ij->i", points, points),
                       row_cluster=row_cluster)


def flat_targets(clustered):
    """The memoized :class:`FlatTargets` of a clustered target set.

    Repeat calls with the same :class:`ClusteredSet` object return the
    cached layout without touching the member lists (O(1)); the entry
    is dropped when the clustered set is garbage collected, so a
    recycled ``id`` can never alias a stale layout.
    """
    return _memo.get(clustered, lambda: _pack(clustered))


def cached_layouts():
    """Number of live memo entries (tests, debugging)."""
    return len(_memo)


def clear_memo():
    """Drop every memoized layout (tests)."""
    _memo.clear()
