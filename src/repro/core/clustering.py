"""Landmark clustering — Step 1 of the TI-based KNN (Fig. 4, Sec. III-A).

Each query/target point is assigned to its closest landmark, forming
clusters.  For a *query* cluster the algorithm only needs the maximal
member-to-centre distance (its radius); for a *target* cluster it needs
every member's distance to the centre, with members sorted in
**descending** order of that distance — the order that makes the
level-2 filter's early ``break`` sound (Algorithm 2 lines 10-11).

:class:`ClusteredSet` is the host-side ground truth; the GPU-side
two-kernel construction with atomic slot allocation (Section III-A's
local-ID trick) lives in :mod:`repro.core.basic_gpu` and is tested
against this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import nearest_columns, pairwise_distances
from .memo import IdentityMemo

__all__ = ["ClusteredSet", "cluster_points", "center_distances"]

_sizes_memo = IdentityMemo()     # ClusteredSet -> member counts


@dataclass
class ClusteredSet:
    """Points grouped around landmarks, with the per-cluster statistics
    required by the two-level TI filter.

    Attributes
    ----------
    points:
        (n, d) point matrix (float64).
    center_indices:
        Indices into ``points`` of the landmarks.
    centers:
        (m, d) landmark coordinates.
    assignment:
        For each point, the cluster it belongs to.
    dist_to_center:
        For each point, its distance to its cluster's centre.
    members:
        Per cluster, the member point indices.  When built with
        ``sort_descending=True`` (target sets) they are ordered by
        decreasing distance to the centre.
    member_dists:
        Per cluster, the member distances in the same order.
    radius:
        Per cluster, the maximal member-to-centre distance (0 for an
        empty cluster).
    init_distance_computations:
        Point-to-centre distances computed while clustering (n * m);
        part of the overhead the speedup calculations include
        (Section V-B: "the calculations of the speedups have
        considered all the overhead").
    """

    points: np.ndarray
    center_indices: np.ndarray
    centers: np.ndarray
    assignment: np.ndarray
    dist_to_center: np.ndarray
    members: list = field(default_factory=list)
    member_dists: list = field(default_factory=list)
    radius: np.ndarray = None
    init_distance_computations: int = 0

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def n_clusters(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def cluster_sizes(self):
        """Read-only (m,) member counts, computed once per object
        (:class:`~repro.core.memo.IdentityMemo`)."""
        return _sizes_memo.get(self, self._count_members)

    def _count_members(self):
        sizes = np.fromiter((len(m) for m in self.members), dtype=np.int64,
                            count=len(self.members))
        sizes.setflags(write=False)
        return sizes

    def check_invariants(self):
        """Validate membership, radii and (if sorted) ordering."""
        sizes = self.cluster_sizes()
        if sizes.sum() != self.n_points:
            return False
        for cid, (members, dists) in enumerate(
                zip(self.members, self.member_dists)):
            if not np.all(self.assignment[members] == cid):
                return False
            if dists.size and not np.isclose(
                    self.radius[cid], dists.max(), rtol=1e-12, atol=1e-12):
                return False
        return True


def cluster_points(points, center_indices, sort_descending=False):
    """Assign every point to its nearest landmark.

    Parameters
    ----------
    points:
        (n, d) array.
    center_indices:
        Landmark indices into ``points``.
    sort_descending:
        Order each cluster's members by decreasing distance to the
        centre (required for target sets).

    Returns
    -------
    ClusteredSet
    """
    points = np.asarray(points, dtype=np.float64)
    center_indices = np.asarray(center_indices, dtype=np.int64)
    centers = points[center_indices]
    n = points.shape[0]
    m = centers.shape[0]

    if n == 1 and m == 1:
        # A lone point is its own landmark (a one-row serving batch),
        # at distance 0 in any form.
        dist_to_center = np.zeros(1, dtype=np.float64)
        assignment = np.zeros(1, dtype=np.int64)
    else:
        # The (distance, index) order is argmin's first-minimum rule.
        dist_to_center, assignment = nearest_columns(points, centers, 1)
        dist_to_center = dist_to_center[:, 0]
        assignment = assignment[:, 0]

    members = []
    member_dists = []
    radius = np.zeros(m, dtype=np.float64)
    order = np.argsort(assignment, kind="stable")
    boundaries = np.searchsorted(assignment[order], np.arange(m + 1))
    for cid in range(m):
        idx = order[boundaries[cid]:boundaries[cid + 1]]
        dists = dist_to_center[idx]
        if sort_descending and idx.size:
            sort = np.argsort(-dists, kind="stable")
            idx = idx[sort]
            dists = dists[sort]
        members.append(idx)
        member_dists.append(dists)
        if dists.size:
            radius[cid] = dists.max()

    return ClusteredSet(
        points=points,
        center_indices=center_indices,
        centers=centers,
        assignment=assignment,
        dist_to_center=dist_to_center,
        members=members,
        member_dists=member_dists,
        radius=radius,
        init_distance_computations=n * m,
    )


def center_distances(query_clusters, target_clusters):
    """|CQ| x |CT| matrix of centre-to-centre distances.

    These are the ``d(L1, L2)`` values every two-landmark bound in the
    level-1 filter reads.
    """
    return pairwise_distances(query_clusters.centers,
                              target_clusters.centers)
