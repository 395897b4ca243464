"""KD-tree KNN baseline (the paper's other algorithmic family).

The paper's related work contrasts TI-based filtering with KD-tree
methods [8]-[10]; this host-side implementation rounds out the
baseline set for the ablation benches (KD-trees degrade with
dimensionality, which is visible on the high-dimensional stand-ins).

Implemented from scratch (median-split, bounded best-first descent)
rather than delegating to scipy, so its work counters are comparable
with the TI implementations.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import pair_distances
from ..core.filters import BOUND_COMPARISON_RTOL
from ..core.result import JoinStats, KNNResult
from ..engine.base import EngineSpec
from ..kselect import KNearestHeap

__all__ = ["KDTree", "kdtree_knn", "ENGINE"]

_LEAF_SIZE = 16
#: Absolute slack of the far-side test: a squared coordinate gap below
#: 2**-1074 underflows to 0, so a point's computed distance can be
#: 0 while its plane gap is up to about 2**-537.
_UNDERFLOW = 2.0 ** -500


class _Node:
    __slots__ = ("axis", "threshold", "left", "right", "indices")

    def __init__(self, axis=-1, threshold=0.0, left=None, right=None,
                 indices=None):
        self.axis = axis
        self.threshold = threshold
        self.left = left
        self.right = right
        self.indices = indices

    @property
    def is_leaf(self):
        return self.indices is not None


class KDTree:
    """A median-split KD-tree over an (n, d) point set."""

    def __init__(self, points, leaf_size=_LEAF_SIZE):
        self.points = np.asarray(points, dtype=np.float64)
        self.leaf_size = int(leaf_size)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.distance_computations = 0
        self.nodes = 0
        self.root = self._build(np.arange(self.points.shape[0]), depth=0)

    def _build(self, indices, depth):
        self.nodes += 1
        if indices.size <= self.leaf_size:
            return _Node(indices=indices)
        axis = depth % self.points.shape[1]
        values = self.points[indices, axis]
        order = np.argsort(values, kind="stable")
        indices = indices[order]
        mid = indices.size // 2
        threshold = values[order[mid]]
        return _Node(axis=axis, threshold=float(threshold),
                     left=self._build(indices[:mid], depth + 1),
                     right=self._build(indices[mid:], depth + 1))

    def query(self, point, k):
        """k nearest neighbours of ``point``: ``(distances, indices)``."""
        point = np.asarray(point, dtype=np.float64)
        heap = KNearestHeap(int(k))
        self._descend(self.root, point, heap)
        return heap.sorted_items()

    def _descend(self, node, point, heap):
        if node.is_leaf:
            dists = pair_distances(point[None, :], self.points,
                                   np.zeros(node.indices.size, np.int64),
                                   node.indices)
            self.distance_computations += int(dists.size)
            for dist, idx in zip(dists.tolist(), node.indices.tolist()):
                heap.push(dist, idx)
            return
        delta = point[node.axis] - node.threshold
        near, far = ((node.left, node.right) if delta < 0
                     else (node.right, node.left))
        self._descend(near, point, heap)
        # Prune the far side only when the splitting plane lies beyond
        # the current k-th distance: a far point at exactly that
        # distance may still win its tie by index, and the slack covers
        # the rounding and underflow of the point's computed distance.
        if not heap.full or abs(delta) <= heap.max_distance * (
                1.0 + BOUND_COMPARISON_RTOL) + _UNDERFLOW:
            self._descend(far, point, heap)


def kdtree_knn(queries, targets, k, leaf_size=_LEAF_SIZE):
    """KNN join through a KD-tree; host-side exact baseline."""
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(targets):
        raise ValueError("k cannot exceed the number of target points")

    tree = KDTree(targets, leaf_size=leaf_size)
    results = [tree.query(q, k) for q in queries]
    distances, indices = KNNResult.pack(results, k)
    stats = JoinStats(
        n_queries=len(queries), n_targets=len(targets), k=k,
        dim=queries.shape[1],
        level2_distance_computations=tree.distance_computations,
        predicate_accepted_pairs=len(queries) * k,
        extra={"tree_nodes": tree.nodes},
    )
    return KNNResult(distances=distances, indices=indices, stats=stats,
                     method="kdtree-cpu")


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_engine(queries, targets, k, ctx, **options):
    return kdtree_knn(queries, targets, k, **options)


ENGINE = EngineSpec(
    name="kdtree",
    run=_run_engine,
    description="KD-tree KNN baseline on the host",
)
