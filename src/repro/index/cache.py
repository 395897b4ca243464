"""The process-level loaded-index cache and the zero-copy plan handle.

* :func:`load_cached` — the per-process LRU of disk-loaded
  :class:`~repro.index.Index` objects, memory-mapped read-only.  All
  shards, requests and threads of one process that reference the same
  index directory share a single mapping (and all *processes* share
  the physical pages through the OS page cache).
* :class:`PlanHandle` — what ships to a process pool instead of the
  caller's Step-1 plan and the target arrays.  A handle carries the
  index *directory path* plus its ``(fingerprint, version)`` identity
  and the already-clustered query side; the worker resolves the target
  side via :func:`load_cached` and assembles the same
  :class:`~repro.core.ti_knn.JoinPlan` the caller holds —
  bit-identical, but with a pickled payload that is O(queries), not
  O(targets).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["PlanHandle", "load_cached", "index_cache_info",
           "clear_index_cache"]

#: Distinct disk-loaded indexes kept mapped per process.  Entries are
#: mmap-backed, so the resident cost is page-cache pressure, not heap.
INDEX_CACHE_ENTRIES = 4

_indexes = OrderedDict()     # abspath -> Index (mmap-loaded)
_indexes_lock = threading.Lock()


def load_cached(path, expect_key=None, mmap=True):
    """A process-shared, mmap-backed Index for directory ``path``.

    ``expect_key`` is the ``(fingerprint, version)`` the caller built
    against; a cached *or* freshly loaded index that does not match it
    raises :class:`ValidationError` (the directory was overwritten by a
    different or newer index since the handle was made) rather than
    silently serving different data.  A stale cached entry whose
    on-disk directory has moved on is reloaded once before failing.
    """
    from .index import Index

    path = os.path.abspath(os.fspath(path))
    with _indexes_lock:
        index = _indexes.get(path)
        if index is not None:
            _indexes.move_to_end(path)
    if index is not None and (expect_key is None or index.key == expect_key):
        return index

    loaded = Index.load(path, mmap=mmap)
    if expect_key is not None and loaded.key != expect_key:
        raise ValidationError(
            "index at %r is (fingerprint=%s..., version=%d) but the "
            "execution expected (fingerprint=%s..., version=%d); the "
            "directory changed since the plan was made"
            % (path, loaded.fingerprint[:12], loaded.version,
               expect_key[0][:12], expect_key[1]))
    with _indexes_lock:
        _indexes[path] = loaded
        while len(_indexes) > INDEX_CACHE_ENTRIES:
            _indexes.popitem(last=False)
    return loaded


@dataclass(frozen=True)
class PlanHandle:
    """A JoinPlan by reference: query side by value, target side by path.

    Shipping a prepared plan to a process pool used to mean pickling
    the full target matrix and cluster metadata into every worker.  A
    handle instead carries the saved index's directory path and its
    ``(fingerprint, version)`` identity next to the (small) query-side
    clusters; :meth:`resolve` reattaches the target side through
    :func:`load_cached`, so the pickled payload no longer scales with
    the target set and all workers share one mapped copy.
    """

    index_path: str
    index_key: tuple          # (fingerprint, version)
    query_clusters: object    # ClusteredSet of the query batch
    center_dists: object      # |CQ| x |CT| centre-distance matrix
    center_band: float = 0.0  # JoinPlan.center_band
    query_rows: object = None  # |Q| x |CT| level-2 centre rows, if kept

    def resolve(self):
        """Load (or reuse) the target side and assemble the JoinPlan."""
        from ..core.ti_knn import JoinPlan

        index = load_cached(self.index_path, expect_key=self.index_key)
        return JoinPlan(query_clusters=self.query_clusters,
                        target_clusters=index.target_clusters,
                        center_dists=self.center_dists,
                        center_band=self.center_band,
                        query_rows=self.query_rows)


def index_cache_info():
    """Snapshot of this process's loaded-index cache (tests, debug)."""
    with _indexes_lock:
        return {"entries": len(_indexes), "paths": list(_indexes)}


def clear_index_cache():
    """Drop every process-cached loaded index."""
    with _indexes_lock:
        _indexes.clear()
