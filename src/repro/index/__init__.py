"""``repro.index`` — the single owner of prepared target state.

Sweet KNN splits a join into a query-independent preparation phase
(landmark selection, clustering, the descending member sort — Fig. 4
steps 1-2) and a query phase that filters against that state.  Before
this package, several layers each kept their own copy of "prepared":
the core ``JoinPlan``, the engine ``PreparedIndex`` and the serving
index cache.  They now all share one object and one identity:

* :class:`Index` — build / :meth:`~Index.save` /
  :meth:`~Index.load` (mmap, zero-copy across processes) /
  :meth:`~Index.add` / :meth:`~Index.remove` /
  :meth:`~Index.join_plan`, with an explicit ``version`` and a cached
  content ``fingerprint``; ``(fingerprint, version)`` is the cache key
  everywhere.
* :class:`UpdatePolicy` — when incremental updates escalate to a full
  deterministic rebuild.
* :mod:`~repro.index.storage` — the on-disk format (manifest +
  ``.npy`` arrays, CSR-flattened member lists).
* :mod:`~repro.index.cache` — the per-process loaded-index cache
  plus :class:`~repro.index.cache.PlanHandle`,
  the by-path plan reference that keeps process-pool payloads
  O(queries).
* :func:`fingerprint_points` — identity-memoized content hashes, so
  steady-state lookups are O(1), not O(n·d).

See ``docs/INDEX.md`` for the lifecycle walk-through and the CLI
(``python -m repro index build/inspect/update``).
"""

from __future__ import annotations

from .cache import (PlanHandle, clear_index_cache, index_cache_info,
                    load_cached)
from .fingerprint import (cached_fingerprints, clear_memo,
                          fingerprint_points, register_fingerprint)
from .index import Index, UpdatePolicy
from .storage import (FORMAT_VERSION, MANIFEST_NAME, is_index_dir,
                      read_index, read_manifest, write_index)

__all__ = [
    "Index", "UpdatePolicy",
    "PlanHandle", "load_cached", "index_cache_info", "clear_index_cache",
    "fingerprint_points", "register_fingerprint",
    "cached_fingerprints", "clear_memo",
    "FORMAT_VERSION", "MANIFEST_NAME", "is_index_dir",
    "read_index", "read_manifest", "write_index",
]
