"""Values derived from an object, memoized per object identity.

Index state that depends only on an installed target clustering is
computed once per object, not once per call: the flat layout
(:func:`repro.native.layout.flat_targets`), the tail-bound matrix
(:func:`repro.core.filters.tail_bound_matrix`), the centre norms and
C x C centre matrix (:func:`repro.core.filters.center_matrix`), the
cluster sizes
(:meth:`repro.core.clustering.ClusteredSet.cluster_sizes`) and the C
kernel's pointer layout (:class:`repro.native.cscan.BoundScan`).

An :class:`IdentityMemo` keys on ``id(obj)`` validated by a weak
reference, so a garbage-collected object can never alias a recycled
id, and an entry is dropped with its object.  A value is never stored
on the object it derives from: :meth:`repro.index.Index.add` /
:meth:`~repro.index.Index.remove` copy the clustered set and then edit
the copy, and a cache that travelled with the copy would carry the old
version's values into the new one.  The memo treats a keyed object as
immutable once a value is derived from it, the contract every prepared
plan already imposes.
"""

from __future__ import annotations

import threading
import weakref

__all__ = ["IdentityMemo"]


class IdentityMemo:
    """``compute()`` results per live object and key."""

    def __init__(self):
        self._entries = {}      # id(obj) -> (weakref to obj, {key: value})
        self._lock = threading.Lock()

    def get(self, obj, compute, key=None):
        """The value of ``compute()`` for ``obj`` and ``key``, computed
        on the first call for this object and key.

        Objects that cannot be weakly referenced are never cached.  Two
        threads missing together may both compute; the first value
        stored wins.  ``compute`` must not hold a reference to ``obj``
        in its result, or the entry would keep its object alive.
        """
        oid = id(obj)
        with self._lock:
            entry = self._entries.get(oid)
            if entry is not None and entry[0]() is obj and key in entry[1]:
                return entry[1][key]
        value = compute()
        with self._lock:
            entry = self._entries.get(oid)
            if entry is None or entry[0]() is not obj:
                try:
                    ref = weakref.ref(
                        obj, lambda ref, oid=oid: self._forget(oid, ref))
                except TypeError:
                    return value
                entry = self._entries[oid] = (ref, {})
            return entry[1].setdefault(key, value)

    def _forget(self, oid, ref):
        # Runs from the garbage collector, possibly inside ``get`` on
        # this thread, so it takes no lock; a dict lookup and pop are
        # atomic, and no live object can hold ``oid`` yet.
        entry = self._entries.get(oid)
        if entry is not None and entry[0] is ref:
            self._entries.pop(oid, None)

    def __len__(self):
        """Number of live objects with a cached value."""
        with self._lock:
            return len(self._entries)

    def clear(self):
        """Drop every cached value (tests)."""
        with self._lock:
            self._entries.clear()
