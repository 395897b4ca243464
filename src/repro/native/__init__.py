"""Native-compiled kernel tier for the level-2 scan and k-select.

PR 4 vectorized the level-1 filter; this package does the same for the
remaining hot path — the level-2 member scan (Algorithm 2) and the
k-selection — in two layers over one shared flat data layout
(:mod:`repro.native.layout` packs the per-cluster member lists into
CSR arrays):

* :mod:`repro.native.scan_numpy` — a pure-numpy vectorized
  restructuring of the scan: skip runs located with ``searchsorted``,
  exact distances computed in batched windows that are then *walked*
  so the updating bound keeps Algorithm 2's exact semantics (the
  proven pattern of :mod:`repro.core.scan`, minus the lane logging).
  Always available; registered as the ``ti-flat`` / ``sweet-flat``
  engines.
* :mod:`repro.native._jit` — the same loops compiled by numba
  (``@njit(parallel=True, cache=True)``, one ``prange`` lane per
  query).  Optional dependency; registered as the ``ti-native`` /
  ``sweet-native`` engines, which fail fast with an install hint when
  numba is absent (see ``EngineCaps.requires``).

Both tiers make decision-for-decision the same choices as the
sequential reference (:func:`repro.core.filters.point_scan`), so
results **and** the funnel counters are bit-identical to the
``ti-cpu`` engine — the contract docs/NATIVE.md spells out and
tests/native/ asserts.
"""

from __future__ import annotations

from .engine import ENGINES
from .layout import FlatTargets, flat_targets
from .support import (native_compile_seconds, numba_available,
                     warm_up_kernels)

__all__ = [
    "ENGINES",
    "FlatTargets", "flat_targets",
    "numba_available", "native_compile_seconds", "warm_up_kernels",
]
