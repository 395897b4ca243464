"""Flat-layout kernel tier for the level-2 scan and k-select.

This package vectorizes the host TI hot path — the level-2 member
scan (Algorithm 2's full filter) and the k-selection — over one flat
data layout (:mod:`repro.native.layout` packs the per-cluster member
lists into CSR arrays).  Each kernel call scans every active query of
one query cluster and returns one block: the neighbour rows, padded,
and a counter block in :data:`repro.core.filters.SCAN_COUNTERS` order.

* ``_scan.c`` with its loader :mod:`repro.native.cscan` — the scan as
  one C kernel; built on first use with the system ``cc``.
* :mod:`repro.native.scan_numpy` — a pure-numpy vectorized
  restructuring of the scan, used when the C kernel cannot be built: a
  vector head test over the candidate clusters, skip runs located with
  ``searchsorted``, and exact distances computed in batched windows
  that are then *walked* so the updating bound keeps Algorithm 2's
  exact semantics (the proven pattern of :mod:`repro.core.scan`, minus
  the lane logging).
* :mod:`repro.native.engine` — registers them as the ``ti-flat``
  engine.

The kernels make decision-for-decision the same choices as the
sequential reference (:func:`repro.core.filters.point_scan`), so
results **and** the funnel counters are bit-identical to the
``ti-cpu`` engine — the contract docs/NATIVE.md spells out and
tests/native/ asserts.
"""

from __future__ import annotations

from .engine import ENGINES
from .layout import FlatTargets, flat_targets

__all__ = ["ENGINES", "FlatTargets", "flat_targets"]
