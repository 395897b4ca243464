"""Host-speed probes: fixed kernels timed next to each measured op.

The benchmark shares its machine.  On a 2-vCPU KVM guest, neighbours'
load slowed every op by 1.2-1.9x for stretches of seconds to minutes,
while the guest reported almost no steal time; that swamps a 10%
regression.  A probe mirrors the instruction mix of what it scales and
never calls the program, so no change to the program can move it.
Scaling a wall time by ``reference / probe time`` reports it at
reference host speed.

* :class:`HostProbe` scales queries: a Python loop over small numpy
  gathers and distance windows on a ~2 MB array.  In 20 s windows over
  two to four minutes, op medians so scaled varied by 2-5% where raw
  ones varied by 15-26%.
* :class:`BulkProbe` scales set-ups, which spend most of their time in
  dense distance matrices whose temporaries are far larger than the
  cache.  Over ten seeds, the median of five set-ups so scaled spread
  by 0.02-0.06, where raw it spread by 0.08-0.24 and scaled by
  :class:`HostProbe` by 0.13-0.18.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

#: The probe's time on an uncontended 2-vCPU Xeon (Sapphire Rapids)
#: KVM guest; scaled times read as wall times on that host.
REFERENCE_S = 1.8e-3

#: The bulk probe's time on the same guest when the host probe reads
#: about ``REFERENCE_S`` (16.3-17.4 ms next to 1.9-2.0 ms, timed in a
#: fresh interpreter).  It only sets the scale of ``setup_s``.
BULK_REFERENCE_S = 15.5e-3

#: Probe times a speed factor takes the median of (the bulk probe takes
#: this many before and as many after the timed call).
RECENT = 3


class HostProbe:
    """Times the probe kernel; :meth:`factor` is the current speed factor."""

    def __init__(self):
        rng = np.random.default_rng(20170419)   # the same probe in every run
        self._points = rng.normal(size=(8192, 29))
        self._queries = rng.normal(size=(300, 29))
        self._rows = rng.integers(0, len(self._points), size=(300, 24))
        self._recent = deque(maxlen=RECENT)
        for _ in range(RECENT):
            self.measure()

    def _kernel(self):
        total = 0.0
        for query, rows in zip(self._queries, self._rows):
            diff = self._points[rows] - query
            for distance in np.sqrt(
                    np.einsum("ij,ij->i", diff, diff))[:8].tolist():
                total += distance
        return total

    def measure(self):
        """Time the kernel once; returns its wall time in seconds.

        An untimed pass first brings the probe's data back into cache,
        so the time does not depend on what the measured op evicted.
        """
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self._recent.append(elapsed)
        return elapsed

    def factor(self):
        """``REFERENCE_S`` over the median of the latest probe times."""
        return REFERENCE_S / statistics.median(self._recent)


class BulkProbe:
    """Times a memory-bound kernel shaped like an index build's distances.

    The kernel is a 2048 x 90 x 29 broadcast difference (a 43 MB
    temporary, below any workload's peak memory), its squared norms and
    an argmin.
    """

    def __init__(self):
        rng = np.random.default_rng(20170419)
        self._points = rng.normal(size=(2048, 29))
        self._centres = rng.normal(size=(90, 29))
        self._timed()

    def _timed(self):
        start = time.perf_counter()
        diff = self._points[:, None, :] - self._centres[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).argmin(axis=1)
        return time.perf_counter() - start

    def time_call(self, fn):
        """Call ``fn()`` between probes.

        Returns its result, its wall time and that time at reference
        host speed, scaled by the median of the probes around it.
        """
        before = [self._timed() for _ in range(RECENT)]
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = [self._timed() for _ in range(RECENT)]
        return result, wall, wall * BULK_REFERENCE_S / statistics.median(
            before + after)
