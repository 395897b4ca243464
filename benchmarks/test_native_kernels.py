"""Flat kernel tier — the vectorized level-2 scan against ``ti-cpu``.

Not a paper figure: the paper's level-2 scan runs as CUDA kernels,
while ``repro.native`` runs the same Algorithm 2 loop on the host over
a flat CSR layout (``ti-flat``): a C kernel built on first use with
the system ``cc``, or a vectorized numpy scan where it cannot be
built.  The payload's ``kernel_tier`` records which.  The tier is
exact *and* funnel-exact: results and work counters are bit-identical
to the sequential reference engine.

This bench records, on the Fig. 9 medium shape (kegg, |Q| = |T| =
4096, k = 20):

* the flat tier's query-phase speedup over ``ti-cpu`` (asserted
  >= 2x — the tier must pay for itself);
* the bit-identity check against ``ti-cpu``'s full filter.
"""

import numpy as np
import pytest

from repro.bench.harness import run_method
from repro.bench.reporting import emit, emit_json, format_table

DATASET = "kegg"   # the Fig. 9 medium shape (4096 x 29 stand-in)
BASELINE = "ti-cpu"
K = 20

#: Acceptance floor for the flat tier.
MIN_FLAT_SPEEDUP = 2.0


def _assert_identical(reference, contender):
    """Results and the filtering funnel, bit for bit."""
    assert np.array_equal(reference.result.indices,
                          contender.result.indices), contender.method
    assert np.array_equal(reference.result.distances,
                          contender.result.distances), contender.method
    assert reference.funnel == contender.funnel, contender.method


@pytest.mark.paper_experiment("native_kernels")
def test_native_kernels():
    reference = run_method(DATASET, BASELINE, K)
    record = run_method(DATASET, "ti-flat", K)
    _assert_identical(reference, record)
    speedup = reference.query_time_s / record.query_time_s

    rows = [[BASELINE, "reference", reference.query_time_s * 1e3, 1.0],
            ["ti-flat", record.kernel_tier, record.query_time_s * 1e3,
             speedup]]
    payload = record.payload()
    payload["query_speedup"] = round(speedup, 4)
    runs = [reference.payload(), payload]

    notes = ["results and funnel counters verified bit-identical to "
             "the %s reference" % BASELINE,
             "speedups are query-phase wall clock"]
    emit("native_kernels", format_table(
        "Flat kernel tier — %s, k=%d" % (DATASET, K),
        ["engine", "kernel tier", "query ms", "speedup(x)"],
        rows, notes=notes))
    emit_json("native_kernels", {
        "dataset": DATASET, "baseline": BASELINE, "k": K, "runs": runs})

    assert speedup >= MIN_FLAT_SPEEDUP, (
        "expected >= %.1fx query-phase speedup from the flat tier, "
        "got %.2fx" % (MIN_FLAT_SPEEDUP, speedup))
