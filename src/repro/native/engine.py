"""The flat and native level-2 stages and their engine registrations.

The four engines below run :func:`repro.core.ti_knn.ti_knn_join` — the
same Step-1 plan, level-1 filter, per-cluster ``center_distance_rows``
batching and counter accounting as ``ti-cpu`` — with a level-2 stage
that scans the :class:`~repro.native.layout.FlatTargets` CSR pack
instead of the clustered set's ragged member lists: the vectorized
numpy kernels one query at a time (:class:`FlatScan`), or the numba
kernels over every query of the join in one ``prange`` launch
(:class:`NativeScan`).

======================  =======  =========  ==================
name                    filter   kernels    availability
======================  =======  =========  ==================
``ti-flat``             full     numpy      always
``sweet-flat``          partial  numpy      always
``ti-native``           full     numba JIT  requires ``numba``
``sweet-native``        partial  numba JIT  requires ``numba``
======================  =======  =========  ==================

All four declare ``supports_prepared_index``, so they compose with
query batching and the process/thread shard pools exactly like
``ti-cpu`` (shard workers resolve engines by name); results and
funnel counters are bit-identical to the reference engines, which the
always-run parity suite (tests/native/) asserts for the flat tier and
the numba-gated suite for the native tier.
"""

from __future__ import annotations

import numpy as np

from ..engine.base import EngineCaps, EngineSpec
from ..errors import EngineUnavailableError
from ..core.filters import ScanTrace
from ..core.ti_knn import TopKScan, ti_knn_join
from .layout import flat_targets
from .scan_numpy import heap_sorted_items, scan_query_full, scan_query_partial
from .support import (NUMBA_INSTALL_HINT, native_compile_seconds,
                      numba_available)

__all__ = ["FlatScan", "NativeScan", "ENGINES"]


class FlatScan(TopKScan):
    """Top-k level 2 over the flat layout, vectorized numpy per query."""

    label = "flat"

    def __init__(self, k, filter_strength="full"):
        super().__init__(k, filter_strength)
        self.engine = "%s-%s" % ("ti" if self.full else "sweet", self.label)
        self.method = "%s/%s" % (self.engine, filter_strength)

    def scan(self, join, work):
        join.stats.extra["kernel_tier"] = "numpy-flat"
        self.flat = flat_targets(join.plan.target_clusters)
        self.kernel = scan_query_full if self.full else scan_query_partial
        return super().scan(join, work)

    def scan_query(self, join, q, qc, row, cand, ub):
        dists, idx, trace = self.kernel(self.flat, join.queries[q], row,
                                        cand, ub, self.k)
        return (dists, idx), trace


class NativeScan(FlatScan):
    """Top-k level 2 as one numba ``prange`` launch over every query."""

    label = "native"

    def __init__(self, k, filter_strength="full"):
        super().__init__(k, filter_strength)
        if not numba_available():
            fallback = self.engine.replace("-native", "-flat")
            raise EngineUnavailableError(self.engine, ("numba",),
                                         hint=NUMBA_INSTALL_HINT % fallback)

    def scan(self, join, work):
        from . import scan_numba
        from .scan_numba import (COL_ACCEPTED, COL_CDC, COL_DCOMP,
                                 COL_EXAMINED)

        join.stats.extra["kernel_tier"] = "native"
        flat = flat_targets(join.plan.target_clusters)
        compile_before = native_compile_seconds()
        scanned = ()
        items = list(work)
        if items:
            # One row per scanned query; its candidates are a segment of
            # the concatenated per-cluster candidate lists.
            _, scanned, rows, cands, ubs = zip(*items)
            repeats = [part.size for part in scanned]
            sizes = [cand.size for cand in cands]
            seg_end = np.cumsum(sizes, dtype=np.int64)
            scanned = np.concatenate(scanned)
            args = (flat, join.queries[scanned], np.vstack(rows),
                    np.repeat(np.asarray(ubs, dtype=np.float64), repeats),
                    np.concatenate(cands).astype(np.int64, copy=False),
                    np.repeat(seg_end - sizes, repeats),
                    np.repeat(seg_end, repeats), self.k)
            scan_numba.warm_up(join.queries.shape[1])
            if self.full:
                out_d, out_i, counters = scan_numba.run_full(*args)
            else:
                out_d, out_i, out_counts, counters = \
                    scan_numba.run_partial(*args)
        if join.account_prepare:
            join.stats.extra["native_compile_s"] = round(
                native_compile_seconds() - compile_before, 6)

        for i, q in enumerate(scanned):
            accepted = int(counters[i, COL_ACCEPTED])
            trace = ScanTrace(
                examined=int(counters[i, COL_EXAMINED]),
                distance_computations=int(counters[i, COL_DCOMP]),
                center_distance_computations=int(counters[i, COL_CDC]),
                heap_updates=accepted if self.full else 0,
                accepted=accepted)
            if self.full:
                value = heap_sorted_items(out_d[i], out_i[i])
            else:
                kept = int(out_counts[i])
                value = (out_d[i, :kept], out_i[i, :kept])
            yield q, value, trace


# ----------------------------------------------------------------------
# Engine registration (see repro.engine.builtin)
# ----------------------------------------------------------------------
def _make_run(stage, strength):
    def _run(queries, targets, k, ctx, filter_strength=strength, **options):
        return ti_knn_join(queries, targets, k, ctx.rng, plan=ctx.plan,
                           query_subset=ctx.query_subset,
                           account_prepare=ctx.account_prepare,
                           level2=stage(k, filter_strength), **options)
    return _run


# Shared TI-family shape exponents; ref_s separates the tiers (flat is
# ~3x ti-cpu, native ~10x flat per BENCH_native_kernels.json) and the
# partial filter both runs cheaper and leans less on tight clusters.
_TI_EXPONENTS = (("log_q", 1.0), ("log_t", 0.3), ("log_k", 0.3),
                 ("log_d", 0.85))
_TI_FLAT_CAPS = EngineCaps(
    uses_seed=True, supports_prepared_index=True,
    cost_hints=(("ref_s", 1.0), ("clusterability", -1.5)) + _TI_EXPONENTS)
_SWEET_FLAT_CAPS = EngineCaps(
    uses_seed=True, supports_prepared_index=True,
    cost_hints=(("ref_s", 0.8), ("clusterability", -1.0)) + _TI_EXPONENTS)
_TI_NATIVE_CAPS = EngineCaps(
    uses_seed=True, supports_prepared_index=True, requires=("numba",),
    cost_hints=(("ref_s", 0.12), ("clusterability", -1.5)) + _TI_EXPONENTS)
_SWEET_NATIVE_CAPS = EngineCaps(
    uses_seed=True, supports_prepared_index=True, requires=("numba",),
    cost_hints=(("ref_s", 0.09), ("clusterability", -1.0)) + _TI_EXPONENTS)

ENGINES = (
    EngineSpec(
        name="ti-flat",
        run=_make_run(FlatScan, "full"),
        caps=_TI_FLAT_CAPS,
        description="flat-layout vectorized TI KNN (full filter; numpy "
                    "fallback of the native tier)"),
    EngineSpec(
        name="sweet-flat",
        run=_make_run(FlatScan, "partial"),
        caps=_SWEET_FLAT_CAPS,
        description="flat-layout vectorized Sweet KNN partial filter "
                    "(numpy fallback of the native tier)"),
    EngineSpec(
        name="ti-native",
        run=_make_run(NativeScan, "full"),
        caps=_TI_NATIVE_CAPS,
        description="numba-jitted TI KNN (full filter; requires numba)"),
    EngineSpec(
        name="sweet-native",
        run=_make_run(NativeScan, "partial"),
        caps=_SWEET_NATIVE_CAPS,
        description="numba-jitted Sweet KNN partial filter (requires "
                    "numba)"),
)
