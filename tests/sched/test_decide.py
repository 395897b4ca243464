"""The scheduler's contracts: pinned engines, the auto rule and
byte-identical decision records.

* **pinned parity** — a named engine is never overridden; the record
  holds the filter strength it runs (the Fig. 8 rule for ``sweet``,
  the caller's option for ``ti-cpu``) and its workers resolve through
  ``resolve_workers`` exactly as a direct call would;
* **the auto rule** — ``method="auto"`` picks ``ti-flat`` at every
  shape, ``k/d > 8`` included, and the scheduled join computes exactly
  what a direct run of that engine computes;
* **byte-identical decisions** — the same inputs resolve to the same
  ``Decision`` record, byte for byte, regardless of the worker-pool
  kind and of whether the index was mmap-loaded.
"""

import json

import numpy as np
import pytest

from repro import knn_join, sched
from repro.core.adaptive import decide as adaptive_decide
from repro.core.adaptive import filter_strength_for
from repro.engine.registry import engine_names
from repro.gpu.device import tesla_k20c
from repro.obs.funnel import funnel_from_stats
from repro.parallel.shard import resolve_workers

#: Tier-1 fixture shapes: (|Q|=|T|, k, d) — the kegg-like medium
#: shape, the arcene-like high-d shape, a small synthetic mixture and
#: a partial-filter shape (k/d > 8).
SHAPES = ((4096, 20, 29), (100, 20, 10000), (2000, 10, 16), (800, 40, 4))


def _decision_bytes(**kwargs):
    decision = sched.decide(**kwargs)
    return json.dumps(decision.to_dict(), sort_keys=True).encode()


def _executed_record(result):
    """The decision part of ``stats.extra`` minus the measured time."""
    record = dict(result.stats.extra["decision"])
    assert record.pop("actual_s") >= 0
    return json.dumps(record, sort_keys=True)


class TestByteIdentity:
    def test_identical_across_pool_kinds(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        for n, k, dim in SHAPES:
            for method in ("auto", "ti-cpu"):
                records = {
                    pool: _decision_bytes(
                        n_queries=n, n_targets=n, k=k, dim=dim,
                        method=method, pool=pool)
                    for pool in ("process", "thread", "serial", None)}
                assert len(set(records.values())) == 1, (n, k, dim,
                                                         records)

    def test_identical_for_repeated_calls(self):
        first = _decision_bytes(n_queries=500, n_targets=500, k=5,
                                dim=12, method="auto")
        second = _decision_bytes(n_queries=500, n_targets=500, k=5,
                                 dim=12, method="auto")
        assert first == second

    def test_identical_for_mmap_loaded_index(self, tmp_path):
        from repro import SweetKNN
        from repro.index import Index

        rng = np.random.default_rng(11)
        points = rng.normal(size=(400, 6))
        built = Index(points, seed=3)
        built.save(tmp_path / "idx")
        loaded = Index.load(tmp_path / "idx")
        queries = points[:64]
        records = [
            _executed_record(SweetKNN.from_index(
                index, method="ti-flat").query(queries, k=5))
            for index in (built, loaded)]
        assert records[0] == records[1]

    def test_record_never_carries_the_pool_kind(self):
        decision = sched.decide(200, 200, 5, 8, method="auto",
                                pool="thread")
        payload = json.dumps(decision.to_dict())
        assert "thread" not in payload

    def test_record_fields(self):
        payload = sched.decide(200, 200, 5, 8, method="auto").to_dict()
        assert sorted(payload) == ["engine", "engine_pinned",
                                   "filter_strength", "n_shards",
                                   "reason", "workers"]


class TestFallbackParity:
    """Pinned engines resolve exactly as the previous no-model path."""

    def test_engine_stays_pinned_for_every_registered_engine(self):
        for name in engine_names():
            decision = sched.decide(500, 500, 10, 16, method=name)
            assert decision.engine == name
            assert decision.engine_pinned

    def test_filter_strength_matches_the_fig8_rule(self):
        device = tesla_k20c()
        for n, k, dim in SHAPES:
            config = adaptive_decide(n, n, k, dim, 32.0, device)
            decision = sched.decide(n, n, k, dim, method="sweet")
            assert decision.filter_strength == config.filter_strength
            assert decision.filter_strength == filter_strength_for(k, dim)

    def test_workers_resolve_exactly_as_before(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        decision = sched.decide(5000, 5000, 10, 16, method="ti-cpu")
        assert decision.workers == resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        decision = sched.decide(5000, 5000, 10, 16, method="ti-cpu")
        assert decision.workers == resolve_workers(None) == 3

    def test_explicit_workers_always_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        for method in ("ti-cpu", "auto"):
            decision = sched.decide(5000, 5000, 10, 16, method=method,
                                    workers=2)
            assert decision.workers == 2


class TestAutoRule:
    @pytest.mark.parametrize("k,dim", [(5, 8), (20, 29), (64, 8),
                                       (20, 10000), (1, 1)])
    def test_full_filter_shapes_pick_ti_flat(self, k, dim):
        # (64, 8) is exactly k/d = 8: still the full filter.
        decision = sched.decide(1000, 1000, k, dim, method="auto")
        assert decision.engine == "ti-flat"
        assert decision.filter_strength == "full"
        assert not decision.engine_pinned

    @pytest.mark.parametrize("k,dim", [(65, 8), (40, 4), (9, 1)])
    def test_partial_filter_shapes_pick_ti_flat(self, k, dim):
        # Fig. 8 would pick the partial filter here; the host flat tier
        # runs the full one (docs/SCHEDULER.md).
        decision = sched.decide(1000, 1000, k, dim, method="auto")
        assert decision.engine == "ti-flat"
        assert decision.filter_strength == "full"
        assert not decision.engine_pinned

    def test_none_means_auto(self):
        for n, k, dim in SHAPES:
            assert sched.decide(n, n, k, dim) == sched.decide(
                n, n, k, dim, method="auto")


class TestExecutedRecords:
    def test_executed_decision_identical_across_pools(self):
        """The decision part of ``stats.extra`` (everything but the
        measured time) is byte-identical across pool kinds."""
        rng = np.random.default_rng(9)
        points = rng.normal(size=(300, 8))
        records = {}
        for pool in ("serial", "thread", "process"):
            result = knn_join(points, points, 5, method="ti-cpu",
                              seed=0, workers=2, pool=pool)
            records[pool] = _executed_record(result)
        assert len(set(records.values())) == 1, records

    @pytest.mark.parametrize("k,dim,engine", [(5, 8, "ti-flat"),
                                              (40, 4, "ti-flat")])
    def test_auto_equals_a_direct_run_of_its_pick(self, k, dim, engine):
        """The scheduler changes the choosing, never the computing: one
        input on each side of the Fig. 8 ratio."""
        rng = np.random.default_rng(5)
        centres = rng.normal(scale=6.0, size=(6, dim))
        points = centres[rng.integers(0, 6, size=600)] \
            + rng.normal(size=(600, dim))
        scheduled = knn_join(points, points, k, method="auto", seed=3)
        direct = knn_join(points, points, k, method=engine, seed=3)
        assert scheduled.method == direct.method
        assert np.array_equal(scheduled.indices, direct.indices)
        assert np.array_equal(scheduled.distances, direct.distances)
        assert funnel_from_stats(scheduled.stats) \
            == funnel_from_stats(direct.stats)
        record = scheduled.stats.extra["decision"]
        assert record["engine"] == engine
        assert not record["engine_pinned"]


class TestFilterStrengthRecord:
    """The record names the filter that actually ran."""

    def test_ti_cpu_records_the_strength_it_ran(self):
        points = np.random.default_rng(4).normal(size=(200, 4))
        for strength in ("full", "partial"):
            result = knn_join(points, points, 5, method="ti-cpu",
                              filter_strength=strength)
            assert result.method == "ti-knn-cpu/" + strength
            record = result.stats.extra["decision"]
            assert record["filter_strength"] == strength
            assert record["reason"].endswith("filter=" + strength)
        default = knn_join(points, points, 5, method="ti-cpu")
        assert default.stats.extra["decision"]["filter_strength"] == "full"

    def test_ti_flat_rejects_a_filter_strength_option(self):
        points = np.random.default_rng(4).normal(size=(200, 4))
        for strength in ("full", "partial"):
            with pytest.raises(ValueError, match="filter_strength"):
                knn_join(points, points, 5, method="ti-flat",
                         filter_strength=strength)
