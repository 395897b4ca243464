"""Tests for ``explain=True`` and the :class:`QueryAudit` record."""

import numpy as np
import pytest

from repro import knn_join
from repro.obs.audit import QueryAudit, span_timings
from repro.obs.funnel import FUNNEL_STAGES, funnel_from_stats


@pytest.fixture
def points(rng):
    return rng.normal(size=(120, 6))


class TestSpanTimings:
    def test_aggregates_by_name(self):
        class FakeSpan:
            def __init__(self, name, duration_s):
                self.name = name
                self.duration_s = duration_s

        timings = span_timings([FakeSpan("engine.execute", 0.5),
                                FakeSpan("kernel", 0.1),
                                FakeSpan("kernel", 0.2)])
        assert timings["engine.execute"] == {"count": 1, "total_s": 0.5}
        assert timings["kernel"]["count"] == 2
        assert timings["kernel"]["total_s"] == pytest.approx(0.3)


class TestQueryAuditRecord:
    def test_to_dict_is_json_ready(self):
        audit = QueryAudit(method="sweet-knn", k=5, n_queries=10,
                           n_targets=100, dim=6,
                           funnel={"candidates": 1000},
                           shards=({"shard": 0, "start": 0, "stop": 10},))
        record = audit.to_dict()
        assert record["type"] == "query_audit"
        assert record["shards"] == [{"shard": 0, "start": 0, "stop": 10}]
        import json
        json.dumps(record)      # round-trippable without custom encoders

    def test_replace_recontextualises(self):
        audit = QueryAudit(method="sweet-knn", k=5)
        served = audit.replace(request_id="req-1", route="approx",
                               latency_s=0.004)
        assert served.request_id == "req-1"
        assert served.route == "approx"
        assert audit.request_id is None     # original untouched

    def test_table_renders_funnel_and_plan(self):
        audit = QueryAudit(method="sweet-knn", k=5, n_queries=10,
                           n_targets=100, dim=6,
                           plan={"mq": 3, "workers": 2},
                           funnel={"candidates": 1000,
                                   "level2_survivors": 40})
        text = audit.table()
        assert "funnel.candidates" in text
        assert "plan.workers" in text
        assert "10x100 (6)" in text


class TestExplainJoin:
    def test_without_explain_no_audit(self, points):
        result = knn_join(points, points, 5, method="sweet", seed=1)
        assert result.audit is None

    def test_explain_attaches_audit(self, points):
        result = knn_join(points, points, 5, method="sweet", seed=1,
                          explain=True)
        audit = result.audit
        assert isinstance(audit, QueryAudit)
        assert audit.method == result.method
        assert audit.k == 5
        assert audit.n_queries == audit.n_targets == len(points)
        assert audit.dim == points.shape[1]
        assert audit.route == "exact"
        assert audit.timings          # engine span at minimum

    def test_explain_funnel_bit_identical_to_direct_counters(self, points):
        plain = knn_join(points, points, 5, method="sweet", seed=1)
        explained = knn_join(points, points, 5, method="sweet", seed=1,
                             explain=True)
        assert explained.audit.funnel == funnel_from_stats(plain.stats)
        # The decision record carries measured wall time, which differs
        # between two separate runs; everything else is exact.
        counters = dict(explained.audit.counters)
        expected = plain.stats.summary()
        for record in (counters.get("decision"), expected.get("decision")):
            if record:
                record.pop("actual_s", None)
        assert counters == expected
        for stage in FUNNEL_STAGES:
            assert stage in explained.audit.funnel

    def test_explain_does_not_change_the_answer(self, points):
        plain = knn_join(points, points, 5, method="sweet", seed=1)
        explained = knn_join(points, points, 5, method="sweet", seed=1,
                             explain=True)
        assert np.array_equal(plain.indices, explained.indices)
        assert np.allclose(plain.distances, explained.distances)

    def test_cpu_method_explain(self, points):
        result = knn_join(points, points, 4, method="ti-cpu",
                          explain=True)
        assert result.audit.funnel == funnel_from_stats(result.stats)

    def test_sharded_explain_reports_per_shard_fanout(self, points):
        result = knn_join(points, points, 5, method="ti-cpu",
                          workers=2, pool="thread", query_batch_size=60,
                          explain=True)
        audit = result.audit
        assert len(audit.shards) == 2
        total_rows = sum(shard["stop"] - shard["start"]
                         for shard in audit.shards)
        assert total_rows == len(points)
        merged_level2 = sum(shard["funnel"]["level2_survivors"]
                            for shard in audit.shards)
        assert merged_level2 == audit.funnel["level2_survivors"]
        for shard in audit.shards:
            assert shard["wall_s"] >= 0.0

    def test_explain_audit_exports_jsonl(self, points, tmp_path):
        from repro.obs.export import write_jsonl

        result = knn_join(points, points, 5, method="sweet", seed=1,
                          explain=True)
        path = tmp_path / "audit.jsonl"
        write_jsonl(path, [result.audit.to_dict()])
        import json
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert record["type"] == "query_audit"
        assert record["funnel"] == {
            key: value for key, value in result.audit.funnel.items()}
