"""Tests for ``explain=True`` through the serving layer.

The acceptance property: an audited request's funnel counts are
bit-identical to the counters a direct query of the same prepared
index reports — explain joins the coalescing key, so the request is
never mixed into another request's tile.
"""

import numpy as np
import pytest

from repro import SweetKNN
from repro.obs.audit import QueryAudit
from repro.obs.funnel import funnel_from_stats
from repro.serve import KNNServer


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    targets = rng.normal(size=(250, 6))
    queries = rng.normal(size=(40, 6))
    return targets, queries


@pytest.fixture
def server():
    with KNNServer(method="ti-cpu", max_wait_s=0.005, seed=0) as srv:
        yield srv


class TestServeExplain:
    def test_no_explain_no_audit(self, server, data):
        targets, queries = data
        response = server.query(queries[0], targets, k=5)
        assert response.audit is None

    def test_audit_funnel_matches_direct_join(self, server, data):
        targets, queries = data
        response = server.query(queries[:4], targets, k=5, explain=True)
        direct = SweetKNN(targets, seed=0, method="ti-cpu").query(
            queries[:4], 5)
        assert isinstance(response.audit, QueryAudit)
        assert response.audit.funnel == funnel_from_stats(direct.stats)
        assert np.array_equal(response.indices, direct.indices)

    def test_audit_carries_serving_context(self, server, data):
        targets, queries = data
        response = server.query(queries[0], targets, k=5, explain=True)
        audit = response.audit
        assert audit.request_id == response.request_id
        assert audit.route == "exact"
        assert audit.latency_s == pytest.approx(response.latency_s,
                                                abs=1e-5)
        assert audit.batch_requests == response.batch_requests
        assert audit.batch_rows == response.batch_rows
        assert audit.cache_hit == response.cache_hit
        assert audit.degraded is False
        assert audit.k == 5
        assert audit.n_targets == len(targets)

    def test_explain_requests_get_their_own_tile(self, server, data):
        """Explain joins the batch key: the audited request's funnel is
        its own, even with identical plain traffic in flight."""
        targets, queries = data
        plain = [server.submit(queries[i], targets, k=3)
                 for i in range(6)]
        audited = server.submit(queries[6], targets, k=3, explain=True)
        responses = [f.result(5.0) for f in plain] + [audited.result(5.0)]
        explained = responses[-1]
        assert explained.audit is not None
        assert explained.audit.batch_rows == 1
        direct = SweetKNN(targets, seed=0, method="ti-cpu").query(
            queries[6:7], 3)
        assert explained.audit.funnel == funnel_from_stats(direct.stats)

    def test_audit_to_dict_round_trips_json(self, server, data):
        import json

        targets, queries = data
        response = server.query(queries[0], targets, k=5, explain=True)
        record = json.loads(json.dumps(response.audit.to_dict()))
        assert record["type"] == "query_audit"
        assert record["request_id"] == response.request_id
        assert record["funnel"] == dict(response.audit.funnel)
