"""Tests for the command-line interface."""

import io

import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.cli import build_parser, main
from repro.engine import EngineSpec, register, unregister
from repro.native import cscan


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "sweet"
        assert args.k == 20

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "magic"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "mnist"])

    def test_compare_methods_default(self):
        args = build_parser().parse_args(["compare"])
        assert args.methods == ["cublas", "ti-gpu", "sweet"]

    def test_compare_methods_custom_list(self):
        args = build_parser().parse_args(
            ["compare", "--methods", "brute,ti-cpu,sweet"])
        assert args.methods == ["brute", "ti-cpu", "sweet"]

    def test_compare_methods_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--methods",
                                       "sweet,magic"])


class TestCommands:
    def test_datasets_lists_all_nine(self):
        code, text = _run(["datasets"])
        assert code == 0
        for name in ("3dnet", "kegg", "arcene", "blog"):
            assert name in text

    def test_run_synthetic(self):
        code, text = _run(["run", "--n", "300", "--dim", "8", "-k", "5"])
        assert code == 0
        assert "sweet-knn" in text
        assert "saved" in text

    def test_run_with_check(self):
        code, text = _run(["run", "--n", "200", "--dim", "6", "-k", "4",
                           "--check"])
        assert code == 0
        assert "exact vs brute force: True" in text

    def test_check_rejects_a_distance_off_by_1e_6(self):
        def nudged(queries, targets, k, ctx, **options):
            result = brute_force_knn(queries, targets, k)
            result.distances[0, -1] += 1e-6
            return result

        register(EngineSpec(name="nudged-brute", run=nudged))
        try:
            code, text = _run(["run", "--n", "200", "--dim", "6", "-k", "4",
                               "--method", "nudged-brute", "--check"])
        finally:
            unregister("nudged-brute")
        assert code == 1
        assert "exact vs brute force: False" in text

    def test_run_cpu_method(self):
        code, text = _run(["run", "--n", "200", "--dim", "6", "-k", "4",
                           "--method", "ti-cpu"])
        assert code == 0
        assert "ti-knn-cpu" in text

    def test_run_flat_method(self):
        code, text = _run(["run", "--n", "200", "--dim", "6", "-k", "4",
                           "--method", "ti-flat", "--check"])
        assert code == 0
        assert ("c-flat" if cscan.load() is not None else "numpy-flat") \
            in text
        assert "exact vs brute force: True" in text

    def test_run_auto_method(self):
        code, text = _run(["run", "--method", "auto", "--n", "400",
                           "--dim", "8", "-k", "5"])
        assert code == 0
        assert "auto -> ti-flat" in text

    def test_compare_table(self):
        code, text = _run(["compare", "--n", "400", "--dim", "8",
                           "-k", "5"])
        assert code == 0
        assert "cublas baseline" in text
        assert "Sweet KNN" in text
        assert "speedup" in text
        assert "WARNING" not in text

    def test_compare_custom_methods_and_baseline(self):
        code, text = _run(["compare", "--n", "300", "--dim", "6",
                           "-k", "4", "--methods", "brute,ti-cpu"])
        assert code == 0
        assert "brute" in text
        assert "ti-cpu" in text
        assert "cublas baseline" not in text
        assert "WARNING" not in text

    def test_serve_bench(self):
        code, text = _run(["serve-bench", "--n", "300", "--dim", "6",
                           "-k", "5", "--requests", "60", "--check"])
        assert code == 0
        assert "60 served / 0 rejected / 0 expired" in text
        assert "index-cache hit rate %" in text
        assert "latency p99 ms" in text
        assert "exact-routed answers equal direct knn_join: True" in text

    def test_adaptive_partial_regime(self):
        code, text = _run(["adaptive", "--n", "500", "--dim", "4",
                           "-k", "64"])
        assert code == 0
        assert "partial level-2 filtering" in text

    def test_adaptive_full_regime(self):
        code, text = _run(["adaptive", "--n", "500", "--dim", "32",
                           "-k", "8"])
        assert code == 0
        assert "full level-2 filtering" in text

    def test_plan_command(self):
        code, text = _run(["plan", "--n", "400", "--dim", "8", "-k", "6"])
        assert code == 0
        assert "execution plan" in text
        for key in ("method", "mq", "mt", "query_batches", "filter"):
            assert key in text

    def test_plan_host_engine(self):
        code, text = _run(["plan", "--n", "200", "--dim", "4", "-k", "3",
                           "--method", "brute"])
        assert code == 0
        assert "brute" in text

    def test_run_forced_batch_size(self):
        code, text = _run(["run", "--n", "250", "--dim", "6", "-k", "4",
                           "--query-batch-size", "60", "--check"])
        assert code == 0
        assert "exact vs brute force: True" in text
        assert "'query_batches': 5" in text


class TestTraceCommand:
    def test_traced_run_writes_valid_chrome_trace(self, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        code, text = _run(["trace", "--trace-out", str(trace_path),
                           "--events-out", str(events_path),
                           "--check-funnel",
                           "run", "--n", "300", "--dim", "8", "-k", "5"])
        assert code == 0
        assert "filtering funnel" in text
        assert "funnel invariant holds" in text
        events = json.load(open(trace_path))["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M", "i")
            assert "pid" in event and "tid" in event
        names = {event["name"] for event in events}
        assert "engine.execute" in names
        assert sum(1 for _ in open(events_path)) > 1

    def test_trace_without_command_errors(self, tmp_path):
        code, text = _run(["trace", "--trace-out",
                           str(tmp_path / "t.json")])
        assert code == 2
        assert "trace needs a command" in text

    def test_traced_serve_bench_includes_request_spans(self, tmp_path):
        import json

        trace_path = tmp_path / "serve.json"
        code, text = _run(["trace", "--trace-out", str(trace_path),
                           "serve-bench", "--n", "300", "--dim", "6",
                           "-k", "5", "--requests", "20"])
        assert code == 0
        names = {event["name"]
                 for event in json.load(open(trace_path))["traceEvents"]}
        assert {"serve.request", "serve.queue", "serve.batch"} <= names


class TestRangeMethodsCLI:
    def test_eps_is_parsed(self):
        args = build_parser().parse_args(
            ["run", "--method", "range-join", "--eps", "1.5"])
        assert args.eps == 1.5

    def test_missing_eps_exits_with_guidance(self):
        code, text = _run(["run", "--n", "200", "--dim", "6",
                           "--method", "range-join"])
        assert code == 2
        assert "needs --eps" in text

    def test_extraneous_eps_is_rejected(self):
        code, text = _run(["run", "--n", "200", "--dim", "6",
                           "--method", "sweet", "--eps", "1.0"])
        assert code == 2
        assert "--eps" in text

    def test_self_join_checked_against_brute(self):
        code, text = _run(["run", "--n", "250", "--dim", "6",
                           "--method", "self-join-eps", "--eps", "1.5",
                           "--check"])
        assert code == 0
        assert "accepted pairs:" in text
        assert "exact vs brute force: True" in text

    def test_rknn_checked_against_brute(self):
        code, text = _run(["run", "--n", "250", "--dim", "6",
                           "--method", "rknn", "-k", "4", "--check"])
        assert code == 0
        assert "exact vs brute force: True" in text

    def test_range_method_refuses_index_dir(self, tmp_path):
        code, text = _run(["run", "--method", "range-join", "--eps", "1.0",
                           "--index-dir", str(tmp_path / "missing")])
        assert code == 2
        assert "prepared index" in text or "--index-dir" in text

    def test_compare_range_against_brute_baseline(self):
        code, text = _run(["compare", "--n", "250", "--dim", "6",
                           "--methods", "range-join-brute,range-join",
                           "--eps", "1.5"])
        assert code == 0
        assert "range-join" in text
        assert "WARNING" not in text

    def test_plan_validates_eps(self):
        code, text = _run(["plan", "--n", "200", "--dim", "6",
                           "--method", "range-join"])
        assert code == 2
        assert "needs --eps" in text


class TestWorkloadCommands:
    def test_classify_reports_held_out_accuracy(self):
        code, text = _run(["classify", "--n", "400", "--dim", "6",
                           "-k", "5"])
        assert code == 0
        assert "held-out accuracy:" in text

    def test_classify_validates_train_frac(self):
        code, text = _run(["classify", "--n", "200", "--dim", "4",
                           "--train-frac", "1.5"])
        assert code == 2

    def test_novelty_separates_planted_outliers(self):
        code, text = _run(["novelty", "--n", "400", "--dim", "6",
                           "-k", "5"])
        assert code == 0
        assert "outliers above every inlier score:" in text


class TestGraphCLI:
    @pytest.fixture
    def index_dir(self, tmp_path):
        path = tmp_path / "idx"
        code, _ = _run(["index", "build", "--n", "400", "--dim", "8",
                        "--seed", "5", "--out", str(path)])
        assert code == 0
        return path

    @pytest.fixture
    def graph_dir(self, index_dir):
        code, text = _run(["graph", "build", "--index-dir",
                           str(index_dir), "-k", "5",
                           "--sample", "64", "--n-probe", "32"])
        assert code == 0
        assert "built graph" in text
        assert "recall@5 curve" in text
        return index_dir

    def test_build_and_inspect(self, graph_dir):
        code, text = _run(["graph", "inspect", str(graph_dir)])
        assert code == 0
        for needle in ("fingerprint", "graph_k", "iteration_updates",
                       "recall curve", "node_ids"):
            assert needle in text

    def test_inspect_without_artifact_guides(self, index_dir):
        code, text = _run(["graph", "inspect", str(index_dir)])
        assert code == 2
        assert "graph build --index-dir" in text

    def test_run_graph_engine(self, graph_dir):
        code, text = _run(["run", "--index-dir", str(graph_dir),
                           "--method", "graph-bfs", "--n", "100",
                           "--seed", "5", "-k", "5", "--check"])
        assert code == 0
        assert "graph walk" in text
        assert "approximate graph route: ef=" in text
        assert "measured recall@5 vs brute force:" in text

    def test_run_with_recall_target_uses_calibrated_ef(self, graph_dir):
        code, text = _run(["run", "--index-dir", str(graph_dir),
                           "--method", "graph-bfs", "--n", "60",
                           "-k", "5", "--recall-target", "0.9"])
        assert code == 0
        assert "recall target 0.90" in text

    def test_missing_index_dir_guides(self):
        code, text = _run(["run", "--n", "100", "--dim", "8",
                           "--method", "graph-bfs", "-k", "5"])
        assert code == 2
        assert "graph build" in text

    def test_missing_artifact_guides(self, index_dir):
        code, text = _run(["run", "--index-dir", str(index_dir),
                           "--method", "graph-bfs", "--n", "100",
                           "-k", "5"])
        assert code == 2
        assert "has no graph artifact" in text
        assert "graph build --index-dir" in text

    def test_recall_target_rejected_for_exact_methods(self):
        code, text = _run(["run", "--n", "100", "--dim", "8",
                           "--method", "sweet", "--recall-target",
                           "0.9"])
        assert code == 2
        assert "--recall-target only applies to" in text

    def test_recall_target_validated(self):
        code, text = _run(["run", "--n", "100", "--dim", "8",
                           "--method", "graph-bfs", "--recall-target",
                           "1.5"])
        assert code == 2
        assert "(0, 1]" in text

    def test_compare_prints_recall_note(self):
        code, text = _run(["compare", "--n", "300", "--dim", "8",
                           "-k", "5", "--recall-target", "0.9",
                           "--methods", "brute,graph-bfs"])
        assert code == 0
        assert "NOTE: graph-bfs is approximate" in text
        assert "measured recall@5" in text
        assert "WARNING" not in text

    def test_compare_requires_recall_target(self):
        code, text = _run(["compare", "--n", "300", "--dim", "8",
                           "-k", "5", "--methods", "brute,graph-bfs"])
        assert code == 2
        assert "needs --recall-target" in text

    def test_serve_bench_recall_mix(self, graph_dir):
        code, text = _run(["serve-bench", "--index-dir", str(graph_dir),
                           "--n", "400", "--dim", "8", "--seed", "5",
                           "--requests", "40", "-k", "5",
                           "--recall-target", "0.9", "--check"])
        assert code == 0
        assert "recall mix: every 2. request" in text
        assert "served approx route" in text
        assert "exact-routed answers equal direct knn_join: True" in text
        assert "approx-routed measured recall@5:" in text

    def test_serve_bench_recall_needs_artifact(self, index_dir):
        code, text = _run(["serve-bench", "--index-dir", str(index_dir),
                           "--n", "400", "--dim", "8",
                           "--recall-target", "0.9"])
        assert code == 2
        assert "has no graph artifact" in text

    def test_serve_bench_recall_needs_index_dir(self):
        code, text = _run(["serve-bench", "--n", "200", "--dim", "8",
                           "--recall-target", "0.9"])
        assert code == 2
        assert "--index-dir" in text


class TestExplainCommand:
    def test_explain_renders_audit_table(self):
        code, text = _run(["explain", "--n", "300", "--dim", "6",
                           "-k", "5"])
        assert code == 0
        assert "query audit" in text
        assert "funnel.candidates" in text
        assert "plan.workers" in text
        assert "span.engine.execute" in text

    def test_explain_json_writes_audit_record(self, tmp_path):
        import json

        path = tmp_path / "audit.jsonl"
        code, text = _run(["explain", "--n", "300", "--dim", "6",
                           "-k", "5", "--json", str(path)])
        assert code == 0
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert record["type"] == "query_audit"
        assert record["k"] == 5
        assert record["funnel"]["candidates"] > 0

    def test_explain_auto_records_an_unpinned_decision(self, tmp_path):
        """``--method auto`` is recorded as the scheduler's choice, as
        ``knn_join(method="auto")`` records it."""
        import json

        path = tmp_path / "audit.jsonl"
        code, text = _run(["explain", "--n", "300", "--dim", "2",
                           "-k", "20", "--method", "auto",
                           "--json", str(path)])
        assert code == 0
        assert "auto -> ti-flat" in text
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        decision = record["decision"]
        assert decision["engine"] == "ti-flat"
        assert decision["engine_pinned"] is False
        assert decision["reason"].startswith("auto:")

    def test_explain_sharded_lists_shards(self):
        code, text = _run(["explain", "--n", "300", "--dim", "6",
                           "-k", "5", "--method", "ti-cpu",
                           "--workers", "2", "--pool", "thread"])
        assert code == 0
        assert "shard 0" in text


class TestBenchGateCommand:
    @pytest.fixture
    def results_dir(self, tmp_path):
        import json

        payload = {"dataset": "synthetic", "n": 500,
                   "query_time_s": 0.2, "speedup": 3.0}
        (tmp_path / "BENCH_demo.json").write_text(json.dumps(payload))
        return tmp_path

    def test_gate_without_trajectory_exits_2(self, results_dir):
        code, text = _run(["bench-gate", "--results-dir",
                           str(results_dir)])
        assert code == 2
        assert "--ingest" in text

    def test_ingest_then_repeat_gate_passes(self, results_dir):
        code, text = _run(["bench-gate", "--results-dir",
                           str(results_dir), "--ingest"])
        assert code == 0
        assert "ingested" in text
        assert (results_dir / "TRAJECTORY.jsonl").exists()
        code, text = _run(["bench-gate", "--results-dir",
                           str(results_dir)])
        assert code == 0
        assert "ok=2" in text

    def test_2x_slowdown_gates_nonzero(self, results_dir):
        import json

        _run(["bench-gate", "--results-dir", str(results_dir),
              "--ingest"])
        slow = {"dataset": "synthetic", "n": 500,
                "query_time_s": 0.4, "speedup": 3.0}
        candidate = results_dir / "BENCH_demo.json"
        candidate.write_text(json.dumps(slow))
        code, text = _run(["bench-gate", "--results-dir",
                           str(results_dir)])
        assert code == 1
        assert "regression" in text
        assert "query_time_s" in text
        assert "2.00x" in text

    def test_committed_trajectory_self_gates_clean(self):
        """The repo's own BENCH payloads pass against the committed
        trajectory (the CI bench-gate contract)."""
        code, text = _run(["bench-gate"])
        assert code == 0
        assert "no regressions" in text


class TestObsReportCommand:
    @pytest.fixture
    def events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        code, _ = _run(["trace", "--events-out", str(path),
                        "run", "--n", "300", "--dim", "6", "-k", "5"])
        assert code == 0
        return path

    def test_report_renders_spans_funnel_metrics(self, events):
        code, text = _run(["obs", "report", "--events", str(events)])
        assert code == 0
        assert "span timings" in text
        assert "filtering funnel" in text
        assert "engine.execute" in text

    def test_report_evaluates_slos_ok(self, events):
        code, text = _run(["obs", "report", "--events", str(events),
                           "--slo", "funnel_efficiency=0.1"])
        assert code == 0
        assert "funnel_efficiency >= 0.1" in text
        assert "OK" in text

    def test_report_slo_breach_exits_nonzero(self, events):
        code, text = _run(["obs", "report", "--events", str(events),
                           "--slo", "funnel_efficiency=0.9999"])
        assert code == 1
        assert "BREACH" in text

    def test_report_rejects_unknown_slo(self, events):
        code, text = _run(["obs", "report", "--events", str(events),
                           "--slo", "p9000=1"])
        assert code == 2
        assert "unknown SLO" in text

    def test_report_missing_file_exits_2(self, tmp_path):
        code, text = _run(["obs", "report", "--events",
                           str(tmp_path / "absent.jsonl")])
        assert code == 2


class TestServeBenchSlo:
    def test_slo_holds_exits_zero(self):
        code, text = _run(["serve-bench", "--n", "300", "--dim", "6",
                           "-k", "5", "--requests", "20",
                           "--slo", "p99_latency_s=30"])
        assert code == 0
        assert "SLO objective(s) hold" in text

    def test_slo_breach_exits_nonzero(self):
        code, text = _run(["serve-bench", "--n", "300", "--dim", "6",
                           "-k", "5", "--requests", "20",
                           "--slo", "p99_latency_s=1e-9"])
        assert code == 1
        assert "SLO BREACH" in text
        assert "p99_latency_s" in text

    def test_rejects_malformed_slo(self):
        code, text = _run(["serve-bench", "--n", "200", "--dim", "6",
                           "--slo", "latency"])
        assert code == 2
