"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One KNN join on a dataset stand-in (or a synthetic mixture) with a
    chosen engine; prints the result profile.
``compare``
    All three GPU engines on one dataset, side by side with speedups.
``datasets``
    The Table III stand-in registry with scales and device parameters.
``adaptive``
    What the Fig. 8 adaptive scheme decides for a problem shape,
    without running the join.
``plan``
    The full execution plan (engine, adaptive configuration, landmark
    counts, query batching) the dispatcher would use — the CLI view of
    :func:`repro.plan`.
``classify``
    Majority-vote KNN classification on a labelled synthetic mixture
    (train/test split), via :func:`repro.workloads.knn_classify`;
    prints the held-out accuracy.
``novelty``
    Average-distance novelty scoring: scores a held-out sample plus
    injected far-away outliers against the reference set and reports
    the separation (:func:`repro.workloads.novelty_scores`).
``serve-bench``
    Open-loop load generation against an in-process
    :class:`~repro.serve.KNNServer`; prints the serving stats table
    (latency percentiles, batch occupancy, cache hit rate, rejection
    and expiry counts).  ``--index-dir`` preloads a saved index into
    the server's store (memory-mapped) so the first request is warm.
``index build`` / ``index inspect`` / ``index update``
    The prepared-index lifecycle (:mod:`repro.index`): cluster a
    target set once and persist it to a directory; print a saved
    index's manifest; apply incremental add/remove updates in place.
    ``run --index-dir`` executes the join against a saved index
    without rebuilding it.
``graph build`` / ``graph inspect``
    The approximate k-NN graph tier (:mod:`repro.graph`): NN-descent
    over a saved index's live rows, recall-calibrated and persisted
    into ``<index-dir>/graph``; print a saved graph's manifest.  The
    graph engines (``graph-bfs``, ``graph-greedy``) answer ``run``
    from the artifact; ``--recall-target`` picks the calibrated
    search width, and on ``serve-bench`` it mixes recall-targeted
    requests into the load (the server routes them to the graph
    tier and reports the per-route breakdown).
``trace``
    Run any other command under an active tracer and export the
    telemetry: a Perfetto-loadable Chrome trace (``--trace-out``,
    default ``trace.json``), an optional JSONL event log
    (``--events-out``) and the filtering-funnel summary table.
    ``--check-funnel`` turns the funnel invariant (level-2 survivors
    <= level-1 survivors <= candidates) into the exit code.
``explain``
    One KNN join with ``explain=True``: prints the per-query
    :class:`~repro.obs.audit.QueryAudit` (plan knobs, shard fan-out,
    funnel counts, span timings); ``--json FILE`` appends it as JSONL.
``bench-gate``
    The benchmark regression gate (:mod:`repro.obs.baseline`):
    compares fresh ``BENCH_*.json`` payloads against the committed
    ``TRAJECTORY.jsonl`` history with noise-tolerant thresholds and
    exits nonzero on regression; ``--ingest`` appends instead of
    gating (baseline seeding).
``obs report``
    Render a JSONL event log (``trace --events-out``) as tables: span
    timings, the filtering funnel, serving metrics; ``--slo`` also
    evaluates SLOs against the log's final metrics snapshot and turns
    breaches into the exit code.

``serve-bench --slo NAME=BOUND`` (repeatable) attaches live SLO
monitors to the benched server and exits nonzero when any objective is
breached at the end of the run.

The ``--method`` choices come straight from the engine registry
(:func:`repro.engine.engine_names`), so engines registered by plugins
are runnable by name; ``compare --methods`` takes a comma-separated
registry-validated list.  The predicate-join engines (``range-join``,
``self-join-eps``, ``range-join-brute``) additionally need ``--eps``;
``run``/``compare`` fail fast with a clear message when the knob is
missing (the engine's ``required_options`` drive the check).  The
approximate graph engines follow the same pattern: ``run`` needs
``--index-dir`` pointing at an index with a fresh graph artifact (the
message says exactly which ``graph build`` command creates one), and
``compare`` needs ``--recall-target`` (it builds an in-memory graph
and prints a measured-recall NOTE instead of a disagreement WARNING).

Examples
--------
::

    python -m repro run --dataset kegg -k 20
    python -m repro run --n 5000 --dim 32 -k 10 --method ti-gpu
    python -m repro index build --n 5000 --dim 16 --out idx/
    python -m repro index inspect idx/
    python -m repro index update idx/ --add 100 --remove 3,17
    python -m repro run --index-dir idx/ --n 500 --dim 16 -k 10
    python -m repro graph build --index-dir idx/ -k 10
    python -m repro graph inspect idx/
    python -m repro run --index-dir idx/ --method graph-bfs \
        --recall-target 0.9 -k 10 --check
    python -m repro compare --n 800 -k 10 --recall-target 0.9 \
        --methods brute,graph-bfs
    python -m repro serve-bench --index-dir idx/ --requests 200 -k 10
    python -m repro serve-bench --index-dir idx/ --requests 200 -k 10 \
        --recall-target 0.9 --check
    python -m repro run --n 800 --dim 8 --method self-join-eps --eps 1.5
    python -m repro run --n 800 --method rknn -k 10 --check
    python -m repro classify --n 2000 --dim 16 -k 10
    python -m repro novelty --n 2000 --dim 16 -k 10 --outliers 25
    python -m repro compare --dataset skin -k 20
    python -m repro compare --n 800 -k 10 --methods brute,ti-cpu,sweet
    python -m repro compare --n 600 --eps 1.5 \
        --methods range-join-brute,range-join
    python -m repro adaptive --n 100 --dim 10000 -k 20
    python -m repro plan --dataset kegg -k 20 --method sweet
    python -m repro serve-bench --requests 200 --rate 500 -k 10
    python -m repro trace run --n 2000 --dim 16 -k 10 --method sweet
    python -m repro trace --check-funnel compare --n 800 -k 10
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import knn_join
from .bench.reporting import format_table
from .core.adaptive import decide
from .core.ti_knn import prepare_clusters
from .datasets import DATASETS, load, names
from .datasets.synthetic import gaussian_mixture
from .engine import engine_names, get_engine
from .engine.planner import plan as plan_join
from .gpu.device import tesla_k20c
from .serve.server import ServeConfig

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sweet KNN (ICDE 2017) reproduction on a simulated "
                    "Tesla K20c")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one KNN join")
    _data_args(run)
    _method_arg(run)
    _eps_arg(run)
    _recall_arg(run)
    _workers_arg(run)
    run.add_argument("--query-batch-size", type=int, default=None,
                     help="force the dispatcher's query-tile size")
    run.add_argument("--index-dir", default=None, metavar="DIR",
                     help="query against a saved index (mmap-loaded) "
                          "instead of building one")
    run.add_argument("--check", action="store_true",
                     help="also run brute force and verify exactness")

    index = sub.add_parser(
        "index", help="build / inspect / update a saved index")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser(
        "build", help="cluster a target set and save it to a directory")
    _data_args(build)
    build.add_argument("--out", required=True, metavar="DIR",
                       help="index output directory")
    build.add_argument("--mt", type=int, default=None,
                       help="target landmark-count override")
    inspect = index_sub.add_parser(
        "inspect", help="print a saved index's manifest summary")
    inspect.add_argument("dir", metavar="DIR",
                         help="index directory to inspect")
    update = index_sub.add_parser(
        "update", help="apply incremental add/remove updates in place")
    update.add_argument("dir", metavar="DIR",
                        help="index directory to update")
    update.add_argument("--add", type=int, default=0, metavar="N",
                        help="insert N synthetic points drawn near "
                             "existing targets")
    update.add_argument("--remove", default=None, metavar="I,J,...",
                        help="comma-separated row ids to tombstone")
    update.add_argument("--seed", type=int, default=0,
                        help="seed for the synthetic added points")

    graph = sub.add_parser(
        "graph", help="build / inspect the approximate k-NN graph tier")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    gbuild = graph_sub.add_parser(
        "build", help="NN-descent graph over a saved index's live rows")
    gbuild.add_argument("--index-dir", required=True, metavar="DIR",
                        help="saved index to cover (the artifact lands "
                             "in DIR/graph)")
    gbuild.add_argument("--graph-k", type=int, default=16,
                        help="out-degree of every graph node")
    gbuild.add_argument("--sample", type=int, default=256,
                        help="nodes bootstrapped with exact TI "
                             "neighbours")
    gbuild.add_argument("--max-iters", type=int, default=12,
                        help="NN-descent iteration cap")
    gbuild.add_argument("--seed", type=int, default=None,
                        help="build seed (default: the index's seed)")
    gbuild.add_argument("-k", type=int, default=10,
                        help="k the recall curve is calibrated at")
    gbuild.add_argument("--n-probe", type=int, default=64,
                        help="held-out probes behind the recall curve")
    gbuild.add_argument("--no-calibrate", action="store_true",
                        help="skip the recall calibration pass")
    ginspect = graph_sub.add_parser(
        "inspect", help="print a saved graph's manifest summary")
    ginspect.add_argument("dir", metavar="DIR",
                          help="graph directory, or an index directory "
                               "holding one")

    compare = sub.add_parser("compare",
                             help="baseline vs KNN-TI vs Sweet KNN")
    _data_args(compare)
    _eps_arg(compare)
    _recall_arg(compare)
    _workers_arg(compare)
    compare.add_argument(
        "--methods", type=_methods_list, default=["cublas", "ti-gpu",
                                                  "sweet"],
        metavar="M1,M2,...",
        help="comma-separated registered engines; the first is the "
             "speedup baseline (default: cublas,ti-gpu,sweet)")

    sub.add_parser("datasets", help="list the Table III stand-ins")

    serve = sub.add_parser(
        "serve-bench",
        help="open-loop load generation against the KNN server")
    _data_args(serve)
    _method_arg(serve, default=ServeConfig.method)
    _recall_arg(serve)
    serve.add_argument("--recall-every", type=int, default=2,
                       help="with --recall-target, every Nth request "
                            "carries the target (the rest stay exact)")
    _workers_arg(serve)
    serve.add_argument("--requests", type=int, default=200,
                       help="number of single-point requests")
    serve.add_argument("--rate", type=float, default=None,
                       help="arrival rate in requests/s (default: "
                            "maximum offered load)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch coalescing cap in query rows")
    serve.add_argument("--max-wait-ms", type=float,
                       default=ServeConfig.max_wait_s * 1e3,
                       help="longest a request waits for co-batching "
                            "(default: %(default)g, flush when the "
                            "server is free)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission-control queue bound")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline")
    serve.add_argument("--degraded-method", default="brute",
                       help="fallback engine under overload "
                            "('none' disables degradation)")
    serve.add_argument("--index-dir", default=None, metavar="DIR",
                       help="preload a saved index into the server's "
                            "store (memory-mapped warm start)")
    serve.add_argument("--check", action="store_true",
                       help="verify served answers against a direct "
                            "knn_join of the same queries")
    serve.add_argument("--slo", action="append", default=[],
                       metavar="NAME=BOUND",
                       help="attach an SLO monitor (repeatable), e.g. "
                            "--slo p99_latency_s=0.25 "
                            "--slo rejection_rate=0.01; any breach "
                            "makes the exit code nonzero")

    adaptive = sub.add_parser(
        "adaptive", help="show the Fig. 8 decisions for a problem shape")
    _data_args(adaptive)

    plan = sub.add_parser(
        "plan", help="show the execution plan for a problem shape")
    _data_args(plan)
    _method_arg(plan)
    _eps_arg(plan)
    _workers_arg(plan)

    classify = sub.add_parser(
        "classify", help="majority-vote KNN classification workload")
    _data_args(classify)
    _method_arg(classify)
    _workers_arg(classify)
    classify.add_argument("--classes", type=int, default=4,
                          help="label count of the synthetic mixture")
    classify.add_argument("--train-frac", type=float, default=0.7,
                          help="fraction of points used as the "
                               "labelled reference set")

    novelty = sub.add_parser(
        "novelty", help="average-distance novelty-scoring workload")
    _data_args(novelty)
    _method_arg(novelty)
    _workers_arg(novelty)
    novelty.add_argument("--outliers", type=int, default=20,
                         help="far-away outlier points to inject")

    explain = sub.add_parser(
        "explain", help="run one join with explain=True and print the "
                        "query audit")
    _data_args(explain)
    _method_arg(explain)
    _eps_arg(explain)
    _workers_arg(explain)
    explain.add_argument("--json", default=None, metavar="FILE",
                         help="append the audit as a JSONL record")

    gate = sub.add_parser(
        "bench-gate",
        help="gate fresh BENCH_*.json payloads against the stored "
             "benchmark trajectory")
    gate.add_argument("--results-dir", default=None, metavar="DIR",
                      help="directory holding BENCH_*.json and the "
                           "trajectory (default: benchmarks/results)")
    gate.add_argument("--trajectory", default=None, metavar="FILE",
                      help="trajectory JSONL file (default: "
                           "TRAJECTORY.jsonl in the results dir)")
    gate.add_argument("--candidate", action="append", default=[],
                      metavar="FILE",
                      help="candidate payload file(s) to gate "
                           "(default: every BENCH_*.json in the "
                           "results dir)")
    gate.add_argument("--ingest", action="store_true",
                      help="append the candidates to the trajectory "
                           "instead of gating (baseline seeding)")
    gate.add_argument("--rel-tol", type=float, default=0.5,
                      help="relative drift from the history median "
                           "tolerated before a value counts as worse "
                           "(default 0.5 = 50%%)")
    gate.add_argument("--abs-floor", type=float, default=0.05,
                      help="minimum absolute delta for a regression "
                           "(default 0.05)")
    gate.add_argument("--all", action="store_true", dest="show_all",
                      help="print every gated metric, not only "
                           "regressions")

    obs_cmd = sub.add_parser(
        "obs", help="observability reports over exported telemetry")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="render a JSONL event log (trace --events-out) "
                       "as span/funnel/serve tables")
    report.add_argument("--events", required=True, metavar="FILE",
                        help="JSONL event log to read")
    report.add_argument("--slo", action="append", default=[],
                        metavar="NAME=BOUND",
                        help="also evaluate SLOs against the log's "
                             "final metrics snapshot (repeatable); "
                             "breaches set a nonzero exit code")

    trace = sub.add_parser(
        "trace", help="run another command with tracing enabled")
    trace.add_argument("--trace-out", default="trace.json",
                       metavar="FILE",
                       help="Chrome trace-event JSON output "
                            "(Perfetto-loadable; default: trace.json)")
    trace.add_argument("--events-out", default=None, metavar="FILE",
                       help="also write a JSONL span/event/metrics log")
    trace.add_argument("--check-funnel", action="store_true",
                       help="exit non-zero when the filtering-funnel "
                            "invariant is violated")
    trace.add_argument("argv", nargs=argparse.REMAINDER,
                       metavar="command ...",
                       help="the repro command to run under the tracer")

    return parser


def _method_arg(parser, default="sweet"):
    parser.add_argument("--method", default=default,
                        choices=["auto"] + list(engine_names()),
                        help="a registered engine, or 'auto' for the "
                             "host flat tier (ti-flat) at every shape")


def _resolve_auto(args, out):
    """Resolve ``--method auto`` to a concrete engine via the scheduler.

    The decision is made from the same shape the command is about to
    load, so the printed choice is exactly what the run will execute.
    ``args.method`` becomes the engine, for the engine's knobs, while
    the join itself still asks for ``auto`` (:func:`_join_method`), so
    its ``Decision`` record says the engine was not pinned.
    """
    args.auto = getattr(args, "method", None) == "auto"
    if not args.auto:
        return 0
    from . import sched

    if args.dataset:
        spec = DATASETS[args.dataset]
        n, dim = spec.n, spec.dim
    else:
        n, dim = args.n, args.dim
    decision = sched.decide(n, n, args.k, dim, method="auto",
                            workers=getattr(args, "workers", None),
                            pool=getattr(args, "pool", None))
    args.method = decision.engine
    out.write("auto -> %s (%s)\n" % (decision.engine, decision.reason))
    return 0


def _join_method(args):
    """The ``method`` a command's join asks for: ``auto`` when the user
    asked for it (see :func:`_resolve_auto`)."""
    return "auto" if args.auto else args.method


def _eps_arg(parser):
    parser.add_argument("--eps", type=float, default=None,
                        help="range radius for the ε-range join engines "
                             "(required by methods declaring the knob)")


def _range_options(method, eps, out):
    """Resolve a range engine's option dict from the CLI knobs.

    Returns ``(options, error_code)``; prints the clear what-to-pass
    message (driven by the engine's ``required_options``) when a
    predicate-specific knob is missing or extraneous.
    """
    spec = get_engine(method)
    options = {}
    if "eps" in spec.required_options:
        if eps is None:
            out.write(
                "method %r needs --eps (the range predicate's radius); "
                "e.g. --eps 1.5\n" % method)
            return None, 2
        options["eps"] = eps
    elif eps is not None:
        needs = [name for name in engine_names()
                 if "eps" in get_engine(name).required_options]
        out.write("--eps only applies to %s (not %r)\n"
                  % (", ".join(needs), method))
        return None, 2
    return options, 0


def _recall_arg(parser):
    parser.add_argument("--recall-target", type=float, default=None,
                        metavar="R",
                        help="answer via the approximate graph tier at "
                             "the ef calibrated for recall@k >= R "
                             "(needs a graph artifact; see "
                             "`graph build`)")


def _graph_build_hint(index_dir):
    return ("build one with `python -m repro graph build "
            "--index-dir %s`\n" % index_dir)


def _check_recall_target(args, out):
    if args.recall_target is not None \
            and not 0.0 < args.recall_target <= 1.0:
        out.write("--recall-target must be in (0, 1]\n")
        return 2
    return 0


def _graph_options(method, args, out):
    """Resolve a graph engine's option dict from the CLI knobs.

    The approximate engines declare ``graph`` in ``required_options``;
    like :func:`_range_options` this fails fast with exactly what to
    pass when the artifact behind the knob is missing or stale.
    Returns ``(options, index, error_code)``.
    """
    from .index import Index

    if not args.index_dir:
        out.write("method %r answers from a saved index's graph "
                  "artifact; pass --index-dir DIR and " % method
                  + _graph_build_hint("DIR"))
        return None, None, 2
    index = Index.load(args.index_dir)
    graph = index.graph
    if graph is None:
        out.write("index %s has no graph artifact; " % args.index_dir
                  + _graph_build_hint(args.index_dir))
        return None, None, 2
    if not graph.is_fresh_for(index):
        out.write("the graph artifact in %s is stale (built at version "
                  "%d, index now at %d, policy allows lag %d); "
                  % (args.index_dir, graph.built_version, index.version,
                     graph.config.max_version_lag)
                  + _graph_build_hint(args.index_dir))
        return None, None, 2
    ef = (graph.ef_for(args.recall_target, args.k)
          if args.recall_target is not None
          else graph.default_ef(args.k))
    options = {"graph": graph, "ef": ef}
    if index.n_tombstones:
        options["dead_mask"] = index.tombstones
    return options, index, 0


def _workers_arg(parser):
    parser.add_argument("--workers", type=int, default=None,
                        help="shard query tiles across this many worker "
                             "processes (0 = one per core; default: "
                             "REPRO_WORKERS or serial)")
    parser.add_argument("--pool", default=None,
                        choices=["process", "thread", "serial"],
                        help="worker-pool kind (default: REPRO_POOL or "
                             "process)")


def _methods_list(text):
    """argparse type for ``--methods``: comma list, registry-validated."""
    methods = [name.strip() for name in text.split(",") if name.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("at least one method is required")
    unknown = [name for name in methods if name not in engine_names()]
    if unknown:
        raise argparse.ArgumentTypeError(
            "unknown method(s) %s; registered engines: %s"
            % (", ".join(unknown), ", ".join(engine_names())))
    return methods


def _data_args(parser):
    parser.add_argument("--dataset", choices=names(),
                        help="a Table III stand-in")
    parser.add_argument("--n", type=int, default=2000,
                        help="points for a synthetic mixture (no --dataset)")
    parser.add_argument("--dim", type=int, default=16,
                        help="dimensions for a synthetic mixture")
    parser.add_argument("-k", type=int, default=20,
                        help="neighbours per query")
    parser.add_argument("--seed", type=int, default=0,
                        help="landmark-selection seed")


def _load_points(args):
    if args.dataset:
        points, spec = load(args.dataset)
        return points, spec.device(), args.dataset
    rng = np.random.default_rng(args.seed)
    points = gaussian_mixture(args.n, args.dim, rng,
                              n_clusters=max(4, args.n // 100),
                              intrinsic_dim=min(args.dim, 8))
    return points, tesla_k20c(), "synthetic(n=%d,d=%d)" % (args.n, args.dim)


def _profile_row(label, result, baseline=None):
    speedup = None
    if (baseline is not None and baseline.sim_time_s is not None
            and result.sim_time_s):
        speedup = baseline.sim_time_s / result.sim_time_s
    return [label,
            result.sim_time_s * 1e3 if result.sim_time_s is not None
            else None,
            100 * result.stats.saved_fraction,
            100 * result.profile.filter_warp_efficiency()
            if result.profile else None,
            speedup]


def cmd_run(args, out):
    code = _resolve_auto(args, out)
    if code:
        return code
    spec = get_engine(args.method)
    range_kind = spec.caps.result_kind == "range"
    approximate = spec.caps.approximate
    code = _check_recall_target(args, out)
    if code:
        return code
    options, code = _range_options(args.method, args.eps, out)
    if code:
        return code
    if args.recall_target is not None and not approximate:
        needs = [name for name in engine_names()
                 if get_engine(name).caps.approximate]
        out.write("--recall-target only applies to %s (not %r)\n"
                  % (", ".join(needs), args.method))
        return 2
    index = None
    if approximate:
        graph_options, index, code = _graph_options(args.method, args,
                                                    out)
        if code:
            return code
        options.update(graph_options)
        if not args.dataset:
            args.dim = index.dim
    elif args.index_dir:
        if range_kind:
            out.write("the range/rknn methods answer from their own "
                      "prepared plan; --index-dir is not supported for "
                      "%r\n" % args.method)
            return 2
        from .core.api import SweetKNN
        from .index import Index

        index = Index.load(args.index_dir)
        if not args.dataset:
            # Synthetic queries must live in the index's space, not the
            # --dim default.
            args.dim = index.dim
    points, device, name = _load_points(args)
    if approximate:
        result = knn_join(points, np.asarray(index.targets), args.k,
                          method=args.method, seed=args.seed,
                          query_batch_size=args.query_batch_size,
                          workers=args.workers, pool=args.pool,
                          **options)
        name = "%s -> graph in %s" % (name, args.index_dir)
    elif args.index_dir:
        knn = SweetKNN.from_index(
            index, method=args.method,
            device=device if spec.caps.needs_device else None,
            workers=args.workers, pool=args.pool)
        result = knn.query(points, args.k,
                           query_batch_size=args.query_batch_size)
        name = "%s -> index %s" % (name, args.index_dir)
    else:
        result = knn_join(points, points, args.k, method=_join_method(args),
                          seed=args.seed,
                          device=device if spec.caps.needs_device else None,
                          query_batch_size=args.query_batch_size,
                          workers=args.workers, pool=args.pool, **options)
    out.write("%s on %s: k=%d\n" % (result.method, name, args.k))
    if approximate:
        out.write("approximate graph route: ef=%d, recall target %s\n"
                  % (options["ef"],
                     "%.2f" % args.recall_target
                     if args.recall_target is not None else "none"))
    if result.sim_time_s is not None:
        out.write("simulated K20c time: %.3f ms\n"
                  % (result.sim_time_s * 1e3))
    out.write("distance computations: %d (saved %.2f%%)\n" % (
        result.stats.level2_distance_computations,
        100 * result.stats.saved_fraction))
    if range_kind:
        counts = result.counts()
        out.write("accepted pairs: %d (per query min/mean/max "
                  "%d/%.1f/%d)\n"
                  % (result.n_pairs, counts.min(), counts.mean(),
                     counts.max()))
    if result.stats.extra:
        out.write("decisions: %s\n" % (result.stats.extra,))
    if args.check:
        if approximate:
            from .graph.recall import measured_recall

            active = index.active_ids()
            oracle = knn_join(points, index.targets[active], args.k,
                              method="brute")
            recall = measured_recall(result.indices,
                                     active[oracle.indices])
            out.write("measured recall@%d vs brute force: %.4f\n"
                      % (args.k, recall))
            if args.recall_target is not None \
                    and recall < args.recall_target:
                out.write("recall is below the requested target %.2f\n"
                          % args.recall_target)
                return 1
            return 0
        if range_kind:
            from .baselines.brute_joins import (brute_range_join,
                                                brute_reverse_knn)
            if args.method == "self-join-eps":
                oracle = brute_range_join(points, points, args.eps,
                                          skip_self=True)
            elif "eps" in spec.required_options:
                oracle = brute_range_join(points, points, args.eps)
            else:
                oracle = brute_reverse_knn(points, points, args.k)
            fields = ("indptr", "indices", "distances")
        else:
            targets = points
            if index is not None:
                active = index.active_ids()
                targets = index.targets[active]
            oracle = knn_join(points, targets, args.k, method="brute")
            if index is not None:
                oracle.indices = active[oracle.indices]
            fields = ("indices", "distances")
        # Every exact engine returns brute's answer bit for bit, ties
        # included, so the check is equality, not a tolerance.
        exact = all(np.array_equal(getattr(result, name),
                                   getattr(oracle, name))
                    for name in fields)
        out.write("exact vs brute force: %s\n" % exact)
        if not exact:
            return 1
    return 0


def cmd_index(args, out):
    from .index import Index, read_manifest

    if args.index_command == "build":
        points, device, name = _load_points(args)
        index = Index(points, seed=args.seed, mt=args.mt,
                      memory_budget_bytes=device.global_mem_bytes)
        path = index.save(args.out)
        out.write("built index for %s: n=%d dim=%d mt=%d\n"
                  % (name, index.n_points, index.dim, index.mt))
        out.write("fingerprint %s version %d -> %s\n"
                  % (index.fingerprint[:12], index.version, path))
        return 0

    if args.index_command == "inspect":
        manifest = read_manifest(args.dir)
        rows = [[key, manifest.get(key)] for key in (
            "format_version", "fingerprint", "version", "build_count",
            "n", "dim", "mt", "seed", "mt_requested", "n_tombstones",
            "max_cluster_size_at_build")]
        rows.append(["policy", manifest.get("policy")])
        rows.append(["arrays", ", ".join(sorted(manifest["arrays"]))])
        out.write(format_table("index %s" % args.dir,
                               ["field", "value"], rows))
        return 0

    # update
    index = Index.load(args.dir)
    before = (index.version, index.build_count)
    rng = np.random.default_rng(args.seed)
    if args.add:
        base = index.targets[rng.integers(0, index.n_points,
                                          size=args.add)]
        noise = rng.normal(scale=0.05, size=(args.add, index.dim))
        added = index.add(base + noise)
        out.write("added %d points (ids %d..%d)\n"
                  % (len(added), added[0], added[-1]))
    if args.remove:
        ids = [int(part) for part in args.remove.split(",") if part.strip()]
        index.remove(ids)
        out.write("removed %d points\n" % len(ids))
    if (index.version, index.build_count) == before:
        out.write("no updates requested; index unchanged\n")
        return 0
    index.save(args.dir)
    out.write("version %d -> %d (build_count %d, tombstones %d, "
              "active %d)\n"
              % (before[0], index.version, index.build_count,
                 index.n_tombstones, index.n_active))
    return 0


def cmd_graph(args, out):
    from .graph import storage as graph_storage

    if args.graph_command == "build":
        from .graph import GraphConfig
        from .index import Index

        index = Index.load(args.index_dir)
        config = GraphConfig(graph_k=args.graph_k, sample=args.sample,
                             max_iters=args.max_iters)
        graph = index.build_graph(config=config, seed=args.seed,
                                  calibrate=not args.no_calibrate,
                                  k=args.k, n_probe=args.n_probe)
        path = graph.save(os.path.join(args.index_dir, "graph"))
        out.write("built graph for index %s: %d nodes, graph_k=%d, "
                  "dim=%d, %d entry points\n"
                  % (args.index_dir, graph.n_nodes, graph.graph_k,
                     graph.dim, graph.entry_points.size))
        out.write("%d NN-descent iterations (updates %s), %d exact "
                  "bootstrap rows, %d build distances\n"
                  % (graph.n_iterations,
                     ",".join(str(u) for u in graph.iteration_updates),
                     graph.bootstrap_rows,
                     graph.build_distance_computations))
        if graph.calibration is not None:
            out.write("recall@%d curve: %s\n"
                      % (graph.calibration.k,
                         "  ".join("ef=%d:%.3f" % entry for entry
                                   in graph.calibration.entries)))
        out.write("fingerprint %s version %d -> %s\n"
                  % (graph.fingerprint[:12], graph.built_version, path))
        return 0

    # inspect: accept the graph directory itself or the index
    # directory holding one.
    path = args.dir
    if not graph_storage.is_graph_dir(path):
        nested = os.path.join(path, "graph")
        if not graph_storage.is_graph_dir(nested):
            out.write("%s holds no graph artifact; " % path
                      + _graph_build_hint(path))
            return 2
        path = nested
    manifest = graph_storage.read_graph_manifest(path)
    rows = [[key, manifest.get(key)] for key in (
        "format_version", "fingerprint", "seed", "built_version", "dim",
        "n_nodes", "graph_k", "n_targets_at_build", "bootstrap_rows",
        "build_distance_computations")]
    updates = manifest.get("iteration_updates", [])
    rows.append(["iterations", len(updates)])
    rows.append(["iteration_updates",
                 ",".join(str(u) for u in updates)])
    rows.append(["config", manifest.get("config")])
    calibration = manifest.get("calibration")
    rows.append(["recall curve",
                 "  ".join("ef=%d:%.3f" % (ef, recall)
                           for ef, recall in calibration["entries"])
                 if calibration else None])
    rows.append(["arrays", ", ".join(sorted(manifest["arrays"]))])
    out.write(format_table("graph %s" % path, ["field", "value"], rows))
    return 0


#: Human-readable row labels for the classic three-way comparison.
_COMPARE_LABELS = {"cublas": "cublas baseline", "ti-gpu": "basic KNN-TI",
                   "sweet": "Sweet KNN"}


def cmd_compare(args, out):
    code = _check_recall_target(args, out)
    if code:
        return code
    points, device, name = _load_points(args)
    graph_index = None
    baseline = None
    rows = []
    for method in args.methods:
        spec = get_engine(method)
        options, code = _range_options(method, args.eps, out) \
            if spec.required_options else ({}, 0)
        if code:
            return code
        if spec.caps.approximate:
            if args.recall_target is None:
                out.write("method %r needs --recall-target (the "
                          "approximate tier's accuracy knob); e.g. "
                          "--recall-target 0.9\n" % method)
                return 2
            if graph_index is None:
                from .index import Index

                graph_index = Index(
                    points, seed=args.seed,
                    memory_budget_bytes=device.global_mem_bytes)
                graph_index.build_graph(k=args.k)
                curve = graph_index.graph.calibration
                out.write("in-memory graph: %d nodes, graph_k=%d; "
                          "recall@%d curve %s\n"
                          % (graph_index.graph.n_nodes,
                             graph_index.graph.graph_k, curve.k,
                             "  ".join("ef=%d:%.3f" % entry
                                       for entry in curve.entries)))
            options["graph"] = graph_index.graph
            options["ef"] = graph_index.graph.ef_for(args.recall_target,
                                                     args.k)
        result = knn_join(points, points, args.k, method=method,
                          seed=args.seed,
                          device=device if spec.caps.needs_device else None,
                          workers=args.workers, pool=args.pool, **options)
        label = _COMPARE_LABELS.get(method, method)
        if baseline is None:
            baseline = result
            label = _COMPARE_LABELS.get(method, "%s baseline" % method)
        elif type(result) is not type(baseline):
            out.write("NOTE: %s returns %s rows; not comparable with the "
                      "baseline's %s\n"
                      % (label, type(result).__name__,
                         type(baseline).__name__))
        elif spec.caps.approximate:
            from .graph.recall import measured_recall

            out.write("NOTE: %s is approximate (ef=%d): measured "
                      "recall@%d vs the baseline = %.3f\n"
                      % (label, options["ef"], args.k,
                         measured_recall(result.indices,
                                         baseline.indices)))
        elif not result.matches(baseline):
            out.write("WARNING: %s disagrees with the baseline\n" % label)
        rows.append(_profile_row(label, result, baseline))
    out.write(format_table(
        "%s: k=%d (simulated Tesla K20c)" % (name, args.k),
        ["engine", "sim ms", "saved %", "level-2 warp eff %",
         "speedup(x)"], rows))
    return 0


def cmd_datasets(args, out):
    rows = []
    for dataset in names():
        spec = DATASETS[dataset]
        device = spec.device()
        rows.append([dataset, "%dx%d" % (spec.paper_n, spec.paper_dim),
                     "%dx%d" % (spec.n, spec.dim),
                     "1/%.0f" % spec.scale,
                     "%.1f MB" % (device.global_mem_bytes / 1e6)])
    out.write(format_table(
        "Table III dataset stand-ins",
        ["name", "paper n x d", "stand-in n x d", "scale", "device mem"],
        rows))
    return 0


def cmd_adaptive(args, out):
    points, device, name = _load_points(args)
    rng = np.random.default_rng(args.seed)
    plan = prepare_clusters(points, points, rng,
                            memory_budget_bytes=device.global_mem_bytes)
    ct = plan.target_clusters
    config = decide(len(points), len(points), args.k, points.shape[1],
                    ct.n_points / max(1, ct.n_clusters), device)
    out.write("adaptive decisions for %s, k=%d:\n" % (name, args.k))
    out.write("  k/d = %.3f -> %s level-2 filtering\n"
              % (args.k / points.shape[1], config.filter_strength))
    out.write("  kNearests: %s\n" % config.placement.describe())
    out.write("  threads per query: %d (inner %d x outer %d)\n" % (
        config.parallel.threads_per_query, config.parallel.inner_factor,
        config.parallel.outer_factor))
    out.write("  landmarks: %d query / %d target clusters\n"
              % (plan.mq, plan.mt))
    return 0


def cmd_plan(args, out):
    code = _resolve_auto(args, out)
    if code:
        return code
    options, code = _range_options(args.method, args.eps, out)
    if code:
        return code
    points, device, name = _load_points(args)
    spec = get_engine(args.method)
    exec_plan = plan_join(points, points, args.k, method=_join_method(args),
                          device=device if spec.caps.needs_device else None,
                          workers=args.workers, pool=args.pool)
    out.write("execution plan for %s (method=%s):\n" % (name, args.method))
    if options:
        out.write("  %-16s %s\n" % ("knobs", options))
    for key, value in exec_plan.describe().items():
        out.write("  %-16s %s\n" % (key, value))
    return 0


def _labelled_mixture(n, dim, rng, n_classes):
    """A labelled Gaussian mixture: one blob per class."""
    centers = rng.normal(scale=4.0, size=(n_classes, dim))
    labels = rng.integers(0, n_classes, size=n)
    points = centers[labels] + rng.normal(size=(n, dim))
    return points, labels


def cmd_classify(args, out):
    from .workloads import knn_classify

    spec = get_engine(args.method)
    rng = np.random.default_rng(args.seed)
    points, labels = _labelled_mixture(args.n, args.dim, rng, args.classes)
    if not 0.0 < args.train_frac < 1.0:
        out.write("--train-frac must be in (0, 1)\n")
        return 2
    split = int(args.n * args.train_frac)
    if split < args.k or split >= args.n:
        out.write("train split of %d rows cannot serve k=%d "
                  "(raise --n or lower --train-frac/-k)\n"
                  % (split, args.k))
        return 2
    prediction = knn_classify(
        points[split:], points[:split], labels[:split], args.k,
        method=args.method, seed=args.seed,
        device=tesla_k20c() if spec.caps.needs_device else None,
        workers=args.workers, pool=args.pool)
    accuracy = prediction.accuracy(labels[split:])
    stats = prediction.result.stats
    out.write("knn-classify via %s: %d train / %d test, %d classes, "
              "k=%d\n" % (prediction.result.method, split, args.n - split,
                          args.classes, args.k))
    out.write("held-out accuracy: %.4f\n" % accuracy)
    out.write("distance computations: %d (saved %.2f%%)\n"
              % (stats.level2_distance_computations,
                 100 * stats.saved_fraction))
    return 0


def cmd_novelty(args, out):
    from .workloads import novelty_scores

    spec = get_engine(args.method)
    rng = np.random.default_rng(args.seed)
    points = gaussian_mixture(args.n, args.dim, rng,
                              n_clusters=max(4, args.n // 100),
                              intrinsic_dim=min(args.dim, 8))
    if args.outliers <= 0:
        out.write("--outliers must be positive\n")
        return 2
    # Inliers: a held-out resample of the mixture; outliers: points far
    # outside the blobs' span.
    sample = points[rng.integers(0, args.n, size=args.outliers)] \
        + rng.normal(scale=0.05, size=(args.outliers, args.dim))
    span = float(np.abs(points).max())
    outliers = rng.normal(scale=span * 3.0,
                          size=(args.outliers, args.dim)) \
        + np.sign(rng.normal(size=(args.outliers, args.dim))) * span * 3.0
    queries = np.vstack([sample, outliers])
    scored = novelty_scores(queries, points, args.k, method=args.method,
                            seed=args.seed,
                            device=(tesla_k20c()
                                    if spec.caps.needs_device else None),
                            workers=args.workers, pool=args.pool)
    inlier = scored.scores[:args.outliers]
    outlier = scored.scores[args.outliers:]
    separated = int(np.sum(outlier > inlier.max()))
    out.write("novelty via %s: %d inliers / %d outliers, k=%d\n"
              % (scored.result.method, args.outliers, args.outliers,
                 args.k))
    out.write("mean score: inliers %.4f, outliers %.4f\n"
              % (float(inlier.mean()), float(outlier.mean())))
    out.write("outliers above every inlier score: %d/%d\n"
              % (separated, args.outliers))
    return 0 if separated == args.outliers else 1


def cmd_serve_bench(args, out):
    from .errors import ValidationError
    from .obs import current_tracer
    from .obs.watch import SloSpec
    from .serve import KNNServer, run_open_loop

    code = _check_recall_target(args, out)
    if code:
        return code
    try:
        slos = tuple(SloSpec.parse(text) for text in args.slo)
    except ValidationError as exc:
        out.write("%s\n" % exc)
        return 2
    if args.recall_target is not None:
        from .graph.storage import is_graph_dir

        if not args.index_dir:
            out.write("recall-targeted serving answers from a saved "
                      "index's graph artifact; pass --index-dir DIR "
                      "and " + _graph_build_hint("DIR"))
            return 2
        if not is_graph_dir(os.path.join(args.index_dir, "graph")):
            out.write("index %s has no graph artifact; " % args.index_dir
                      + _graph_build_hint(args.index_dir))
            return 2
    points, device, name = _load_points(args)
    rng = np.random.default_rng(args.seed + 1)
    queries = points[rng.integers(0, len(points), size=args.requests)] \
        + rng.normal(scale=0.05, size=(args.requests, points.shape[1]))

    degraded = (None if args.degraded_method in (None, "none", "")
                else args.degraded_method)
    server = KNNServer(
        method=args.method, degraded_method=degraded,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue_depth=args.queue_depth,
        default_deadline_s=(args.deadline_ms / 1e3
                            if args.deadline_ms is not None else None),
        seed=args.seed, device=device, workers=args.workers,
        pool=args.pool, index_dir=args.index_dir,
        tracer=current_tracer(), slos=slos)
    deadline_note = ("%.0f ms" % args.deadline_ms
                     if args.deadline_ms is not None else "none")
    out.write("serve-bench: %d single-point requests on %s, k=%d, "
              "method=%s\n" % (args.requests, name, args.k, args.method))
    out.write("open loop at %s; batch<=%d, wait<=%.1f ms, queue<=%d, "
              "deadline %s\n"
              % ("%.0f req/s" % args.rate if args.rate else "max rate",
                 args.max_batch, args.max_wait_ms, args.queue_depth,
                 deadline_note))
    if args.recall_target is not None:
        out.write("recall mix: every %d. request targets recall@%d >= "
                  "%.2f (graph route)\n"
                  % (max(1, args.recall_every), args.k,
                     args.recall_target))
    with server:
        report = run_open_loop(server, points, queries, args.k,
                               rate=args.rate,
                               recall_target=args.recall_target,
                               recall_every=args.recall_every)
    out.write("%d served / %d rejected / %d expired / %d errors "
              "in %.2f s (%.0f served/s)\n"
              % (report.served, report.rejected, report.expired,
                 len(report.errors), report.wall_s, report.served_rate))
    out.write(report.stats.table(
        "serving stats: %s, %d requests" % (name, args.requests)))
    slo_code = 0
    if slos:
        breaches = [status for status in report.stats.slo if not status.ok]
        for status in breaches:
            out.write("SLO BREACH: %s (measured %.6g)\n"
                      % (status.spec.describe(), status.value))
        if breaches:
            slo_code = 1
        else:
            out.write("all %d SLO objective(s) hold\n" % len(slos))
    if args.check and report.responses:
        direct = knn_join(queries, points, args.k, method=args.method,
                          seed=args.seed,
                          device=device if get_engine(
                              args.method).caps.needs_device else None)
        # Responses served by the approximate graph route are checked
        # for measured recall (the EngineCaps.approximate contract);
        # exact-routed ones must still equal the direct join.
        exact_pairs = [(i, response) for i, response in report.responses
                       if getattr(response, "route", "exact") != "approx"]
        approx_pairs = [(i, response) for i, response in report.responses
                        if getattr(response, "route", "exact") == "approx"]
        exact = all(
            np.array_equal(np.sort(response.indices),
                           np.sort(direct.indices[i]))
            and np.allclose(response.distances, direct.distances[i],
                            rtol=0, atol=1e-9)
            for i, response in exact_pairs)
        out.write("exact-routed answers equal direct knn_join: %s "
                  "(%d requests)\n" % (exact, len(exact_pairs)))
        code = 0 if exact else 1
        if approx_pairs:
            from .graph.recall import measured_recall

            recall = measured_recall(
                np.asarray([response.indices
                            for _, response in approx_pairs]),
                direct.indices[[i for i, _ in approx_pairs]])
            out.write("approx-routed measured recall@%d: %.4f "
                      "(target %.2f, %d requests)\n"
                      % (args.k, recall, args.recall_target,
                         len(approx_pairs)))
            if recall < args.recall_target:
                code = 1
        return max(code, slo_code)
    return slo_code


def cmd_explain(args, out):
    code = _resolve_auto(args, out)
    if code:
        return code
    spec = get_engine(args.method)
    options, code = _range_options(args.method, args.eps, out)
    if code:
        return code
    points, device, name = _load_points(args)
    result = knn_join(points, points, args.k, method=_join_method(args),
                      seed=args.seed,
                      device=device if spec.caps.needs_device else None,
                      workers=args.workers, pool=args.pool,
                      explain=True, **options)
    audit = result.audit
    out.write(audit.table("query audit: %s on %s" % (result.method, name)))
    if args.json:
        from .obs import write_jsonl

        write_jsonl(args.json, [audit.to_dict()])
        out.write("audit record -> %s\n" % args.json)
    return 0


def cmd_bench_gate(args, out):
    import json as json_module

    from .obs import baseline as baseline_module

    results_dir = args.results_dir or os.path.join("benchmarks", "results")
    trajectory = args.trajectory or os.path.join(
        results_dir, baseline_module.TRAJECTORY_NAME)
    candidates = list(args.candidate)
    if not candidates:
        if os.path.isdir(results_dir):
            candidates = sorted(
                os.path.join(results_dir, fname)
                for fname in os.listdir(results_dir)
                if fname.startswith("BENCH_") and fname.endswith(".json"))
        if not candidates:
            out.write("no BENCH_*.json payloads under %s; run a benchmark "
                      "or pass --candidate FILE\n" % results_dir)
            return 2
    records = []
    for path in candidates:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json_module.load(handle)
        records.extend(baseline_module.ingest_payload(
            baseline_module.bench_name(path), payload))

    if args.ingest:
        written = baseline_module.append_trajectory(trajectory, records)
        out.write("ingested %d/%d metric records from %d payload(s) "
                  "-> %s\n" % (len(written), len(records),
                               len(candidates), trajectory))
        return 0

    history = baseline_module.load_trajectory(trajectory)
    if not history:
        out.write("trajectory %s is empty; seed it first with "
                  "`python -m repro bench-gate --ingest`\n" % trajectory)
        return 2
    report = baseline_module.gate(records, history,
                                  rel_tol=args.rel_tol,
                                  abs_floor=args.abs_floor)
    out.write(report.table("bench-gate vs %s" % trajectory,
                           all_rows=args.show_all))
    if report.regressions:
        out.write("REGRESSION: %d metric(s) worse than the stored "
                  "baseline\n" % len(report.regressions))
        return 1
    out.write("gate passed: no regressions against %d stored record(s)\n"
              % len(history))
    return 0


def cmd_obs(args, out):
    # Only `obs report` exists today; the subparser enforces that.
    import json as json_module

    from .obs.funnel import FUNNEL_STAGES, funnel_table
    from .obs.watch import SloSpec, SnapshotReader, evaluate_slos, slo_table

    try:
        specs = tuple(SloSpec.parse(text) for text in args.slo)
    except Exception as exc:
        out.write("%s\n" % exc)
        return 2
    if not os.path.exists(args.events):
        out.write("no event log at %s (produce one with `python -m repro "
                  "trace --events-out %s ...`)\n"
                  % (args.events, args.events))
        return 2
    spans, events, metrics = {}, 0, {}
    with open(args.events, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json_module.loads(line)
            kind = record.get("type")
            if kind == "span":
                entry = spans.setdefault(record.get("name"),
                                         {"count": 0, "total_s": 0.0})
                entry["count"] += 1
                entry["total_s"] += record.get("duration_s") or 0.0
            elif kind in ("instant", "event", "query_audit"):
                events += 1
            elif kind == "metrics":
                # Last snapshot wins: it holds the run's final totals.
                metrics = record.get("metrics", {})
    rows = [[name, entry["count"], round(entry["total_s"] * 1e3, 3)]
            for name, entry in sorted(spans.items(),
                                      key=lambda kv: -kv[1]["total_s"])]
    if rows:
        out.write(format_table("span timings: %s" % args.events,
                               ["span", "count", "total ms"], rows))
    counts = {stage: int(metrics.get("funnel." + stage, 0))
              for stage in FUNNEL_STAGES}
    if counts.get("candidates"):
        out.write(funnel_table(counts))
    serve_rows = [[name, value if not isinstance(value, dict)
                   else "n=%s p99=%.6g" % (value.get("count"),
                                           value.get("p99", float("nan")))]
                  for name, value in sorted(metrics.items())
                  if name.startswith(("serve.", "slo."))]
    if serve_rows:
        out.write(format_table("serving metrics",
                               ["metric", "value"], serve_rows))
    out.write("%d span record(s), %d event(s), %d metric(s)\n"
              % (sum(entry["count"] for entry in spans.values()),
                 events, len(metrics)))
    if specs:
        statuses = evaluate_slos(specs, SnapshotReader(metrics))
        out.write(slo_table(statuses))
        breaches = [status for status in statuses if not status.ok]
        for status in breaches:
            out.write("SLO BREACH: %s (measured %.6g)\n"
                      % (status.spec.describe(), status.value))
        if breaches:
            return 1
    return 0


def cmd_trace(args, out):
    from .obs.export import tracer_records, write_chrome_trace, write_jsonl
    from .obs.funnel import check_funnel, funnel_counts, funnel_table
    from .obs.tracer import Tracer, use_tracer

    argv = list(args.argv)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv or argv[0] == "trace":
        out.write("trace needs a command to run, e.g.: "
                  "repro trace run --n 2000 -k 10\n")
        return 2

    tracer = Tracer()
    with use_tracer(tracer):
        code = main(argv, out)

    write_chrome_trace(args.trace_out, tracer)
    if args.events_out:
        write_jsonl(args.events_out, tracer_records(tracer))
    counts = funnel_counts(tracer.registry)
    if counts["candidates"]:
        out.write(funnel_table(counts))
    out.write("%d spans -> %s%s\n"
              % (len(tracer.finished_spans()), args.trace_out,
                 (" (events: %s)" % args.events_out
                  if args.events_out else "")))
    if args.check_funnel:
        violations = check_funnel(counts)
        for violation in violations:
            out.write("FUNNEL VIOLATION: %s\n" % violation)
        if violations:
            return 1
        out.write("funnel invariant holds\n")
    return code


_COMMANDS = {"run": cmd_run, "compare": cmd_compare,
             "datasets": cmd_datasets, "adaptive": cmd_adaptive,
             "plan": cmd_plan, "serve-bench": cmd_serve_bench,
             "classify": cmd_classify, "novelty": cmd_novelty,
             "index": cmd_index, "graph": cmd_graph, "trace": cmd_trace,
             "explain": cmd_explain, "bench-gate": cmd_bench_gate,
             "obs": cmd_obs}


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
