"""System benchmark of the host tier: one command prints every metric.

    python3 benchmarks/system/run.py --workload batch-clustered --seed 1

runs one workload in this interpreter, checks its answers against brute
force, and prints each metric by name with its unit.  The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` (the default) reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` reruns the workload traced and
reports the per-layer metrics instead.

Without ``--workload`` every workload runs, each in a fresh
interpreter.  ``--out FILE`` appends each run's full record to FILE
(JSON lines, read by compare.py) and writes the traced runs' Chrome
traces next to it.  ``--smoke`` is the benchmark's self-test.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json (1 under
``--smoke``); compare.py refuses records of different run lengths.

See README.md for the workloads, the metrics and their measured spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Every workload process runs with these: one worker, no sharding, a
#: single BLAS thread (OpenBLAS is multithreaded by default, and the
#: serving generator plus scheduler threads already fill two cores), and
#: the scheduler's pinned fallback instead of a calibrated model.
PINNED_ENV = {"REPRO_WORKERS": "1", "REPRO_POOL": "serial",
              "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNSET_ENV = ("REPRO_SCHED_MODEL",)

CHILD_TIMEOUT_S = 900


def pin_environment():
    """Apply the pinned environment; must run before numpy is imported."""
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def metric_units(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def git_commit():
    """HEAD of the repository holding the benchmark, when it is one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "env": {name: os.environ.get(name)
                    for name in (*PINNED_ENV, *UNSET_ENV)}}


def nearest_rank(values, fraction):
    """The nearest-rank percentile; failed ops sort last as +inf."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def peak_rss_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 1024


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(phase, setup_times, rss_mb):
    return {
        "setup_s": statistics.median(setup_times),
        "p50_ms": nearest_rank(phase.latencies, 0.5) * 1e3,
        "qps": phase.queries / phase.scaled_busy_s,
        "peak_rss_mb": rss_mb,
    }


def funnel_from_registry(registry, before):
    """Counter growth since ``before`` in the JoinStats funnel fields."""
    from workloads import FUNNEL_FIELDS

    names = {"n_queries": "join.queries", "total_pairs": "funnel.candidates"}
    return {field: registry.value(names.get(field, "join." + field))
            - before.get(field, 0) for field in FUNNEL_FIELDS}


def funnel_metrics(funnel):
    pairs = max(funnel["total_pairs"], 1)
    queries = max(funnel["n_queries"], 1)
    return {
        "funnel.level1_survivor_frac": funnel["level1_survivor_pairs"] / pairs,
        "funnel.level2_distance_frac":
            funnel["level2_distance_computations"] / pairs,
        "funnel.examined_per_query": funnel["examined_points"] / queries,
        "funnel.heap_updates_per_query": funnel["heap_updates"] / queries,
        "funnel.center_distances_per_query":
            funnel["center_distance_computations"] / queries,
    }


#: The per-layer metrics each wrapped stage feeds (see layers.CALL_SITES).
STAGE_METRICS = {"join_plan": ("ti.join_plan_us",),
                 "level1": ("ti.level1_us",),
                 "center_rows": ("ti.center_rows_us",),
                 "scan": ("ti.scan_us",), "pack": ("ti.pack_us",),
                 "decide": ("sched.decide_us",),
                 "layout": ("native.layout_ms", "native.layout_packs")}


def layer_metrics(workload, untraced, traced, timers, spans, setup_timers,
                  setup_spans, setup_speed, funnel, nbytes):
    """The per-layer metrics of a traced phase and its set-ups.

    Times are scaled to reference host speed by the phase's (or the
    set-ups') median speed factor; shares and counts are not scaled.
    See README.md.
    """
    from layers import TI_STAGES
    from workloads import SETUPS

    queries = max(traced.queries, 1)

    def per_query_us(seconds):
        return seconds * traced.speed * 1e6 / queries

    none = {"count": 0, "total_s": 0.0, "self_s": 0.0, "spans": []}
    execute = spans.get("engine.execute", none)
    request = spans.get("serve.request", none)
    rebuild = spans.get("index.rebuild", none)
    builds = setup_spans.get("index.build", none)
    rows = sum(span.attributes.get("n_queries", 0)
               for span in execute["spans"])
    if workload.kind == "serve":
        overhead = (nearest_rank(traced.latencies, 0.5)
                    / nearest_rank(untraced.latencies, 0.5)) - 1
    else:
        overhead = ((traced.scaled_busy_s / queries)
                    / (untraced.scaled_busy_s / max(untraced.queries, 1))) - 1
    metrics = {
        # The tail, measured on the untraced half: its spread across
        # seeds was too wide to gate (see README.md).
        "op.p90_ms": nearest_rank(untraced.latencies, 0.9) * 1e3,
        "ti.join_plan_us": per_query_us(timers.self_s["join_plan"]),
        "ti.level1_us": per_query_us(timers.self_s["level1"]),
        "ti.center_rows_us": per_query_us(timers.self_s["center_rows"]),
        "ti.scan_us": per_query_us(timers.self_s["scan"]),
        "ti.pack_us": per_query_us(timers.self_s["pack"]),
        "sched.decide_us": per_query_us(timers.self_s["decide"]),
        "engine.execute_self_us": per_query_us(
            execute["self_s"] - timers.inside_span_s["engine.execute"]),
        "engine.rows_per_call": rows / max(execute["count"], 1),
        "trace.stage_share": sum(timers.self_s[stage] for stage in TI_STAGES)
        / traced.query_s,
        "obs.trace_overhead_frac": overhead,
        "serve.queue_frac": (spans.get("serve.queue", none)["total_s"]
                             / request["total_s"]
                             if request["count"] else 0.0),
        "serve.submit_frac": traced.submit_s / traced.query_s,
        "index.update_frac": spans.get("index.update", none)["total_s"]
        / traced.busy_s,
        "index.rebuild_frac": rebuild["total_s"] / traced.busy_s,
        "index.rebuilds": rebuild["count"],
        "index.build_ms": builds["total_s"] * setup_speed * 1e3
        / max(builds["count"], 1),
        "index.nbytes_mb": nbytes / 2 ** 20,
        "native.layout_ms": setup_timers.self_s["layout"] * setup_speed
        * 1e3 / SETUPS,
        "native.layout_packs": setup_timers.layout_packs / SETUPS,
    }
    metrics.update(funnel_metrics(funnel))
    # A stage whose call sites are gone is reported absent, not as 0, and
    # so are the sums it is part of.
    for stage in timers.absent:
        for name in STAGE_METRICS[stage]:
            metrics.pop(name)
        if stage in TI_STAGES:
            metrics.pop("trace.stage_share", None)
            metrics.pop("engine.execute_self_us", None)
    return metrics


# ----------------------------------------------------------------------
# One workload in this interpreter
# ----------------------------------------------------------------------
def run_workload(name, seed, seconds, trace, smoke=False, trace_path=None):
    """Run one workload; returns its full record (see README.md)."""
    from repro import obs
    from repro.obs import Tracer, write_chrome_trace

    import workloads as wl
    from check import check_answers
    from hostspeed import HostProbe
    from layers import StageTimers, span_summary

    workload = wl.WORKLOADS[name]
    if smoke:
        workload = wl.toy(workload)
    inputs = wl.make_inputs(workload, seed)
    serve = workload.kind == "serve"

    # A traced run also traces its set-ups, which is where the index
    # builds and the layout packs happen.
    setup_tracer = Tracer() if trace else None
    setup_timers = StageTimers() if trace else nullcontext()
    with obs.use_tracer(setup_tracer) if trace else nullcontext(), \
            setup_timers:
        target, setup_times, setup_walls = wl.set_up(workload, inputs)
    info = {"setup_s_each": setup_times, "setup_wall_s_each": setup_walls}
    probe = HostProbe()
    try:
        first = wl.measure(workload, target, inputs, seed, 0,
                           seconds / 2 if trace else seconds, probe)
        phases = [first]
        if trace:
            tracer = Tracer()
            if serve:
                target.stop()
                target = wl.start_server(workload, inputs, tracer=tracer)
            registry = tracer.registry
            before = funnel_from_registry(registry, {})
            traced_from = time.perf_counter()
            with StageTimers() as timers, obs.use_tracer(tracer):
                second = wl.measure(workload, target, inputs, seed,
                                    first.next_op, seconds / 2, probe)
            phases.append(second)
        rss_mb = peak_rss_mb()
    finally:
        if serve:
            target.stop()
    index = (target.store.get(inputs.targets)[0] if serve
             else target.index)
    points = index.targets

    kept = [answers for phase in phases for answers in phase.kept]
    checked, wrong_ops, first_wrong = check_answers(points, kept, wl.K)
    raised = sum(phase.failed for phase in phases)
    attempted = sum(phase.attempted for phase in phases)
    failed = raised + len(wrong_ops)
    first_failure = next((phase.first_failure for phase in phases
                          if phase.first_failure), None) or first_wrong

    if trace:
        spans = span_summary(tracer, since=traced_from)
        setup_spans = span_summary(setup_tracer)
        funnel = (funnel_from_registry(registry, before) if serve
                  else first.funnel)
        setup_speed = statistics.median(
            scaled / wall for scaled, wall in zip(setup_times, setup_walls))
        metrics = layer_metrics(workload, first, second, timers, spans,
                                setup_timers, setup_spans, setup_speed,
                                funnel, index.nbytes)
        info["absent_stages"] = list(timers.absent)
        if serve and "serve.queue" in spans:
            waits = [span.duration_s for span in spans["serve.queue"]["spans"]]
            info["queue_wait_p50_ms"] = nearest_rank(waits, 0.5) * 1e3
            info["queue_wait_p99_ms"] = nearest_rank(waits, 0.99) * 1e3
        if trace_path is not None:
            write_chrome_trace(str(trace_path), tracer)
            info["chrome_trace"] = str(trace_path)
    else:
        metrics = end_to_end_metrics(first, setup_times, rss_mb)
        info["p90_ms"] = nearest_rank(first.latencies, 0.9) * 1e3
    info["host_speed"] = statistics.median(
        factor for phase in phases for factor in phase.factors)
    walls = [wall for phase in phases for wall in phase.walls]
    info["wall_p50_ms"] = nearest_rank(walls, 0.5) * 1e3
    info["wall_p90_ms"] = nearest_rank(walls, 0.9) * 1e3
    if serve:
        info["generator_lag_p99_ms"] = nearest_rank(
            [lag for phase in phases for lag in phase.lags], 0.99) * 1e3
    if first.funnel:
        info["saved_fraction"] = 1 - (
            first.funnel["level2_distance_computations"]
            / first.funnel["total_pairs"])
    if workload.kind == "churn":
        info["rebuilds"] = index.build_count - 1

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "method": workload.method, "smoke": smoke,
        "correct": failed == 0 and checked > 0,
        "attempted": attempted, "failed": failed, "checked_ops": checked,
        "first_failure": first_failure,
        "funnel": first.funnel if not serve else {},
        "metrics": metrics, "info": info, "environment": environment(),
    }


def report(record, units):
    """Print a record's metrics and notes, then the result line."""
    print("== %s  seed=%s  seconds=%s  trace=%s  method=%s" % (
        record["workload"], record["seed"], record["seconds"],
        record["trace"], record["method"]))
    metrics = {}
    for name, unit in units.items():
        if name not in record["metrics"]:
            print("  %-36s absent" % name)
            continue
        value = record["metrics"][name]
        print("  %-36s %14.6g  %s" % (name, value, unit))
        metrics[name] = {"value": value, "unit": unit}
    print("  attempted=%d failed=%d checked_ops=%d" % (
        record["attempted"], record["failed"], record["checked_ops"]))
    if record["first_failure"]:
        print("  first failure: %s" % record["first_failure"])
    for key, value in record["info"].items():
        print("  %s: %s" % (key, value))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


# ----------------------------------------------------------------------
# Several workloads, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_children(names, args):
    """Run each workload in a child process; returns their result lines."""
    results = {}
    status = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    return results, status


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def smoke(spec, args):
    """Exit status 1 when the benchmark itself is broken."""
    import numpy as np

    import workloads as wl
    from check import Answers, check_answers
    from hostspeed import HostProbe

    problems = []
    for trace in (0, 1):
        args.trace = trace
        results, status = run_children(list(wl.WORKLOADS), args)
        if status:
            problems.append("a trace=%d workload run failed" % trace)
        for name, result in results.items():
            if not result["correct"]:
                problems.append("%s trace=%d: answers not correct"
                                % (name, trace))
            for metric in metric_units(spec, trace):
                entry = result["metrics"].get(metric)
                if entry is None or not entry.get("unit"):
                    problems.append("%s trace=%d: metric %s missing or "
                                    "without unit" % (name, trace, metric))

    # Two in-process repeats of a batch workload count the same funnel.
    workload = wl.toy(wl.WORKLOADS["batch-clustered"])
    inputs = wl.make_inputs(workload, args.seed)
    probe = HostProbe()
    repeats = [wl.run_closed(workload, wl.build_knn(workload, inputs),
                             inputs, args.seed, 0, 0.0, probe)
               for _ in range(2)]
    if repeats[0].funnel != repeats[1].funnel:
        problems.append("funnel counts differ between repeats: %s vs %s"
                        % (repeats[0].funnel, repeats[1].funnel))

    # The checker must count a planted wrong answer: one index flipped.
    kept = repeats[0].kept
    planted = kept[0]
    indices = planted.indices.copy()
    replacement = np.setdiff1d(np.arange(len(inputs.targets)), indices[0])
    indices[0, -1] = replacement[0]
    flipped = Answers(op=planted.op, queries=planted.queries,
                      distances=planted.distances, indices=indices)
    clean = check_answers(inputs.targets, kept, wl.K)
    dirty = check_answers(inputs.targets, [flipped] + kept[1:], wl.K)
    if clean[1] or dirty[1] != {planted.op}:
        problems.append("checker missed a planted wrong answer (clean %s, "
                        "planted %s)" % (sorted(clean[1]), sorted(dirty[1])))

    for problem in problems:
        print("smoke: FAIL %s" % problem)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append run records (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at toy size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no repro sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    pin_environment()
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - {w["name"] for w in spec["workloads"]})
    if unknown:
        parser.error("unknown workload(s): %s" % ", ".join(unknown))
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.out and Path(args.out).resolve().parent == (
            ROOT / "benchmarks" / "results"):
        parser.error("--out must not write into benchmarks/results, whose "
                     "BENCH_*.json files feed the scheduler's trajectory")

    if args.smoke and not args.workload:
        return smoke(spec, args)
    if len(names) > 1:
        return run_children(names, args)[1]

    trace_path = None
    if args.out:
        Path(args.out).resolve().parent.mkdir(parents=True, exist_ok=True)
        if args.trace:
            trace_path = Path(args.out).resolve().parent / (
                "trace-%s-seed%d.json" % (names[0], args.seed))
    record = run_workload(names[0], args.seed, args.seconds, args.trace,
                          smoke=args.smoke, trace_path=trace_path)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    report(record, metric_units(spec, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
