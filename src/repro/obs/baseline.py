"""``repro.obs.baseline`` — benchmark trajectory store and regression gate.

``benchmarks/results/BENCH_*.json`` payloads were write-only snapshots:
each bench run overwrote the last, so a perf claim made in one PR was
unverifiable two PRs later.  This module gives them a memory and teeth:

* :func:`iter_metrics` walks any bench payload and yields its gateable
  numeric metrics as ``(config, metric, value, direction)`` rows, with
  a stable human-readable ``config`` path (list elements are labelled
  by their identity keys — ``runs[dataset=kegg,method=ti-cpu,k=20,``
  ``workers=2]`` — so the same logical configuration maps to the same
  key across runs even when ordering changes).
* The **trajectory file** (``benchmarks/results/TRAJECTORY.jsonl``) is
  an append-only JSONL log of those rows keyed by
  ``(bench, fingerprint, metric, commit)``; committed to the repo, it
  is the recorded-performance history the gate compares against.
* :func:`gate` compares a fresh payload against the **median of the
  stored history** per key with noise-tolerant thresholds: a value is
  a regression only when it is worse than the median by more than
  ``rel_tol`` (relative) *and* by more than ``abs_floor`` (absolute),
  in the metric's bad direction.  ``python -m repro bench-gate`` exits
  nonzero on any regression — CI teeth for every past and future perf
  number.

Only metrics with a known improvement direction participate; shape
descriptors (n, dim, k, counters that define the workload) are carried
in the config path instead of being gated.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["iter_metrics", "load_trajectory", "append_trajectory",
           "ingest_payload", "gate", "GateReport", "current_commit",
           "TRAJECTORY_NAME", "LOWER_BETTER", "HIGHER_BETTER"]

TRAJECTORY_NAME = "TRAJECTORY.jsonl"

#: Metrics where smaller is better (times, distance-computation work).
LOWER_BETTER = frozenset({
    "sim_time_s", "wall_time_s", "prepare_time_s", "query_time_s",
    "build_s", "mmap_load_s", "eager_load_s", "cold_first_answer_s",
    "warm_first_answer_s", "fresh_hash_s", "memo_lookup_s",
    "graph_build_s", "index_build_s", "exact_query_time_s",
    "ti_level2_distances", "graph_build_distances",
    "distances_per_query", "p99_latency_s", "p50_latency_s",
})

#: Metrics where larger is better (speedups, recall, pruning power).
HIGHER_BETTER = frozenset({
    "speedup", "query_speedup", "wall_speedup", "load_speedup",
    "saved_fraction", "exact_saved_fraction", "recall",
    "warp_efficiency", "qps",
})

#: Keys that identify a list element's configuration (used to label
#: list entries stably instead of by positional index).
_IDENTITY_KEYS = ("dataset", "shape", "method", "k", "ef", "workers",
                  "pool", "n", "dim", "eps", "recall_target")

#: Dict keys whose subtrees are workload *outputs* with no direction
#: (funnel counters legitimately change when the workload changes).
_SKIP_SUBTREES = frozenset({"funnel", "decisions", "plan", "stages",
                            "calibration"})


def _direction(metric):
    if metric in LOWER_BETTER:
        return "lower"
    if metric in HIGHER_BETTER:
        return "higher"
    return None


def _label(item):
    parts = ["%s=%s" % (key, item[key]) for key in _IDENTITY_KEYS
             if key in item and not isinstance(item[key], (dict, list))]
    return ",".join(parts)


def iter_metrics(bench, payload, prefix=""):
    """Yield ``(config, metric, value, direction)`` for a bench payload.

    ``config`` is the dotted/bracketed path from the payload root to
    the dict holding the metric (``""`` at the root); ``metric`` is the
    leaf key; only finite numeric values of known direction are
    yielded.
    """
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            if isinstance(value, dict):
                if key in _SKIP_SUBTREES:
                    continue
                sub = "%s.%s" % (prefix, key) if prefix else key
                yield from iter_metrics(bench, value, sub)
            elif isinstance(value, list):
                if key in _SKIP_SUBTREES:
                    continue
                base = "%s.%s" % (prefix, key) if prefix else key
                for i, item in enumerate(value):
                    if not isinstance(item, dict):
                        continue
                    label = _label(item) or str(i)
                    yield from iter_metrics(
                        bench, item, "%s[%s]" % (base, label))
            else:
                direction = _direction(key)
                if direction is None or isinstance(value, bool):
                    continue
                if not isinstance(value, (int, float)):
                    continue
                value = float(value)
                if not math.isfinite(value):
                    continue
                yield prefix, key, value, direction


def fingerprint(bench, config):
    """Stable 12-hex id of one (bench, config path) pair."""
    digest = hashlib.sha1(("%s:%s" % (bench, config)).encode())
    return digest.hexdigest()[:12]


def current_commit():
    """Short git commit id (``REPRO_COMMIT`` env overrides; never raises)."""
    override = os.environ.get("REPRO_COMMIT")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def bench_name(path):
    """``BENCH_parallel_scaling.json`` -> ``parallel_scaling``."""
    stem = Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def ingest_payload(bench, payload, commit=None, recorded=None):
    """Flatten one bench payload into trajectory records."""
    commit = commit if commit is not None else current_commit()
    recorded = recorded if recorded is not None else round(time.time(), 3)
    records = []
    for config, metric, value, direction in iter_metrics(bench, payload):
        records.append({
            "bench": bench,
            "config": config,
            "fingerprint": fingerprint(bench, config),
            "metric": metric,
            "value": value,
            "direction": direction,
            "commit": commit,
            "recorded": recorded,
        })
    return records


def load_trajectory(path):
    """Read a trajectory JSONL file (missing file -> empty list)."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def append_trajectory(path, records):
    """Append records, skipping (bench, fingerprint, metric, commit)
    duplicates already stored — re-ingesting the same run is a no-op.
    Returns the records actually written."""
    path = Path(path)
    existing = {(r["bench"], r["fingerprint"], r["metric"], r["commit"])
                for r in load_trajectory(path)}
    fresh = []
    for record in records:
        key = (record["bench"], record["fingerprint"], record["metric"],
               record["commit"])
        if key in existing:
            continue
        existing.add(key)
        fresh.append(record)
    if fresh:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for record in fresh:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return fresh


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


@dataclass
class GateReport:
    """Outcome of gating candidate payloads against the trajectory."""

    entries: list = field(default_factory=list)

    @property
    def regressions(self):
        return [entry for entry in self.entries
                if entry["status"] == "regression"]

    @property
    def ok(self):
        return not self.regressions

    def counts(self):
        counts = {}
        for entry in self.entries:
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        return counts

    def table(self, title="bench-gate", all_rows=False):
        from ..bench.reporting import format_table

        rows = []
        for entry in sorted(self.entries,
                            key=lambda e: (e["status"] != "regression",
                                           e["bench"], e["config"],
                                           e["metric"])):
            if not all_rows and entry["status"] in ("ok", "new"):
                continue
            baseline = entry["baseline"]
            rows.append([
                entry["bench"],
                (entry["config"][:44] or "-"),
                entry["metric"],
                "-" if baseline is None else "%.6g" % baseline,
                "%.6g" % entry["value"],
                "-" if not entry.get("ratio") else "%.2fx" % entry["ratio"],
                entry["status"],
            ])
        counts = self.counts()
        notes = ["%d metrics gated: %s" % (
            len(self.entries),
            ", ".join("%s=%d" % kv for kv in sorted(counts.items())))]
        if not rows:
            rows = [["-", "-", "-", "-", "-", "-", "all ok"]]
        return format_table(
            title,
            ["bench", "config", "metric", "baseline", "value", "ratio",
             "status"],
            rows, notes=notes)


def gate(candidates, history, rel_tol=0.5, abs_floor=0.05):
    """Gate candidate records against trajectory history.

    Parameters
    ----------
    candidates:
        Records from :func:`ingest_payload` for the fresh run(s).
    history:
        Records from :func:`load_trajectory`.
    rel_tol:
        Allowed relative drift from the history median before a value
        counts as worse (0.5 = up to 50% worse tolerated; a 2x
        ``query_time_s`` slowdown always trips).
    abs_floor:
        Minimum absolute delta for a regression — sub-floor jitter on
        near-zero timings never gates.

    A candidate regresses only when it is worse than the median in the
    metric's bad direction by *both* margins.  Metrics with no stored
    history pass as ``"new"``.
    """
    by_key = {}
    for record in history:
        key = (record["bench"], record["fingerprint"], record["metric"])
        by_key.setdefault(key, []).append(float(record["value"]))

    report = GateReport()
    for record in candidates:
        key = (record["bench"], record["fingerprint"], record["metric"])
        value = float(record["value"])
        entry = {"bench": record["bench"], "config": record["config"],
                 "metric": record["metric"], "value": value,
                 "baseline": None, "ratio": None, "status": "new"}
        past = by_key.get(key)
        if past:
            baseline = _median(past)
            entry["baseline"] = baseline
            if record["direction"] == "lower":
                worse_by = value - baseline
                entry["ratio"] = value / baseline if baseline else None
                breached = (baseline >= 0
                            and worse_by > rel_tol * abs(baseline)
                            and worse_by > abs_floor)
            else:
                worse_by = baseline - value
                entry["ratio"] = value / baseline if baseline else None
                breached = (worse_by > rel_tol * abs(baseline)
                            and worse_by > abs_floor)
            entry["status"] = "regression" if breached else "ok"
        report.entries.append(entry)
    return report
