"""Shared configuration for the paper-reproduction benchmarks.

Each benchmark file regenerates one table or figure of the paper's
evaluation (Section V).  Runs are memoised in
:mod:`repro.bench.harness`, so experiments that profile the same join
(e.g. Fig. 9 and Table IV) execute it once.

The emitted tables land in ``benchmarks/results/`` and are the source
of the paper-vs-measured record in EXPERIMENTS.md.  At session end
every ``BENCH_*.json`` payload the session wrote is ingested into the
append-only ``TRAJECTORY.jsonl`` (deduplicated per commit), so each
benchmark run extends the history ``python -m repro bench-gate`` gates
against; payloads the session did not touch keep the commit they were
measured at.
"""

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: ``BENCH_*.json`` name -> modification time at session start.
_STAMPS = {}


def _bench_stamps():
    if not RESULTS_DIR.is_dir():
        return {}
    return {path.name: path.stat().st_mtime_ns
            for path in RESULTS_DIR.glob("BENCH_*.json")}


def pytest_configure(config):
    # The suite is meant to run with --benchmark-only; when invoked as
    # plain pytest the tests still pass (they just also run the body).
    config.addinivalue_line(
        "markers", "paper_experiment(name): reproduces a paper artefact")


def pytest_sessionstart(session):
    _STAMPS.clear()
    _STAMPS.update(_bench_stamps())


def pytest_sessionfinish(session, exitstatus):
    """Feed the payloads this session wrote into the regression-gate
    trajectory."""
    if exitstatus != 0 or not RESULTS_DIR.is_dir():
        return
    from repro.obs.baseline import (TRAJECTORY_NAME, append_trajectory,
                                    bench_name, ingest_payload)

    records = []
    for name, stamp in sorted(_bench_stamps().items()):
        if _STAMPS.get(name) == stamp:
            continue
        path = RESULTS_DIR / name
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        records.extend(ingest_payload(bench_name(path), payload))
    written = append_trajectory(RESULTS_DIR / TRAJECTORY_NAME, records)
    if written:
        print("\ntrajectory: appended %d metric record(s) -> %s"
              % (len(written), RESULTS_DIR / TRAJECTORY_NAME))


@pytest.fixture(scope="session")
def bench_seed():
    return 1
