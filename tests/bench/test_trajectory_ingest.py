"""The benchmark session's trajectory ingest.

``benchmarks/conftest.py`` appends, at session end, the records of the
``BENCH_*.json`` payloads the session wrote.  A payload it did not
touch was measured at an earlier commit and must not be re-recorded
under the current one.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CONFTEST = REPO / "benchmarks" / "conftest.py"

ONE_BENCHMARK = '''
import json
from pathlib import Path


def test_one():
    path = Path(__file__).parent / "results" / "BENCH_fresh.json"
    path.write_text(json.dumps({"query_time_s": 0.25}))
'''


def test_running_one_benchmark_appends_only_its_records(tmp_path):
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_one.py").write_text(ONE_BENCHMARK)
    results = tmp_path / "results"
    results.mkdir()
    for name in ("BENCH_fresh.json", "BENCH_stale.json"):
        (results / name).write_text(json.dumps({"query_time_s": 1.0}))
    env = dict(os.environ, REPRO_COMMIT="abc1234",
               PYTHONPATH=os.pathsep.join(
                   [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_one.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    records = [json.loads(line) for line in
               (results / "TRAJECTORY.jsonl").read_text().splitlines()]
    assert records
    assert {record["bench"] for record in records} == {"fresh"}
    assert {record["commit"] for record in records} == {"abc1234"}
    assert [record["value"] for record in records] == [0.25]
