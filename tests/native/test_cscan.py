"""The C kernel's loader: every failure falls back to the numpy kernels.

A missing compiler, a missing BLAS symbol, a ``ddot`` that fails the
probe and a failing build each leave ``ti-flat`` on the numpy kernels (``kernel_tier == "numpy-flat"``) with the answers and
counters of the reference engine, and record why in
``cscan.fallback_reason``.  The build cache is reused across processes
and survives a damaged entry.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro import knn_join
from repro.native import cscan

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
CC = shutil.which("cc")

needs_cc = pytest.mark.skipif(CC is None, reason="no cc on PATH")

COUNTERS = ("level2_distance_computations", "center_distance_computations",
            "examined_points", "candidate_cluster_pairs",
            "level1_survivor_pairs", "heap_updates",
            "predicate_accepted_pairs")


@pytest.fixture(autouse=True)
def fresh_loader(tmp_path, monkeypatch):
    """Each test loads into its own cache; the process's loader state is
    restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cscan.clear()
    yield
    cscan.clear()


def _points():
    rng = np.random.default_rng(7)
    centres = rng.normal(scale=6.0, size=(5, 4))
    return centres[rng.integers(0, 5, size=240)] + rng.normal(size=(240, 4))


def _assert_fell_back(reason_part):
    """The flat engine answers on the numpy kernels, bit-identical to
    the reference, and the loader says why."""
    points = _points()
    result = knn_join(points, points, 6, method="ti-flat", seed=3)
    reference = knn_join(points, points, 6, method="ti-cpu", seed=3)
    assert result.stats.extra["kernel_tier"] == "numpy-flat"
    assert np.array_equal(result.indices, reference.indices)
    assert np.array_equal(result.distances, reference.distances)
    for name in COUNTERS:
        assert getattr(result.stats, name) == \
            getattr(reference.stats, name), name
    assert reason_part in cscan.fallback_reason


def _fake_cc(directory, body):
    """A ``cc`` shell script in ``directory`` (put first on PATH)."""
    directory.mkdir(exist_ok=True)
    path = directory / "cc"
    path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
    path.chmod(0o755)
    return directory


class TestFallbacks:
    def test_no_compiler(self, tmp_path, monkeypatch):
        empty = tmp_path / "bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        _assert_fell_back("no C compiler")

    def test_blas_symbol_absent(self, monkeypatch):
        monkeypatch.setattr(cscan, "DDOT_SYMBOLS", ("no_such_ddot_",))
        _assert_fell_back("no BLAS ddot symbol")

    def test_probe_mismatch(self, monkeypatch):
        try:
            real = cscan.find_ddot()
        except cscan._Fallback:
            pytest.skip("no BLAS ddot to perturb")

        @cscan._DDOT
        def off_by_an_ulp(n, x, incx, y, incy):
            return np.nextafter(real(n, x, incx, y, incy), np.inf)

        monkeypatch.setattr(cscan, "find_ddot", lambda: off_by_an_ulp)
        _assert_fell_back("ddot disagrees with np.dot")

    def test_build_failure(self, tmp_path, monkeypatch):
        bin_dir = _fake_cc(tmp_path / "bin", """\
            if [ "$1" = "--version" ]; then echo "fake cc 1.0"; exit 0; fi
            echo "fake cc: internal error" >&2
            exit 1
            """)
        monkeypatch.setenv("PATH", "%s%s%s" % (bin_dir, os.pathsep,
                                               os.environ["PATH"]))
        _assert_fell_back("fake cc: internal error")

    def test_unexpected_error_never_raises(self, monkeypatch):
        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(cscan, "find_ddot", broken)
        _assert_fell_back("RuntimeError: boom")


@needs_cc
class TestCache:
    def test_loads_when_cc_builds(self):
        assert cscan.load() is not None
        assert cscan.fallback_reason is None
        points = _points()
        result = knn_join(points, points, 6, method="ti-flat", seed=3)
        assert result.stats.extra["kernel_tier"] == "c-flat"

    def test_fresh_interpreter_reuses_the_cache(self, tmp_path):
        log = tmp_path / "cc.log"
        bin_dir = _fake_cc(tmp_path / "bin", """\
            echo "$@" >> "%s"
            exec "%s" "$@"
            """ % (log, CC))
        env = dict(os.environ, PYTHONPATH=SRC,
                   XDG_CACHE_HOME=str(tmp_path / "cache"),
                   PATH="%s%s%s" % (bin_dir, os.pathsep, os.environ["PATH"]))
        script = ("from repro.native import cscan; "
                  "print(cscan.load() is not None, cscan.fallback_reason)")
        compiles = []
        for _ in range(2):
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            assert done.stdout.split() == ["True", "None"], done.stdout
            calls = log.read_text().splitlines()
            compiles.append(sum("-shared" in call for call in calls))
        assert compiles == [1, 1]

    def test_concurrent_first_builds(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC,
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        script = "from repro.native import cscan; print(cscan.load())"
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0 and "CKernel" in out, out
        built = os.listdir(tmp_path / "cache" / "repro")
        assert len(built) == 1 and built[0].endswith(".so"), built

    def test_concurrent_loads_in_one_process(self, tmp_path):
        # More threads than cores race the first load; the lock makes
        # it one build and one kernel object.
        with ThreadPoolExecutor(max_workers=8) as pool:
            kernels = list(pool.map(lambda _: cscan.load(), range(8),
                                    timeout=120))
        assert kernels[0] is not None
        assert all(kernel is kernels[0] for kernel in kernels)
        assert len(os.listdir(tmp_path / "cache" / "repro")) == 1

    def test_truncated_library_is_rebuilt(self, tmp_path):
        path = cscan.build()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(64)
        assert cscan.load() is not None, cscan.fallback_reason
        assert os.path.getsize(path) == size
        points = _points()
        result = knn_join(points, points, 6, method="ti-flat", seed=3)
        reference = knn_join(points, points, 6, method="ti-cpu", seed=3)
        assert result.stats.extra["kernel_tier"] == "c-flat"
        assert np.array_equal(result.indices, reference.indices)
        assert np.array_equal(result.distances, reference.distances)

    @pytest.mark.parametrize("problem", ["not-a-directory", "shared"])
    def test_unusable_cache_falls_back_to_temp(self, tmp_path, monkeypatch,
                                               problem):
        cache = tmp_path / "xdg"
        if problem == "not-a-directory":
            cache.write_text("a file, not a directory")
        else:
            # Other users could plant a library here.
            (cache / "repro").mkdir(parents=True)
            (cache / "repro").chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        assert cscan.build().startswith(cscan.cache_dirs()[1])
