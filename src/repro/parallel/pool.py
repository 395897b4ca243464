"""Worker pools: process-based fan-out with thread/serial fallbacks.

A :class:`WorkerPool` wraps a ``concurrent.futures`` executor and runs
:class:`~repro.parallel.worker.ShardTask`s, each carrying the Step-1
plan (or its zero-copy handle) the caller built once.  The process
pool uses the ``fork`` start method where available, so workers
inherit the engine registry (including test-registered engines) and
imported modules; platforms without ``fork`` get the default start
method, and if a process pool cannot be created at all the pool
degrades to threads with a logged warning rather than failing the
join.

Pools are shared per ``(kind, workers)`` through :func:`get_pool` —
executors are expensive to spin up, and a long-lived process worker
keeps its mmap of a disk-backed index
(:func:`~repro.index.cache.load_cached`) across requests.
Every shared pool is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import logging
import threading
from concurrent.futures import BrokenExecutor, wait

from .shard import resolve_pool_kind
from .worker import run_shard_task

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]

logger = logging.getLogger("repro.parallel")


class WorkerPool:
    """A fixed-size pool executing shard tasks.

    Parameters
    ----------
    workers:
        Maximum concurrent workers.
    kind:
        ``"process"`` (default), ``"thread"`` or ``"serial"``.  The
        serial kind runs tasks inline — it exists so every execution
        path is the same code with and without fan-out.
    """

    def __init__(self, workers, kind="process"):
        self.workers = max(1, int(workers))
        self.kind = resolve_pool_kind(kind)
        self._executor = None
        self._lock = threading.Lock()

    def _ensure_executor(self):
        with self._lock:
            if self._executor is None:
                self._executor = self._create_executor()
            return self._executor

    def _create_executor(self):
        if self.kind == "process":
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                if "fork" in multiprocessing.get_all_start_methods():
                    context = multiprocessing.get_context("fork")
                else:
                    context = multiprocessing.get_context()
                return ProcessPoolExecutor(max_workers=self.workers,
                                           mp_context=context)
            except (ImportError, OSError, ValueError) as exc:
                logger.warning(
                    "process pool unavailable (%s); falling back to threads",
                    exc)
                self.kind = "thread"
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-worker")

    def run(self, tasks):
        """Run shard tasks and return the flat list of ShardOutcomes.

        Every submitted task settles before this returns — on error
        the first exception is re-raised only after the remaining
        tasks finish, which keeps the executor reusable (a worker that
        raised is a failed job, not a poisoned pool).  A broken
        executor (e.g. a killed worker process) is discarded so the
        next run starts fresh.
        """
        tasks = list(tasks)
        if self.kind == "serial" or self.workers <= 1 or len(tasks) <= 1:
            outcomes = []
            for task in tasks:
                outcomes.extend(run_shard_task(task))
            return outcomes

        executor = self._ensure_executor()
        try:
            futures = [executor.submit(run_shard_task, task)
                       for task in tasks]
        except (BrokenExecutor, RuntimeError):
            self._discard_executor()
            raise
        wait(futures)
        error = None
        outcomes = []
        for future in futures:
            exc = future.exception()
            if exc is not None:
                error = error or exc
            elif error is None:
                outcomes.extend(future.result())
        if error is not None:
            if isinstance(error, BrokenExecutor):
                self._discard_executor()
            raise error
        return outcomes

    def _discard_executor(self):
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait=True):
        """Shut the underlying executor down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __repr__(self):
        return "WorkerPool(workers=%d, kind=%r)" % (self.workers, self.kind)


_pools = {}
_pools_lock = threading.Lock()


def get_pool(workers, kind="process"):
    """The shared pool for ``(kind, workers)``, created on first use."""
    kind = resolve_pool_kind(kind)
    key = (kind, max(1, int(workers)))
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None:
            pool = WorkerPool(key[1], kind=kind)
            _pools[key] = pool
        return pool


def shutdown_pools():
    """Shut down every shared pool (registered at interpreter exit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)
