"""Worker pools: dispatch, error propagation, lifecycle."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.parallel import (ShardJob, ShardTask, WorkerPool, get_pool,
                            run_shard_task)


def _tasks_for(points, k, workers, engine="brute"):
    """Row-slice shard tasks over ``points`` dealt to ``workers``."""
    job = ShardJob(engine=engine, mode="slice", queries=points,
                   targets=points, k=k)
    n = len(points)
    rows = -(-n // workers)
    shards = [(i, start, min(start + rows, n))
              for i, start in enumerate(range(0, n, rows))]
    chunks = [[] for _ in range(workers)]
    for shard in shards:
        chunks[shard[0] % workers].append(shard)
    return [ShardTask(job=job, shards=tuple(chunk))
            for chunk in chunks if chunk]


class TestWorkerPool:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_outcomes_cover_all_tiles(self, uniform_points, kind):
        pool = WorkerPool(2, kind=kind)
        try:
            outcomes = pool.run(_tasks_for(uniform_points, 4, 2))
            covered = sorted((o.start, o.stop) for o in outcomes)
            assert covered[0][0] == 0
            assert covered[-1][1] == len(uniform_points)
            assert all(o.result.indices.shape == (o.stop - o.start, 4)
                       for o in outcomes)
        finally:
            pool.shutdown()

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValidationError):
            WorkerPool(2, kind="greenlet")

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_error_propagates_and_pool_stays_usable(self, uniform_points,
                                                    kind):
        pool = WorkerPool(2, kind=kind)
        try:
            bad_job = ShardJob(engine="ti-cpu", mode="slice",
                               queries=uniform_points,
                               targets=uniform_points, k=4,
                               rng=np.random.default_rng(0),
                               options={"mq": 0})
            bad = [ShardTask(job=bad_job, shards=((0, 0, 50),)),
                   ShardTask(job=bad_job, shards=((1, 50, 100),))]
            with pytest.raises(ValueError):
                pool.run(bad)
            # The failed job did not poison the executor: a clean job
            # on the same pool still runs to completion.
            outcomes = pool.run(_tasks_for(uniform_points, 4, 2))
            assert sum(o.stop - o.start for o in outcomes) == \
                len(uniform_points)
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self, uniform_points):
        pool = WorkerPool(2, kind="thread")
        pool.run(_tasks_for(uniform_points, 3, 2))
        pool.shutdown()
        pool.shutdown()
        # A fresh executor is created transparently after shutdown.
        outcomes = pool.run(_tasks_for(uniform_points, 3, 2))
        assert sum(o.stop - o.start for o in outcomes) == len(uniform_points)
        pool.shutdown()


class TestSharedPools:
    def test_get_pool_is_shared_per_key(self):
        a = get_pool(2, "thread")
        b = get_pool(2, "thread")
        c = get_pool(3, "thread")
        assert a is b
        assert a is not c

    def test_run_shard_task_inline(self, uniform_points):
        (task,) = _tasks_for(uniform_points, 4, 1)
        outcomes = run_shard_task(task)
        assert [o.index for o in outcomes] == [s[0] for s in task.shards]
        assert all(o.wall_s >= 0 for o in outcomes)
