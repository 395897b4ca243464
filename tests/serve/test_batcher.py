"""Tests for the micro-batch scheduler (engine-free, stub flushes)."""

import threading
import time

import pytest

from repro.errors import DeadlineExceeded, Overloaded, ServeError
from repro.serve import MicroBatcher, PendingRequest, ServeConfig


class RecordingFlush:
    """Flush stub: records batches, answers every request with its key."""

    def __init__(self, delay_s=0.0):
        self.batches = []
        self.pressures = []
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def __call__(self, requests, pressure):
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.batches.append(list(requests))
            self.pressures.append(pressure)
        for request in requests:
            request.future.set_result(request.payload)


def _request(key="a", payload=None, n_rows=1, max_batch=64,
             deadline_s=None):
    return PendingRequest(key=key, payload=payload, n_rows=n_rows,
                          max_batch=max_batch, deadline_s=deadline_s)


class TestCoalescing:
    def test_burst_coalesces_into_one_batch(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=0.2)
        batcher.start()
        try:
            futures = [batcher.submit(_request(payload=i))
                       for i in range(5)]
            assert [f.result(timeout=5) for f in futures] == list(range(5))
        finally:
            batcher.stop()
        assert len(flush.batches) == 1
        assert [r.payload for r in flush.batches[0]] == list(range(5))

    def test_flush_on_size_beats_max_wait(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=30.0)
        batcher.start()
        try:
            start = time.monotonic()
            futures = [batcher.submit(_request(payload=i, max_batch=2))
                       for i in range(4)]
            for future in futures:
                future.result(timeout=5)
            elapsed = time.monotonic() - start
        finally:
            batcher.stop()
        assert elapsed < 10.0          # did not wait out max_wait_s
        assert sorted(len(b) for b in flush.batches) == [2, 2]

    def test_distinct_keys_not_merged(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=0.1)
        batcher.start()
        try:
            futures = [batcher.submit(_request(key=key, payload=key))
                       for key in ("a", "b", "a", "b")]
            for future in futures:
                future.result(timeout=5)
        finally:
            batcher.stop()
        for batch in flush.batches:
            assert len({r.key for r in batch}) == 1

    def test_row_counts_respect_max_batch(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=0.1)
        batcher.start()
        try:
            futures = [batcher.submit(
                _request(payload=i, n_rows=3, max_batch=6))
                for i in range(3)]
            for future in futures:
                future.result(timeout=5)
        finally:
            batcher.stop()
        assert max(sum(r.n_rows for r in batch)
                   for batch in flush.batches) <= 6

    def test_oversized_head_request_still_flushes(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=0.05)
        batcher.start()
        try:
            future = batcher.submit(
                _request(payload="big", n_rows=100, max_batch=8))
            assert future.result(timeout=5) == "big"
        finally:
            batcher.stop()


class TestFlushWhenFree:
    """The default wait is 0: an idle batcher flushes a request at once,
    and the requests that queue during a flush form the next batch."""

    def test_default_wait_is_zero(self):
        assert MicroBatcher(RecordingFlush()).max_wait_s == 0.0
        assert ServeConfig().max_wait_s == 0.0

    def test_solo_request_on_idle_batcher_flushes_alone(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush)
        batcher.start()
        try:
            future = batcher.submit(_request(payload="solo"))
            assert future.result(timeout=30) == "solo"
        finally:
            batcher.stop()
        assert [[r.payload for r in batch]
                for batch in flush.batches] == [["solo"]]

    def test_requests_queued_during_a_flush_form_the_next_batch(self):
        entered = threading.Event()
        release = threading.Event()
        batches = []

        def blocking(requests, pressure):
            batches.append([r.payload for r in requests])
            if len(batches) == 1:
                entered.set()
                release.wait(30)
            for request in requests:
                request.future.set_result(request.payload)

        batcher = MicroBatcher(blocking)
        batcher.start()
        try:
            futures = [batcher.submit(_request(payload=0))]
            assert entered.wait(30)
            futures += [batcher.submit(_request(payload=i))
                        for i in range(1, 5)]
            release.set()
            assert [f.result(timeout=30) for f in futures] == list(range(5))
        finally:
            release.set()
            batcher.stop()
        assert batches == [[0], [1, 2, 3, 4]]


class TestAdmissionControl:
    def test_overloaded_when_queue_full(self):
        batcher = MicroBatcher(RecordingFlush(), max_wait_s=30.0,
                               max_queue_depth=3)
        batcher.start()
        try:
            for i in range(3):
                batcher.submit(_request(payload=i, max_batch=100))
            with pytest.raises(Overloaded) as info:
                batcher.submit(_request(payload=3, max_batch=100))
            assert info.value.depth == 3
            assert info.value.limit == 3
        finally:
            batcher.stop()

    def test_submit_requires_running(self):
        batcher = MicroBatcher(RecordingFlush())
        with pytest.raises(ServeError):
            batcher.submit(_request())

    def test_invalid_parameters(self):
        with pytest.raises(ServeError):
            MicroBatcher(RecordingFlush(), max_queue_depth=0)
        with pytest.raises(ServeError):
            MicroBatcher(RecordingFlush(), max_wait_s=-1.0)


class TestDeadlines:
    def test_expired_request_dropped_before_flush(self):
        flush = RecordingFlush()
        expired = []
        batcher = MicroBatcher(flush, max_wait_s=30.0,
                               on_expired=expired.append)
        batcher.start()
        try:
            future = batcher.submit(_request(payload=0, deadline_s=0.0))
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5)
        finally:
            batcher.stop()
        assert flush.batches == []     # no engine work for expired work
        assert len(expired) == 1

    def test_live_requests_survive_expired_neighbours(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=0.3)
        batcher.start()
        try:
            doomed = batcher.submit(_request(payload="doomed",
                                             deadline_s=0.0))
            alive = batcher.submit(_request(payload="alive"))
            assert alive.result(timeout=5) == "alive"
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5)
        finally:
            batcher.stop()


class TestDrainAndFailure:
    def test_stop_drains_pending_requests(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_wait_s=30.0)
        batcher.start()
        futures = [batcher.submit(_request(payload=i, max_batch=100))
                   for i in range(4)]
        batcher.stop()                 # must flush, not drop
        assert [f.result(timeout=1) for f in futures] == list(range(4))

    def test_flush_exception_reaches_every_future(self):
        def exploding(requests, pressure):
            raise RuntimeError("engine fell over")

        batcher = MicroBatcher(exploding, max_wait_s=0.05)
        batcher.start()
        try:
            futures = [batcher.submit(_request(payload=i))
                       for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError):
                    future.result(timeout=5)
        finally:
            batcher.stop()

    def test_forgotten_request_gets_an_error(self):
        def forgetful(requests, pressure):
            requests[0].future.set_result("answered")

        batcher = MicroBatcher(forgetful, max_wait_s=0.1)
        batcher.start()
        try:
            first = batcher.submit(_request(payload=0))
            second = batcher.submit(_request(payload=1))
            assert first.result(timeout=5) == "answered"
            with pytest.raises(ServeError):
                second.result(timeout=5)
        finally:
            batcher.stop()

    def test_start_stop_idempotent(self):
        batcher = MicroBatcher(RecordingFlush())
        batcher.start()
        batcher.start()
        batcher.stop()
        batcher.stop()
        assert not batcher.running
