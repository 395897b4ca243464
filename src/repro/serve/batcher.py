"""Micro-batch scheduler: coalesce small requests into engine tiles.

Single-point KNN requests are the worst case for a GPU engine — each
``engine.execute()`` call pays the whole launch/preparation overhead
for one row of work.  The batcher turns a stream of small concurrent
requests into planner-sized tiles: pending requests that share a batch
key (same prepared index, same ``k``, same engine options) are merged
into one query matrix and executed together, then the result rows are
split back per request.

Scheduling policy (the classic micro-batching triangle):

* **flush on size** — as soon as a key group reaches its
  ``max_batch`` (the planner's rows-per-batch tile, or the configured
  cap, whichever is smaller);
* **flush on deadline** — no request waits in the queue longer than
  ``max_wait_s``, bounding the latency cost of coalescing.  The
  default is 0: an idle scheduler flushes a new request at once, and
  since the scheduler thread runs each flush synchronously, requests
  that arrive during a flush coalesce into the next one — batching
  under load without a timer;
* **admission control** — the queue is bounded; a full queue rejects
  new work with a typed :class:`~repro.errors.Overloaded` instead of
  queueing unbounded backlog.

Requests carry optional per-request deadlines; expired requests are
dropped at flush time (completed with
:class:`~repro.errors.DeadlineExceeded`) before any engine work is
spent on them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import DeadlineExceeded, Overloaded, ServeError

__all__ = ["MicroBatcher", "PendingRequest", "ServeFuture"]


class ServeFuture:
    """Completion handle for one submitted request.

    A deliberately small, dependency-free future: ``result(timeout)``
    blocks until the scheduler completes the request, then returns the
    response or re-raises the recorded exception
    (:class:`~repro.errors.DeadlineExceeded`, or whatever the engine
    raised).
    """

    def __init__(self):
        self._done = threading.Event()
        self._result = None
        self._exception = None

    def done(self):
        return self._done.is_set()

    def set_result(self, result):
        self._result = result
        self._done.set()

    def set_exception(self, exception):
        self._exception = exception
        self._done.set()

    def result(self, timeout=None):
        if not self._done.wait(timeout):
            raise TimeoutError("request not completed within %s s"
                               % (timeout,))
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout=None):
        if not self._done.wait(timeout):
            raise TimeoutError("request not completed within %s s"
                               % (timeout,))
        return self._exception


@dataclass
class PendingRequest:
    """One enqueued request, as the scheduler sees it.

    ``key`` groups coalescible requests; ``payload`` is opaque to the
    batcher (the server stores its per-request state there).
    ``max_batch`` is carried per request because the planner-sized tile
    depends on the request's index and ``k``.
    """

    key: object
    payload: object
    n_rows: int = 1
    max_batch: int = 64
    deadline_s: float = None
    enqueued_at: float = field(default_factory=time.monotonic)
    future: ServeFuture = field(default_factory=ServeFuture)

    def expired(self, now):
        return (self.deadline_s is not None
                and now - self.enqueued_at > self.deadline_s)

    def waited(self, now):
        return now - self.enqueued_at


class MicroBatcher:
    """Bounded request queue plus a single scheduler thread.

    Parameters
    ----------
    flush:
        Callable ``(requests, pressure) -> None`` executing one
        coalesced batch.  ``requests`` share a key; ``pressure`` is the
        queue fill fraction observed at dispatch (the degradation
        signal).  The callable must complete every request's future;
        any exception it raises is recorded on the batch's futures.
    max_wait_s:
        Upper bound on queue residence before a partial batch flushes;
        0 flushes whatever is queued as soon as the scheduler is free.
    max_queue_depth:
        Admission-control bound on pending requests.
    """

    def __init__(self, flush, max_wait_s=0.0, max_queue_depth=256,
                 on_expired=None):
        if max_queue_depth <= 0:
            raise ServeError("max_queue_depth must be positive")
        if max_wait_s < 0:
            raise ServeError("max_wait_s must be non-negative")
        self._flush = flush
        self._on_expired = on_expired
        self.max_wait_s = float(max_wait_s)
        self.max_queue_depth = int(max_queue_depth)
        self._queue = []
        self._cond = threading.Condition()
        self._running = False
        self._thread = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        with self._cond:
            if self._running:
                return
            self._running = True
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-batcher", daemon=True)
            self._thread.start()

    def stop(self):
        """Stop the scheduler, draining every in-flight request first."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            self._cond.notify_all()
        self._thread.join()
        self._thread = None

    @property
    def running(self):
        return self._running

    def queue_depth(self):
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request):
        """Enqueue a :class:`PendingRequest` or reject it.

        Raises
        ------
        Overloaded
            When the queue is at ``max_queue_depth``.
        ServeError
            When the scheduler is not running.
        """
        with self._cond:
            if not self._running:
                raise ServeError("server is not running; call start()")
            if len(self._queue) >= self.max_queue_depth:
                raise Overloaded(len(self._queue), self.max_queue_depth)
            self._queue.append(request)
            self._cond.notify_all()
        return request.future

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _loop(self):
        while True:
            batch = None
            with self._cond:
                while self._running and not self._queue:
                    self._cond.wait()
                if not self._queue:
                    return          # stopped and fully drained
                head = self._queue[0]
                now = time.monotonic()
                flush_at = head.enqueued_at + self.max_wait_s
                if head.deadline_s is not None:
                    flush_at = min(
                        flush_at, head.enqueued_at + head.deadline_s)
                rows = sum(r.n_rows for r in self._queue
                           if r.key == head.key)
                if (self._running and rows < head.max_batch
                        and now < flush_at):
                    self._cond.wait(flush_at - now)
                    continue
                # Overload signal: queue fill when the flush decision is
                # made, before this batch is extracted — a full queue
                # reads 1.0 even when the batch will drain it entirely.
                pressure = len(self._queue) / self.max_queue_depth
                batch = self._take_batch(head.key, head.max_batch)
            self._dispatch(batch, pressure)

    def _take_batch(self, key, max_batch):
        """Remove up to ``max_batch`` rows of ``key`` requests, in order.

        The head request is always taken, even when it alone exceeds
        ``max_batch`` — the dispatcher's own query batching tiles an
        oversized request internally.
        """
        taken, kept, rows = [], [], 0
        for request in self._queue:
            if request.key == key and (
                    not taken or rows + request.n_rows <= max_batch):
                taken.append(request)
                rows += request.n_rows
            else:
                kept.append(request)
        self._queue = kept
        return taken

    def _dispatch(self, batch, pressure):
        now = time.monotonic()
        live = []
        for request in batch:
            if request.expired(now):
                request.future.set_exception(
                    DeadlineExceeded(request.waited(now),
                                     request.deadline_s))
                if self._on_expired is not None:
                    self._on_expired(request)
            else:
                live.append(request)
        if not live:
            return
        try:
            self._flush(live, pressure)
        except Exception as exc:           # pragma: no cover - defensive
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)
        for request in live:
            # A flush that forgot a request must not strand its caller.
            if not request.future.done():
                request.future.set_exception(
                    ServeError("flush completed without answering request"))
