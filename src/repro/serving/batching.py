"""Micro-batching request queue with admission control.

A submit storm hits the prediction server with many near-identical
requests inside one scheduling cycle.  Answering them one by one wastes
the expensive part (an optimizer evaluation) on duplicates; queueing them
without bound wastes the cheap part (the plugin's deadline) on waiting.
The :class:`MicroBatcher` resolves both:

* concurrent ``submit`` calls are coalesced into batches of at most
  ``max_batch`` requests.  A batch that is not full is held open for
  ``max_wait_ms`` after its first request, so a lone request waits that
  long for company that may not come: the traced ``ctld_storm``
  benchmark, whose one caller sends one request at a time, shows a
  ``predict.queue`` p50 of about 2.6 ms at the 2 ms default;
* the queue is bounded (``queue_limit``); a request that does not fit is
  answered with an explicit ``SHED`` :class:`ErrorResponse` *immediately*
  — never enqueued-and-forgotten — so the caller's circuit breaker and
  no-op fallback engage within its deadline.

When the batcher thread is not running (``start`` never called — the
hermetic in-process default), ``submit`` degrades to handling each
request inline as a batch of one: same handler, same answers, no threads.

Metrics: ``serve_requests_total``, ``serve_shed_total``,
``serve_batch_size`` (histogram), ``serve_queue_depth`` (gauge).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, List, Sequence, Union

from repro import telemetry
from repro.serving.protocol import SHED, ErrorResponse, PredictRequest, PredictResponse

__all__ = ["MicroBatcher", "BatchHandler"]

Answer = Union[PredictResponse, ErrorResponse]
BatchHandler = Callable[[Sequence[PredictRequest]], List[Answer]]


class _Pending:
    """One in-flight request: its payload, completion event and slot."""

    __slots__ = ("request", "event", "result")

    def __init__(self, request: PredictRequest) -> None:
        self.request = request
        self.event = threading.Event()
        self.result: "Answer | None" = None


class MicroBatcher:
    def __init__(
        self,
        handler: BatchHandler,
        *,
        max_batch: int = 16,
        max_wait_ms: float = 2.0,
        queue_limit: int = 128,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self._handler = handler
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.queue_limit = queue_limit
        self._queue: "deque[_Pending]" = deque()
        self._cond = threading.Condition()
        self._running = False
        self._thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Start the batching thread (idempotent)."""
        with self._cond:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._loop, name="chronus-batcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread; queued requests are drained, never dropped."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest, *, timeout_s: float = 60.0) -> Answer:
        """Queue one request and block for its answer.

        Admission control runs first: a full queue means an immediate
        ``SHED`` answer, spending none of the caller's deadline.
        """
        telemetry.counter("serve_requests_total").inc()
        with self._cond:
            if not self._running:
                # hermetic inline mode: a batch of one, on the caller's
                # thread — identical handler, no queue, no threads
                pending = None
            elif len(self._queue) >= self.queue_limit:
                telemetry.counter("serve_shed_total").inc()
                return ErrorResponse(
                    code=SHED,
                    message=(
                        f"queue full ({self.queue_limit} waiting); "
                        "submit job unchanged and retry later"
                    ),
                    retryable=True,
                )
            else:
                pending = _Pending(request)
                self._queue.append(pending)
                telemetry.gauge("serve_queue_depth").set(len(self._queue))
                self._cond.notify_all()
        if pending is None:
            return self._dispatch([_Pending(request)])[0]
        if not pending.event.wait(timeout_s):
            return ErrorResponse(
                code="INTERNAL",
                message=f"batcher produced no answer within {timeout_s}s",
                retryable=True,
            )
        assert pending.result is not None
        return pending.result

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and self._running:
                    self._cond.wait(0.1)
                if not self._queue:
                    return  # stopped and drained
                if self._running and len(self._queue) < self.max_batch:
                    # first request seen: hold the batch open briefly so
                    # a storm's siblings can join it
                    close_at = time.monotonic() + self.max_wait_ms / 1000.0
                    while (
                        self._running
                        and len(self._queue) < self.max_batch
                    ):
                        remaining = close_at - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                size = min(self.max_batch, len(self._queue))
                batch = [self._queue.popleft() for _ in range(size)]
                telemetry.gauge("serve_queue_depth").set(len(self._queue))
            self._dispatch(batch)

    def _dispatch(self, batch: "list[_Pending]") -> "list[Answer]":
        """Run one batch through the handler and publish every answer.

        A handler failure becomes an explicit ``INTERNAL`` answer for each
        member — a crashed batch must not strand its waiters.
        """
        telemetry.histogram("serve_batch_size").observe(len(batch))
        requests = [p.request for p in batch]
        try:
            results = list(self._handler(requests))
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch handler returned {len(results)} answers "
                    f"for {len(batch)} requests"
                )
        except Exception as exc:
            telemetry.counter("serve_handler_errors_total").inc()
            error = ErrorResponse(
                code="INTERNAL",
                message=f"{type(exc).__name__}: {exc}",
                retryable=True,
            )
            results = [error] * len(batch)
        for pending, result in zip(batch, results):
            pending.result = result
            pending.event.set()
        return results
