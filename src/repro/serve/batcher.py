"""The async micro-batcher: coalesce single lookups into query batches.

Every vectorised layer below — batched fence routing, one filter call per
SST, the compiled kernels — amortises per-query overhead across a batch,
but a serving front-end receives lookups one at a time.  The
:class:`MicroBatcher` closes that gap by dispatching whenever the backend
is idle: everything submitted in the current event-loop turn, or while
the previous batch was in flight, goes out as a **single** backend call
(at most ``max_batch`` requests), and each answer is fanned back to
exactly its own caller's future.  No timer holds a request back — a
request waits only for the batch ahead of it, so coalescing grows with
load and costs nothing when the backend is free.

The backend callable (``answer_batch(los, his) -> answers``) is invoked
in an executor thread because it blocks (it is
:meth:`~repro.serve.service.ShardedLookupService.serve_batch` dispatching
to worker processes), so the event loop keeps accepting and coalescing
new lookups while a batch is in flight.  Answers are fanned back before
the next flush is scheduled, so closed-loop callers woken by one batch
join the next: N such callers produce batches of exactly N.

Instrumentation (optional, via :mod:`repro.obs`): a batch-size histogram
(how well is coalescing working), a queue-wait histogram (the latency
cost of waiting for the flush), and per-reason flush counters (``idle``,
``size``, ``close``).
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Callable, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = ["MicroBatcher", "BATCH_SIZE_BUCKETS"]

#: Power-of-two batch-size histogram buckets (an +inf overflow follows).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


class MicroBatcher:
    """Coalesce awaited point/range lookups into batched backend calls.

    One batcher serves one asyncio event loop.  ``answer_batch`` receives
    parallel ``los``/``his`` lists (whatever scalar type the callers
    passed — ints for integer key spaces, bytes/str for byte ones) and
    must return one truthy/falsy answer per request, in order.

    Flush policy: with no batch in flight, the first pending request
    schedules a flush for the end of the current loop turn (``idle``);
    while a batch is in flight, requests accumulate and go out when it
    returns.  ``max_batch`` pending requests flush at once (``size``),
    the only way a second batch goes in flight.
    """

    def __init__(
        self,
        answer_batch: Callable[[list, list], Sequence],
        max_batch: int = 256,
        metrics: MetricsRegistry | None = None,
        executor=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._answer_batch = answer_batch
        self.max_batch = max_batch
        self.metrics = metrics
        self._executor = executor
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Pending requests: ``(lo, hi, future, enqueued_at)``.
        self._pending: list[tuple] = []
        self._scheduled: asyncio.Handle | None = None
        self._in_flight = 0
        self._tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # The caller side                                                    #
    # ------------------------------------------------------------------ #

    async def lookup(self, lo, hi) -> bool:
        """Await the answer to one inclusive ``[lo, hi]`` range lookup."""
        if self._closed:
            raise RuntimeError("cannot submit to a closed MicroBatcher")
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif loop is not self._loop:
            raise RuntimeError("a MicroBatcher is bound to one event loop")
        future: asyncio.Future = loop.create_future()
        self._pending.append((lo, hi, future, perf_counter()))
        if self.metrics is not None:
            self.metrics.inc("serve.batcher.requests")
        if len(self._pending) >= self.max_batch:
            self._flush("size")
        elif not self._in_flight:
            self._schedule_flush()
        return await future

    async def point(self, key) -> bool:
        """Await the answer to one point lookup (``[key, key]``)."""
        return await self.lookup(key, key)

    @property
    def num_pending(self) -> int:
        """Requests waiting for the next flush (in-flight ones excluded)."""
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Flushing and fan-back                                              #
    # ------------------------------------------------------------------ #

    def _schedule_flush(self) -> None:
        """Flush at the end of this loop turn, once every submitter has run."""
        if self._scheduled is None:
            self._scheduled = self._loop.call_soon(self._flush, "idle")

    def _flush(self, reason: str) -> None:
        """Seal the pending group and dispatch it as one backend call."""
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if not self._pending:
            return
        requests, self._pending = self._pending, []
        if self.metrics is not None:
            self.metrics.observe(
                "serve.batcher.batch_size", len(requests), BATCH_SIZE_BUCKETS
            )
            self.metrics.inc(f"serve.batcher.flush.{reason}")
        self._in_flight += 1
        task = self._loop.create_task(self._dispatch(requests))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _dispatch(self, requests: list[tuple]) -> None:
        """Answer one sealed group; every future gets exactly its answer.

        A backend failure propagates to *every* caller in the group (each
        future carries the exception); a miscounted answer vector is a
        protocol error and does the same.  Futures whose caller went away
        (cancelled) are skipped.  Once the group is answered, requests
        that arrived meanwhile are flushed on the next loop turn — after
        the callers just woken have had their turn to submit again.
        """
        try:
            dispatched = perf_counter()
            if self.metrics is not None:
                for _, _, _, enqueued in requests:
                    self.metrics.observe(
                        "serve.batcher.queue_wait_seconds", dispatched - enqueued
                    )
            los = [request[0] for request in requests]
            his = [request[1] for request in requests]
            try:
                answers = await self._loop.run_in_executor(
                    self._executor, self._answer_batch, los, his
                )
                answers = list(answers)
                if len(answers) != len(requests):
                    raise RuntimeError(
                        f"answer_batch returned {len(answers)} answers "
                        f"for {len(requests)} requests"
                    )
            except Exception as exc:
                for _, _, future, _ in requests:
                    if not future.done():
                        future.set_exception(exc)
                return
            for (_, _, future, _), answer in zip(requests, answers):
                if not future.done():
                    future.set_result(bool(answer))
        finally:
            self._in_flight -= 1
            if self._pending and not self._in_flight:
                self._schedule_flush()

    async def close(self) -> None:
        """Flush the tail, wait for every in-flight batch, reject new work."""
        self._closed = True
        self._flush("close")
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def __aenter__(self) -> "MicroBatcher":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"pending={len(self._pending)}, in_flight={self._in_flight})"
        )
