"""Micro-batching queue: coalesce concurrent requests into batch kernels.

The per-sample encode path costs a full plan traversal per row; the
batch kernels of PRs 1–2 amortize that across rows (~order of magnitude
per-row at paper shapes). A served workload arrives as many small
concurrent requests, so the service needs the translation layer this
module provides: requests that reach the batcher in the same event-loop
turn are stacked into one matrix, run through a single batch call
(``encode_batch_packed`` or the packed classifier predict), and the
rows are scattered back to the awaiting requests.

Correctness contract (test-pinned): results are **bit-identical** to
running every request alone, in any order. That holds because the
underlying kernels are pure per row: Eq. 3 breaks sign(0) ties with a
fixed vector, so a row's result does not depend on which rows share
its batch or what ran before it.

Determinism contract: no request can hang once submitted.

* The first row into an empty window schedules a flush for the next
  event-loop turn (``call_soon``), so rows submitted in the same turn
  share one matrix and a lone request flushes on its own — no timer
  and no follow-up traffic is needed to push it out.
* A full window (``max_batch`` rows) flushes immediately.
* :meth:`MicroBatcher.aclose` flushes whatever is pending *before*
  refusing new work, so shutdown mid-window resolves every waiter
  (the regression a fire-and-forget drain would reintroduce).
* A failing batch call rejects every waiter in the batch with the
  exception instead of leaving futures unresolved.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.errors import ServiceUnavailableError


class BatcherClosed(ServiceUnavailableError):
    """Submission after shutdown began."""


class MicroBatcher:
    """Coalesce concurrent ``(k, N)`` row chunks into one batch call.

    ``run_batch`` is a synchronous callable mapping a stacked ``(B, N)``
    matrix to a length-``B`` sequence (or array) of per-row results,
    pure per row, so batching keeps bit-parity with the per-request
    path. It runs on the event loop thread. One batcher serves one
    (tenant, operation) pair:
    rows from different tenants run under different keys and must never
    share a matrix.
    """

    def __init__(
        self,
        run_batch: Callable[[np.ndarray], Sequence],
        max_batch: int = 64,
        name: str = "",
        on_flush: Callable[[int], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self._run_batch = run_batch
        self.max_batch = int(max_batch)
        self.name = name
        #: Occupancy observer: called with the stacked row count once
        #: per flush (the service wires a histogram child's observe).
        self._on_flush = on_flush
        self._pending: list[tuple[np.ndarray, asyncio.Future]] = []
        self._pending_rows = 0
        self._scheduled: asyncio.Handle | None = None
        self._closed = False

    async def submit(self, rows: np.ndarray) -> Sequence:
        """Queue a ``(k, N)`` chunk; resolves to its ``k`` row results.

        Single-sample requests submit ``(1, N)``; a client-side batch
        stays one chunk so its rows come back together and in order.
        """
        if self._closed:
            raise BatcherClosed(
                f"batcher {self.name or id(self)} is closed; the service "
                f"is shutting down"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((rows, future))
        self._pending_rows += int(rows.shape[0])
        if self._pending_rows >= self.max_batch:
            self._flush()
        elif self._scheduled is None:
            self._scheduled = loop.call_soon(self._flush)
        return await future

    def _flush(self) -> None:
        """Run everything pending as one batch call, scatter results.

        Runs synchronously on the loop (next-turn callback, size
        trigger, or shutdown), so no new submission can interleave
        mid-flush.
        """
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if not self._pending:
            return
        window, self._pending = self._pending, []
        self._pending_rows = 0
        chunks = [rows for rows, _ in window]
        stacked = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        if self._on_flush is not None:
            self._on_flush(int(stacked.shape[0]))
        try:
            results = self._run_batch(stacked)
        except Exception as exc:
            for _, future in window:
                if not future.done():
                    future.set_exception(exc)
            return
        offset = 0
        for rows, future in window:
            k = int(rows.shape[0])
            if not future.done():
                future.set_result(results[offset : offset + k])
            offset += k

    async def aclose(self) -> None:
        """Stop accepting work, then flush the in-flight window.

        Idempotent. After this returns, every previously submitted
        request has a result or an exception — traffic stopping
        mid-window cannot strand a waiter.
        """
        self._closed = True
        self._flush()
