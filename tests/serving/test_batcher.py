"""Micro-batcher unit tests: coalescing, determinism, shutdown flush.

The headline pins:

* batched execution is **bit-identical** to per-request execution in
  arrival order (the acceptance criterion of the serving PR);
* no submitted request can hang — a lone request flushes on the next
  event-loop turn, shutdown flushes the in-flight window (regression
  test for the mid-window hang).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving.batcher import BatcherClosed, MicroBatcher
from repro.serving.registry import load_tenant


def run(coro):
    return asyncio.run(coro)


class RecordingRunner:
    """A run_batch double that records every stacked matrix it saw."""

    def __init__(self, fail: bool = False):
        self.calls: list[np.ndarray] = []
        self.fail = fail

    def __call__(self, rows: np.ndarray):
        self.calls.append(rows.copy())
        if self.fail:
            raise RuntimeError("kernel exploded")
        return rows * 10


class TestCoalescing:
    def test_concurrent_submits_share_one_batch(self):
        """Submits that start in one loop turn share one matrix."""
        runner = RecordingRunner()
        flushes: list[int] = []
        batcher = MicroBatcher(runner, max_batch=64, on_flush=flushes.append)

        async def scenario():
            rows = [np.array([[i]]) for i in range(10)]
            return await asyncio.gather(
                *(batcher.submit(row) for row in rows)
            )

        results = run(scenario())
        assert len(runner.calls) == 1
        assert runner.calls[0].shape == (10, 1)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result, [[i * 10]])
        assert flushes == [10]

    def test_full_window_flushes_without_timer(self):
        """The row that fills the window runs the batch inside submit."""
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=4)

        async def scenario():
            tasks = [
                asyncio.ensure_future(batcher.submit(np.array([[i]])))
                for i in range(5)
            ]
            # One turn runs all five submits in order; no scheduled
            # flush has run yet, so only the size trigger can have fired.
            await asyncio.sleep(0)
            assert [call.shape for call in runner.calls] == [(4, 1)]
            return await asyncio.gather(*tasks)

        results = run(scenario())
        assert len(results) == 5
        assert [call.shape for call in runner.calls] == [(4, 1), (1, 1)]

    def test_chunked_submission_keeps_request_rows_together(self):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=64)

        async def scenario():
            chunk_a = np.array([[1], [2], [3]])
            chunk_b = np.array([[4], [5]])
            return await asyncio.gather(
                batcher.submit(chunk_a), batcher.submit(chunk_b)
            )

        result_a, result_b = run(scenario())
        np.testing.assert_array_equal(result_a, [[10], [20], [30]])
        np.testing.assert_array_equal(result_b, [[40], [50]])
        assert len(runner.calls) == 1
        assert runner.calls[0].shape == (5, 1)


class TestDeterministicFlush:
    def test_lone_request_resolves_within_three_turns(self):
        """A single request with no follow-up traffic flushes on the
        next loop turn: submit, flush, and waking the waiter take one
        turn each, with no timer to wait out."""
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=64)

        async def scenario():
            task = asyncio.ensure_future(batcher.submit(np.array([[7]])))
            for _ in range(3):
                await asyncio.sleep(0)
            assert task.done(), "lone request still waiting after 3 turns"
            return task.result()

        np.testing.assert_array_equal(run(scenario()), [[70]])
        assert len(runner.calls) == 1

    def test_shutdown_flushes_pending_window(self):
        """Regression: traffic stopping mid-window must not strand waiters.

        ``aclose`` runs in the same turn as the submit, while its
        next-turn flush is still pending and the window far from full,
        so only the shutdown flush can have run the batch.
        """
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=64)

        async def scenario():
            task = asyncio.ensure_future(batcher.submit(np.array([[3]])))
            await asyncio.sleep(0)  # let the submit enqueue
            assert not task.done()
            assert runner.calls == []  # the batch is still pending
            await batcher.aclose()
            assert len(runner.calls) == 1  # the close ran the batch
            return await asyncio.wait_for(task, timeout=1.0)

        np.testing.assert_array_equal(run(scenario()), [[30]])
        assert len(runner.calls) == 1  # the cancelled flush stayed idle

    def test_submit_after_close_is_refused(self):
        batcher = MicroBatcher(RecordingRunner())

        async def scenario():
            await batcher.aclose()
            with pytest.raises(BatcherClosed):
                await batcher.submit(np.array([[1]]))

        run(scenario())

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(RecordingRunner())

        async def scenario():
            await batcher.aclose()
            await batcher.aclose()

        run(scenario())


class TestFailurePropagation:
    def test_batch_failure_rejects_all_waiters_then_recovers(self):
        runner = RecordingRunner(fail=True)
        batcher = MicroBatcher(runner, max_batch=64)

        async def scenario():
            results = await asyncio.gather(
                batcher.submit(np.array([[1]])),
                batcher.submit(np.array([[2]])),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            assert len(runner.calls) == 1  # both waiters shared the batch
            # The batcher survives a failing batch: later traffic works.
            runner.fail = False
            ok = await asyncio.wait_for(
                batcher.submit(np.array([[5]])), timeout=5.0
            )
            np.testing.assert_array_equal(ok, [[50]])

        run(scenario())


class TestBitParity:
    """Batched results must be bit-identical to per-request execution."""

    def test_encode_batched_equals_sequential(self, tenant_dir, tiny_dataset):
        rows = tiny_dataset.test_x[:8]

        # Replica A serves the rows through one coalesced window.
        batched_encoder = load_tenant(tenant_dir).encoder
        flushes: list[int] = []
        batcher = MicroBatcher(
            batched_encoder.encode_batch_packed,
            max_batch=8,
            on_flush=flushes.append,
        )

        async def scenario():
            return await asyncio.gather(
                *(batcher.submit(row[None, :]) for row in rows)
            )

        batched = np.concatenate(run(scenario()))
        assert flushes == [8]  # genuinely one kernel call

        # Replica B runs the identical sequence one request at a time.
        sequential_encoder = load_tenant(tenant_dir).encoder
        sequential = np.concatenate(
            [sequential_encoder.encode_batch_packed(row[None, :]) for row in rows]
        )

        np.testing.assert_array_equal(batched, sequential)

    def test_classify_batched_equals_sequential(self, tenant_dir, tiny_dataset):
        rows = tiny_dataset.test_x[:10]

        batched_model = load_tenant(tenant_dir).classifier
        batcher = MicroBatcher(batched_model.predict, max_batch=16)

        async def scenario():
            return await asyncio.gather(
                *(batcher.submit(row[None, :]) for row in rows)
            )

        batched = np.concatenate(run(scenario()))

        sequential_model = load_tenant(tenant_dir).classifier
        sequential = np.concatenate(
            [sequential_model.predict(row[None, :]) for row in rows]
        )

        np.testing.assert_array_equal(batched, sequential)


class TestConfig:
    def test_bad_parameters_rejected(self):
        # The taxonomy type (not a bare ValueError) so the adapter's
        # status mapping covers construction errors too (RL004).
        with pytest.raises(ConfigurationError):
            MicroBatcher(RecordingRunner(), max_batch=0)
