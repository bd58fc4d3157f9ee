"""Micro-batcher unit tests: coalescing, determinism, shutdown flush.

The headline pins:

* batched execution is **bit-identical** to per-request execution in
  arrival order (the acceptance criterion of the serving PR);
* no submitted request can hang — lone requests flush on the timer,
  shutdown flushes the in-flight window (regression test for the
  mid-window hang).
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
        runner = RecordingRunner()
        flushes: list[int] = []
        batcher = MicroBatcher(
            runner, max_batch=64, max_wait_s=0.01, on_flush=flushes.append
        )

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
        runner = RecordingRunner()
        # A timer that would never fire inside the test: the only way
        # these requests resolve is the size trigger.
        batcher = MicroBatcher(runner, max_batch=4, max_wait_s=60.0)

        async def scenario():
            rows = [np.array([[i]]) for i in range(4)]
            return await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(row) for row in rows)),
                timeout=5.0,
            )

        results = run(scenario())
        assert len(results) == 4
        assert len(runner.calls) == 1

    def test_chunked_submission_keeps_request_rows_together(self):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=64, max_wait_s=0.01)

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
    def test_lone_request_resolves_on_timer(self):
        """A single request with no follow-up traffic must not hang."""
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=64, max_wait_s=0.005)

        async def scenario():
            return await asyncio.wait_for(
                batcher.submit(np.array([[7]])), timeout=5.0
            )

        np.testing.assert_array_equal(run(scenario()), [[70]])

    def test_shutdown_flushes_pending_window(self):
        """Regression: traffic stopping mid-window must not strand waiters.

        The window is far from full and the timer is effectively
        infinite — only the shutdown flush can resolve the request.
        """
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=64, max_wait_s=60.0)

        async def scenario():
            task = asyncio.ensure_future(batcher.submit(np.array([[3]])))
            await asyncio.sleep(0)  # let the submit enqueue
            assert not task.done()
            await batcher.aclose()
            return await asyncio.wait_for(task, timeout=1.0)

        np.testing.assert_array_equal(run(scenario()), [[30]])
        assert runner.calls  # the close actually ran the batch

    def test_submit_after_close_is_refused(self):
        batcher = MicroBatcher(RecordingRunner(), max_wait_s=0.001)

        async def scenario():
            await batcher.aclose()
            with pytest.raises(BatcherClosed):
                await batcher.submit(np.array([[1]]))

        run(scenario())

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(RecordingRunner(), max_wait_s=0.001)

        async def scenario():
            await batcher.aclose()
            await batcher.aclose()

        run(scenario())


class TestFailurePropagation:
    def test_batch_failure_rejects_all_waiters_then_recovers(self):
        runner = RecordingRunner(fail=True)
        batcher = MicroBatcher(runner, max_batch=64, max_wait_s=0.005)

        async def scenario():
            results = await asyncio.gather(
                batcher.submit(np.array([[1]])),
                batcher.submit(np.array([[2]])),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)
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
            max_wait_s=0.05,
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
        batcher = MicroBatcher(
            batched_model.predict, max_batch=16, max_wait_s=0.05
        )

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
        with pytest.raises(ConfigurationError):
            MicroBatcher(RecordingRunner(), max_wait_s=-1.0)
