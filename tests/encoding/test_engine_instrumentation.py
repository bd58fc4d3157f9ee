"""EncodingPlan observability hooks: rows, calls, scratch reuse.

Instrumentation must be strictly additive: an un-instrumented plan pays
one ``is None`` check, and attaching counters never changes a single
output bit (the parity classes already pin the numerics; here we pin
the bookkeeping).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding.record import RecordEncoder
from repro.obs.metrics import MetricsRegistry


def _blas_encoder() -> RecordEncoder:
    return RecordEncoder.random(n_features=13, levels=6, dim=256, rng=424242)


def _samples(encoder: RecordEncoder, batch: int) -> np.ndarray:
    gen = np.random.default_rng(7)
    return gen.integers(0, encoder.levels, size=(batch, encoder.n_features))


def _counts(reg: MetricsRegistry, scope: str, path: str) -> tuple[float, float]:
    rows = reg.counter(
        "repro_encode_rows_total",
        "Rows encoded through EncodingPlan, by kernel path.",
        labels=("scope", "path"),
    )
    calls = reg.counter(
        "repro_encode_calls_total",
        "EncodingPlan accumulate calls, by kernel path.",
        labels=("scope", "path"),
    )
    return rows.value(scope=scope, path=path), calls.value(scope=scope, path=path)


class TestCounters:
    @pytest.mark.parametrize("factory, path", [(_blas_encoder, "blas")])
    def test_rows_and_calls_per_kernel_path(self, factory, path):
        encoder = factory()
        assert encoder.plan.mode == path
        reg = MetricsRegistry()
        encoder.plan.instrument(reg, scope="test")
        encoder.plan.accumulate(_samples(encoder, 10))
        encoder.plan.accumulate(_samples(encoder, 3))
        rows, calls = _counts(reg, "test", path)
        assert rows == 13
        assert calls == 2

    def test_packed_path_counts_through_the_same_family(self):
        encoder = _blas_encoder()
        reg = MetricsRegistry()
        encoder.plan.instrument(reg, scope="test")
        encoder.plan.accumulate_packed(_samples(encoder, 5))
        rows, calls = _counts(reg, "test", "blas")
        assert rows == 5
        assert calls == 1

    def test_scratch_reuse_counts_chunks_beyond_the_first(self):
        encoder = _blas_encoder()
        reg = MetricsRegistry()
        encoder.plan.instrument(reg, scope="test")
        # 10 rows in chunks of 3 → 4 chunks sharing one per-call
        # scratch buffer → 3 reuses.
        encoder.plan.accumulate(_samples(encoder, 10), chunk_size=3)
        reuse = reg.counter(
            "repro_encode_scratch_reuse_total",
            "Chunks that reused the call's existing scratch buffer.",
            labels=("scope",),
        )
        assert reuse.value(scope="test") == 3
        # A single-chunk call reuses nothing.
        encoder.plan.accumulate(_samples(encoder, 2), chunk_size=4)
        assert reuse.value(scope="test") == 3

    def test_empty_batch_records_nothing(self):
        encoder = _blas_encoder()
        reg = MetricsRegistry()
        encoder.plan.instrument(reg, scope="test")
        encoder.plan.accumulate(_samples(encoder, 0))
        rows, calls = _counts(reg, "test", "blas")
        assert rows == 0
        assert calls == 0


class TestAdditivity:
    def test_instrumentation_does_not_change_outputs(self):
        plain = _blas_encoder()
        observed = _blas_encoder()
        reg = MetricsRegistry()
        observed.plan.instrument(reg, scope="test")
        samples = _samples(plain, 9)
        np.testing.assert_array_equal(
            plain.plan.accumulate(samples, chunk_size=4),
            observed.plan.accumulate(samples, chunk_size=4),
        )
        np.testing.assert_array_equal(
            plain.plan.accumulate_packed(samples),
            observed.plan.accumulate_packed(samples),
        )

    def test_uninstrumented_plan_has_no_observer(self):
        encoder = _blas_encoder()
        assert encoder.plan._obs is None
        encoder.plan.accumulate(_samples(encoder, 4))  # no error, no counters
