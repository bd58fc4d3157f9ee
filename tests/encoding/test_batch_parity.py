"""Differential parity tests: batch engine vs the per-sample reference.

The vectorized engine must be *bit-exact* with the original per-sample
loop — same integers, and the same int8 signs, sign(0) ties included.
``ReferenceEncoder`` reimplements the pre-engine loop and Eq. 3
(independently of :func:`repro.encoding.engine.encode_batch_reference`
and :func:`repro.hv.ops.sign`, so the test is a true differential
harness); only the fixed tie vector :func:`repro.hv.ops.tie_bits` is
shared, because it is part of the specification.

Coverage per the HDXplore-style checklist: every encoder, binary and
non-binary outputs, odd dimensions (D not divisible by 8 or the chunk
size), B = 0 / B = 1 edge batches, chunk boundaries (chunk of 1, a chunk
that does not divide B, a chunk larger than B, and tiny memory budgets),
plus non-linear level memories on the same plan. Record
splits are forced through the plan's ``chunk_size``; the oracle path is
split by shrinking the engine's memory budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.countermeasures import GuardedOracle, QueryMonitor
from repro.encoding.engine import binarize_batch
from repro.encoding.oracle import EncodingOracle
from repro.encoding.privacy import QuantizedLockedEncoder
from repro.encoding.record import RecordEncoder
from repro.errors import DimensionMismatchError
from repro.hdlock.lock import create_locked_encoder
from repro.hv.ops import ACCUM_DTYPE, tie_bits
from repro.hv.random import random_pool
from repro.memory.item_memory import FeatureMemory, LevelMemory

ODD_DIM = 251  # prime: not divisible by 8, any chunk size, or anything else


def reference_sign(accum: np.ndarray) -> np.ndarray:
    """Eq. 3 written out: ``+1``/``-1`` by sign, the tie vector at zero."""
    ties = np.where(tie_bits(accum.shape[-1]), 1, -1)
    return np.where(accum == 0, ties, np.sign(accum)).astype(np.int8)


class ReferenceEncoder:
    """The original per-sample ``encode_batch`` loop."""

    def __init__(self, encoder) -> None:
        self._level = encoder.level_memory.matrix
        self._features = encoder.feature_matrix

    def encode_batch(self, samples: np.ndarray, binary: bool = True) -> np.ndarray:
        arr = np.asarray(samples)
        dtype = np.int8 if binary else ACCUM_DTYPE
        out = np.empty((arr.shape[0], self._level.shape[1]), dtype=dtype)
        for b in range(arr.shape[0]):
            accum = np.einsum(
                "nd,nd->d",
                self._level[arr[b]].astype(np.int32, copy=False),
                self._features.astype(np.int32, copy=False),
                dtype=ACCUM_DTYPE,
            )
            out[b] = reference_sign(accum) if binary else accum
        return out


def _record(dim: int, n_features: int = 13):
    return RecordEncoder.random(n_features, levels=6, dim=dim, rng=424242)


def _locked(dim: int):
    return create_locked_encoder(
        n_features=11, levels=5, dim=dim, layers=2, rng=987
    ).encoder


def _random_levels(dim: int):
    # A deliberately non-linear level memory: dense level differences
    # make the plan do up to M - 1 full passes, exactly.
    feature = FeatureMemory(random_pool(9, dim, rng=31))
    level = LevelMemory(random_pool(32, dim, rng=32))
    return RecordEncoder(feature, level)


RECORD_FACTORIES = {
    "record-odd-dim": lambda: _record(ODD_DIM),
    "record-even-dim": lambda: _record(256),
    # Even N: accumulations are even, so sign(0) ties occur.
    "record-even-n": lambda: _record(ODD_DIM, n_features=12),
    "locked-two-layer": lambda: _locked(ODD_DIM),
    "nonlinear-levels-fallback": lambda: _random_levels(ODD_DIM),
}


def _pair(name: str):
    """An encoder and the reference loop over the same matrices."""
    encoder = RECORD_FACTORIES[name]()
    return encoder, ReferenceEncoder(encoder)


def _samples(encoder, batch: int, seed: int = 7) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.integers(0, encoder.levels, size=(batch, encoder.n_features))


def _budget_rows(monkeypatch, rows: int, row_bytes: int) -> None:
    """Shrink the engine memory budget to exactly ``rows`` rows per chunk."""
    monkeypatch.setattr(
        "repro.encoding.engine.DEFAULT_MEMORY_BUDGET", rows * row_bytes
    )


class TestRecordFamilyParity:
    @pytest.mark.parametrize("name", sorted(RECORD_FACTORIES))
    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("batch", [0, 1, 7, 33])
    def test_bit_exact(self, name, binary, batch):
        encoder, reference = _pair(name)
        samples = _samples(encoder, batch)
        got = encoder.encode_batch(samples, binary=binary)
        want = reference.encode_batch(samples, binary=binary)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 64])
    def test_chunk_boundaries(self, chunk_size):
        # 33 rows: chunk 1 (degenerate), 3 (divides), 5 (ragged tail),
        # 64 (single chunk larger than the batch) must all agree.
        encoder, reference = _pair("record-odd-dim")
        samples = _samples(encoder, 33)
        accums = encoder.plan.accumulate(samples, chunk_size=chunk_size)
        got = binarize_batch(accums)
        np.testing.assert_array_equal(got, reference.encode_batch(samples, True))

    def test_tiny_memory_budget_still_exact(self, monkeypatch):
        monkeypatch.setattr("repro.encoding.engine.DEFAULT_MEMORY_BUDGET", 1)
        encoder, reference = _pair("record-even-dim")
        samples = _samples(encoder, 9)
        got = encoder.encode_batch(samples, binary=False)
        np.testing.assert_array_equal(got, reference.encode_batch(samples, False))

    def test_fallback_mode_engaged(self):
        # Dense level differences cost the decomposition more
        # arithmetic, but they run the same (only) BLAS kernel.
        encoder = RECORD_FACTORIES["nonlinear-levels-fallback"]()
        assert encoder.plan.mode == "blas"
        blas = RECORD_FACTORIES["record-odd-dim"]()
        assert blas.plan.mode == "blas"

    def test_single_encode_matches_batch_row(self):
        encoder, reference = _pair("record-odd-dim")
        samples = _samples(encoder, 5)
        got = encoder.encode_batch(samples, binary=True)
        want = reference.encode_batch(samples, binary=True)
        np.testing.assert_array_equal(got, want)
        # And the non-batch entry point funnels through the same plan.
        np.testing.assert_array_equal(
            encoder.encode_nonbinary(samples[2]),
            encoder.encode_batch(samples, binary=False)[2],
        )


class TestTieBreakDeterminism:
    def test_sign_zero_stream_matches_reference(self):
        # N = 4, M = 2 makes zero accumulations (ties) common; every
        # tied coordinate must take the reference's fixed tie bit.
        encoder = RecordEncoder.random(n_features=4, levels=2, dim=ODD_DIM, rng=55)
        reference = ReferenceEncoder(encoder)
        samples = np.random.default_rng(2).integers(0, 2, size=(50, 4))
        assert (encoder.encode_batch(samples, binary=False) == 0).any()
        got = encoder.encode_batch(samples, binary=True)
        want = reference.encode_batch(samples, binary=True)
        assert (got == 0).sum() == 0  # fully bipolar output
        np.testing.assert_array_equal(got, want)

    def test_two_seeded_runs_identical(self):
        samples = np.random.default_rng(3).integers(0, 2, size=(20, 4))
        outs = [
            RecordEncoder.random(4, 2, 128, rng=77).encode_batch(samples)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(outs[0], outs[1])


class TestOracleParity:
    @pytest.mark.parametrize("binary", [True, False])
    def test_query_batch_matches_reference(self, binary, monkeypatch):
        encoder, reference = _pair("record-odd-dim")
        oracle = EncodingOracle(encoder, binary=binary)
        samples = _samples(encoder, 8)
        _budget_rows(monkeypatch, 3, encoder.plan._row_bytes)
        got = oracle.query_batch(samples)
        np.testing.assert_array_equal(got, reference.encode_batch(samples, binary))
        assert oracle.n_queries == 8


SCALAR_FACTORIES = {
    "record": lambda: _record(64),
    "locked": lambda: _locked(64),
    "quantized": lambda: QuantizedLockedEncoder.random(11, 5, 64, rng=3, layers=2),
}


class TestScalarInput:
    """A 0-d input is a shape error on every entry point of every encoder."""

    @pytest.mark.parametrize("name", sorted(SCALAR_FACTORIES))
    @pytest.mark.parametrize(
        "entry",
        [
            "encode",
            "encode_nonbinary",
            "encode_packed",
            "encode_batch",
            "encode_batch_packed",
        ],
    )
    def test_scalar_raises_dimension_mismatch(self, name, entry):
        encoder = SCALAR_FACTORIES[name]()
        with pytest.raises(DimensionMismatchError):
            getattr(encoder, entry)(np.int64(1))

    def test_oracle_scalar_query(self):
        oracle = EncodingOracle(_record(64))
        with pytest.raises(DimensionMismatchError):
            oracle.query(3)
        with pytest.raises(DimensionMismatchError):
            oracle.query_batch(np.int64(3))
        assert oracle.n_queries == 0

    @pytest.mark.parametrize("entry", ["query_batch", "query_batch_packed"])
    def test_guarded_oracle_scalar_batch(self, entry):
        encoder = _record(64)
        monitor = QueryMonitor(encoder.n_features, encoder.levels)
        oracle = GuardedOracle(encoder, monitor)
        with pytest.raises(DimensionMismatchError):
            getattr(oracle, entry)(np.int64(3))


class TestEngineSpecAgreesWithReference:
    def test_executable_spec_matches_test_reference(self):
        # engine.encode_batch_reference (used by the benchmarks) and the
        # independently written loop above must be the same function.
        from repro.encoding.engine import encode_batch_reference

        encoder, reference = _pair("record-even-n")
        samples = _samples(encoder, 12)
        assert (encoder.encode_batch(samples, binary=False) == 0).any()
        spec = encode_batch_reference(
            encoder.level_memory.matrix, encoder.feature_matrix, samples, binary=True
        )
        np.testing.assert_array_equal(spec, reference.encode_batch(samples, True))


class TestPlanReuseAndInvalidation:
    def test_plan_is_cached(self):
        encoder = _record(64)
        assert encoder.plan is encoder.plan

    def test_invalidate_caches_rebuilds(self):
        encoder = _record(64)
        first = encoder.plan
        encoder.invalidate_caches()
        assert encoder.plan is not first
