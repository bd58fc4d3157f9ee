"""Metamorphic purity tests: an encoding is a function of the sample alone.

Eq. 3 breaks sign(0) ties with one fixed vector (:func:`repro.hv.ops.tie_bits`),
so an encoder keeps no state between calls. Each test below computes the
same sample's bits two ways that a stateful tie-break would tell apart,
and requires them to be identical:

* ``encode(x)`` alone and ``x`` as a row of any batch;
* any row permutation of a batch;
* any chunking of a batch (explicit ``chunk_size`` or a tiny memory
  budget, down to one row per chunk);
* a fresh replica built from the same seed;
* a replica restored from a provisioning bundle plus its key;
* ``encode(x)`` twice.

Every encoder family is covered at an even ``N``, where accumulations
hit zero and ties occur; each case checks that they do, so a test
cannot pass by never exercising the tie rule.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.encoding.locked import LockedEncoder
from repro.encoding.privacy import QuantizedLockedEncoder, SparsifiedLockedEncoder
from repro.encoding.record import RecordEncoder
from repro.hdlock.keygen import generate_key
from repro.hdlock.provisioning import restore_encoder, save_public_bundle
from repro.hv.random import random_pool
from repro.memory.item_memory import LevelMemory

N_FEATURES = 12  # even: sums of N bipolar products tie at zero
LEVELS = 6
DIM = 251  # prime: not a multiple of 8 or 64
BATCH = 10

#: The locked family, as constructors over (pool, level memory, key).
LOCKED_FAMILY = {
    "locked": LockedEncoder,
    "quantized": partial(QuantizedLockedEncoder, quant_levels=3),
    "sparsified": partial(SparsifiedLockedEncoder, keep_fraction=0.25),
}


def _locked(name: str, layers: int = 2):
    pool = random_pool(N_FEATURES, DIM, rng=41)
    levels = LevelMemory.random(LEVELS, DIM, rng=42)
    key = generate_key(N_FEATURES, layers, N_FEATURES, DIM, rng=43)
    return LOCKED_FAMILY[name](pool, levels, key)


ENCODERS = {
    "record": lambda: RecordEncoder.random(N_FEATURES, LEVELS, DIM, rng=40),
    "locked": partial(_locked, "locked"),
    "quantized": partial(_locked, "quantized"),
    "sparsified": partial(_locked, "sparsified"),
}


def _samples(encoder, seed: int = 5) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.integers(0, encoder.levels, size=(BATCH, encoder.n_features))


@pytest.fixture(params=sorted(ENCODERS))
def case(request):
    """(name, encoder, samples) with ties present in the samples' encodings."""
    encoder = ENCODERS[request.param]()
    samples = _samples(encoder)
    assert (encoder.encode_batch(samples, binary=False) == 0).any()
    return request.param, encoder, samples


class TestPurity:
    def test_single_equals_batch_row(self, case):
        _, encoder, samples = case
        dense = encoder.encode_batch(samples, binary=True)
        packed = encoder.encode_batch_packed(samples)
        for row, sample in enumerate(samples):
            np.testing.assert_array_equal(encoder.encode(sample), dense[row])
            np.testing.assert_array_equal(encoder.encode_packed(sample), packed[row])

    def test_row_permutation(self, case):
        _, encoder, samples = case
        perm = np.random.default_rng(6).permutation(BATCH)
        packed = encoder.encode_batch_packed(samples)
        np.testing.assert_array_equal(
            encoder.encode_batch_packed(samples[perm]), packed[perm]
        )
        dense = encoder.encode_batch(samples, binary=True)
        np.testing.assert_array_equal(
            encoder.encode_batch(samples[perm], binary=True), dense[perm]
        )

    def test_one_row_chunks(self, case, monkeypatch):
        _, encoder, samples = case
        whole = encoder.encode_batch_packed(samples)
        dense = encoder.encode_batch(samples, binary=True)
        # A one-byte budget degenerates every chunked loop to one row.
        monkeypatch.setattr("repro.encoding.engine.DEFAULT_MEMORY_BUDGET", 1)
        np.testing.assert_array_equal(encoder.encode_batch_packed(samples), whole)
        np.testing.assert_array_equal(encoder.encode_batch(samples, True), dense)

    def test_fresh_replica(self, case):
        name, encoder, samples = case
        replica = ENCODERS[name]()
        np.testing.assert_array_equal(
            replica.encode_batch_packed(samples), encoder.encode_batch_packed(samples)
        )

    def test_encode_twice(self, case):
        _, encoder, samples = case
        first = encoder.encode(samples[0])
        encoder.encode_batch_packed(samples)  # unrelated traffic in between
        np.testing.assert_array_equal(encoder.encode(samples[0]), first)
        np.testing.assert_array_equal(
            encoder.encode_batch(samples, True), encoder.encode_batch(samples, True)
        )


@pytest.mark.parametrize("chunk_size", [1, 3, 7, 64])
def test_record_chunk_size(chunk_size):
    encoder = ENCODERS["record"]()
    samples = _samples(encoder)
    np.testing.assert_array_equal(
        encoder.plan.accumulate_packed(samples, chunk_size=chunk_size),
        encoder.encode_batch_packed(samples),
    )


@pytest.mark.parametrize("name", sorted(LOCKED_FAMILY))
def test_restored_replica(name, tmp_path):
    encoder = ENCODERS[name]()
    samples = _samples(encoder)
    save_public_bundle(tmp_path, encoder)
    restored = restore_encoder(tmp_path, encoder.key)
    replica = LOCKED_FAMILY[name](
        restored.base_pool, restored.level_memory, restored.key
    )
    np.testing.assert_array_equal(
        replica.encode_batch_packed(samples), encoder.encode_batch_packed(samples)
    )
    np.testing.assert_array_equal(
        replica.encode(samples[0]), encoder.encode(samples[0])
    )
