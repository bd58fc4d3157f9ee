"""Prive-HD transmission transforms: grids, sparsity, path parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding.locked import LockedEncoder
from repro.encoding.privacy import (
    QuantizedLockedEncoder,
    SparsifiedLockedEncoder,
)
from repro.errors import ConfigurationError
from repro.hdlock.keygen import generate_key
from repro.hv.packing import pack_words
from repro.hv.random import random_pool
from repro.memory.item_memory import LevelMemory

N_FEATURES, LEVELS, DIM, POOL = 24, 8, 1024, 8


@pytest.fixture
def parts(rng):
    """Shared (pool, level memory, key) so encoder pairs are comparable."""
    pool = random_pool(POOL, DIM, rng)
    memory = LevelMemory.random(LEVELS, DIM, rng)
    key = generate_key(N_FEATURES, 1, POOL, DIM, rng)
    return pool, memory, key


@pytest.fixture
def samples(rng):
    return rng.integers(0, LEVELS, size=(12, N_FEATURES), dtype=np.int64)


class TestValidation:
    def test_even_quant_levels_rejected(self, parts):
        with pytest.raises(ConfigurationError, match="quant_levels"):
            QuantizedLockedEncoder(*parts, quant_levels=4)

    def test_too_few_quant_levels_rejected(self, parts):
        with pytest.raises(ConfigurationError, match="quant_levels"):
            QuantizedLockedEncoder(*parts, quant_levels=1)

    def test_nonpositive_clip_rejected(self, parts):
        with pytest.raises(ConfigurationError, match="clip_sigmas"):
            QuantizedLockedEncoder(*parts, clip_sigmas=0.0)

    def test_keep_fraction_bounds(self, parts):
        with pytest.raises(ConfigurationError, match="keep_fraction"):
            SparsifiedLockedEncoder(*parts, keep_fraction=0.0)
        with pytest.raises(ConfigurationError, match="keep_fraction"):
            SparsifiedLockedEncoder(*parts, keep_fraction=1.5)


class TestQuantizer:
    def test_outputs_live_on_the_symmetric_grid(self, parts, samples):
        encoder = QuantizedLockedEncoder(*parts, quant_levels=5)
        out = encoder.encode_batch(samples, binary=False)
        assert out.dtype == np.int64
        assert set(np.unique(out)) <= {-2, -1, 0, 1, 2}

    def test_three_levels_zero_the_bulk(self, parts, samples):
        # +/-1.5 sigma of a ~N(0, N) accumulation collapses to bucket 0:
        # the majority of coordinates, each binarized to its fixed
        # sign(0) tie bit
        encoder = QuantizedLockedEncoder(*parts)
        out = encoder.encode_batch(samples, binary=False)
        assert np.mean(out == 0) > 0.5

    def test_rekey_preserves_parameters(self, parts, rng):
        pool, memory, key = parts
        encoder = QuantizedLockedEncoder(
            pool, memory, key, quant_levels=5, clip_sigmas=2.0
        )
        fresh_key = generate_key(N_FEATURES, 1, POOL, DIM, rng)
        rekeyed = encoder.rekey(fresh_key)
        assert isinstance(rekeyed, QuantizedLockedEncoder)
        assert rekeyed.quant_levels == 5
        assert rekeyed.clip_sigmas == 2.0
        assert rekeyed.key == fresh_key

    def test_random_builds_the_subclass(self):
        encoder = QuantizedLockedEncoder.random(
            N_FEATURES, LEVELS, DIM, rng=5, layers=2
        )
        assert isinstance(encoder, QuantizedLockedEncoder)
        assert encoder.layers == 2
        assert encoder.pool_size == N_FEATURES
        assert encoder.quant_levels == 3


class TestSparsifier:
    def test_exact_keep_count_per_row(self, parts, samples):
        encoder = SparsifiedLockedEncoder(*parts, keep_fraction=0.05)
        out = encoder.encode_batch(samples, binary=False)
        keep = round(0.05 * DIM)
        assert (np.count_nonzero(out, axis=1) <= keep).all()
        # survivors are exactly the top-|H| coordinates of the raw rows
        raw = LockedEncoder(*parts).encode_batch(
            samples, binary=False
        )
        survivor_floor = np.where(out != 0, np.abs(raw), np.iinfo(np.int64).max)
        dropped_ceiling = np.where(out == 0, np.abs(raw), -1)
        assert (survivor_floor.min(axis=1) >= dropped_ceiling.max(axis=1)).all()

    def test_keep_everything_is_identity(self, parts, samples):
        sparse = SparsifiedLockedEncoder(*parts, keep_fraction=1.0)
        plain = LockedEncoder(*parts)
        np.testing.assert_array_equal(
            sparse.encode_batch(samples, binary=False),
            plain.encode_batch(samples, binary=False),
        )

    def test_transform_is_deterministic(self, parts, samples):
        # no RNG in the transform itself: two instances agree bit for bit
        a = SparsifiedLockedEncoder(*parts).encode_batch(
            samples, binary=False
        )
        b = SparsifiedLockedEncoder(*parts).encode_batch(
            samples, binary=False
        )
        np.testing.assert_array_equal(a, b)


class TestPathParity:
    """Single, batch and packed paths agree through the transform."""

    @pytest.mark.parametrize(
        ("factory", "binary"),
        [
            (QuantizedLockedEncoder, False),
            (SparsifiedLockedEncoder, False),
            (QuantizedLockedEncoder, True),
            (SparsifiedLockedEncoder, True),
        ],
        ids=["quantized", "sparsified", "quantized-binary", "sparsified-binary"],
    )
    def test_single_equals_batch_nonbinary(self, parts, samples, factory, binary):
        # the quantizer zeroes most coordinates, so the binary run is
        # dense with sign(0) ties
        encoder = factory(*parts)
        rows = np.stack(
            [
                encoder.encode(sample) if binary else encoder.encode_nonbinary(sample)
                for sample in samples
            ]
        )
        np.testing.assert_array_equal(rows, encoder.encode_batch(samples, binary))

    @pytest.mark.parametrize(
        "factory",
        [QuantizedLockedEncoder, SparsifiedLockedEncoder],
        ids=["quantized", "sparsified"],
    )
    def test_packed_equals_packed_dense(self, parts, samples, factory):
        encoder = factory(*parts)
        packed = encoder.encode_batch_packed(samples)
        dense = encoder.encode_batch(samples, binary=True)
        np.testing.assert_array_equal(packed, pack_words(dense))

    def test_encode_packed_single_sample(self, parts, samples):
        encoder = QuantizedLockedEncoder(*parts)
        packed = encoder.encode_packed(samples[0])
        batch = encoder.encode_batch_packed(samples[:1])
        np.testing.assert_array_equal(packed, batch[0])
