"""Tests for the n-gram sequence encoder extension."""

import numpy as np
import pytest

from repro.encoding.ngram import NGramEncoder
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hdlock.keygen import generate_key
from repro.hv.ops import bind, permute
from repro.hv.random import random_pool
from repro.hv.similarity import hamming

A, D = 6, 1024


@pytest.fixture
def items() -> np.ndarray:
    return random_pool(A, D, rng=0)


class TestConstruction:
    def test_shapes(self, items):
        enc = NGramEncoder(items, n=3)
        assert enc.alphabet_size == A
        assert enc.dim == D
        assert not enc.locked

    def test_requires_memory_or_key(self):
        with pytest.raises(ConfigurationError):
            NGramEncoder()

    def test_pool_and_key_must_pair(self, items):
        with pytest.raises(ConfigurationError):
            NGramEncoder(items, base_pool=items)

    def test_bad_n(self, items):
        with pytest.raises(ConfigurationError):
            NGramEncoder(items, n=0)

    def test_vector_item_memory_rejected(self):
        with pytest.raises(DimensionMismatchError):
            NGramEncoder(np.ones(D, dtype=np.int8))


class TestEncoding:
    def test_unigram_is_bundle(self, items):
        enc = NGramEncoder(items, n=1)
        seq = np.array([0, 2, 4])
        expected = (
            items[0].astype(np.int64)
            + items[2].astype(np.int64)
            + items[4].astype(np.int64)
        )
        np.testing.assert_array_equal(enc.encode_nonbinary(seq), expected)

    def test_bigram_matches_naive(self, items):
        enc = NGramEncoder(items, n=2)
        seq = np.array([1, 3, 5])
        naive = np.zeros(D, dtype=np.int64)
        for t in range(2):
            gram = bind(items[seq[t]], permute(items[seq[t + 1]], 1))
            naive += gram.astype(np.int64)
        np.testing.assert_array_equal(enc.encode_nonbinary(seq), naive)

    def test_order_sensitivity(self, items):
        """n-grams with rotation distinguish 'ab' from 'ba'."""
        enc = NGramEncoder(items, n=2)
        ab = enc.encode(np.array([0, 1, 0, 1, 0, 1, 0, 1]), binary=True)
        ba = enc.encode(np.array([1, 0, 1, 0, 1, 0, 1, 0]), binary=True)
        assert float(hamming(ab, ba)) > 0.3

    def test_similar_sequences_close(self, items):
        enc = NGramEncoder(items, n=3)
        base = np.array([0, 1, 2, 3, 4, 5] * 4)
        variant = base.copy()
        variant[7] = (variant[7] + 1) % A
        assert float(hamming(
            enc.encode(base, binary=True), enc.encode(variant, binary=True)
        )) < 0.35

    def test_too_short_sequence(self, items):
        enc = NGramEncoder(items, n=4)
        with pytest.raises(ConfigurationError):
            enc.encode(np.array([0, 1, 2]))

    def test_symbol_out_of_range(self, items):
        enc = NGramEncoder(items, n=2)
        with pytest.raises(ConfigurationError):
            enc.encode(np.array([0, A]))

    def test_float_sequence_rejected(self, items):
        enc = NGramEncoder(items, n=2)
        with pytest.raises(ConfigurationError):
            enc.encode(np.array([0.0, 1.0]))

    def test_matrix_sequence_rejected(self, items):
        enc = NGramEncoder(items, n=2)
        with pytest.raises(DimensionMismatchError):
            enc.encode(np.zeros((2, 5), dtype=np.int64))


class TestLockedNGram:
    def test_key_derived_items(self):
        pool = random_pool(8, D, rng=10)
        key = generate_key(A, 2, 8, D, rng=11)
        enc = NGramEncoder(n=2, base_pool=pool, key=key)
        assert enc.locked
        assert enc.item_matrix.shape == (A, D)

    def test_locked_and_plain_equivalent_statistics(self):
        pool = random_pool(8, D, rng=13)
        key = generate_key(A, 2, 8, D, rng=14)
        locked = NGramEncoder(n=2, base_pool=pool, key=key)
        plain = NGramEncoder(random_pool(A, D, rng=16), n=2)
        seq = np.array([0, 1, 2, 3, 4, 5])
        out_locked = locked.encode_nonbinary(seq)
        out_plain = plain.encode_nonbinary(seq)
        assert np.abs(out_locked).max() <= 5
        assert np.abs(out_plain).max() <= 5
