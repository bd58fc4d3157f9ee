"""Tests for the attacker-facing encoding oracle."""

import numpy as np
import pytest

from repro.encoding.oracle import EncodingOracle
from repro.encoding.record import RecordEncoder

N, M, D = 12, 4, 512


@pytest.fixture
def encoder() -> RecordEncoder:
    return RecordEncoder.random(N, M, D, rng=0)


class TestOracle:
    def test_exposes_public_shape(self, encoder):
        oracle = EncodingOracle(encoder, binary=True)
        assert oracle.n_features == N
        assert oracle.levels == M
        assert oracle.dim == D
        assert oracle.binary

    def test_query_matches_encoder(self, encoder, rng):
        oracle = EncodingOracle(encoder, binary=False)
        sample = rng.integers(0, M, N)
        np.testing.assert_array_equal(
            oracle.query(sample), encoder.encode_nonbinary(sample)
        )

    def test_binary_query_is_bipolar(self, encoder, rng):
        oracle = EncodingOracle(encoder, binary=True)
        out = oracle.query(rng.integers(0, M, N))
        assert set(np.unique(out)).issubset({-1, 1})

    def test_query_counter(self, encoder, rng):
        oracle = EncodingOracle(encoder)
        assert oracle.n_queries == 0
        oracle.query(rng.integers(0, M, N))
        oracle.query(rng.integers(0, M, N))
        assert oracle.n_queries == 2

    def test_batch_counts_per_sample(self, encoder, rng):
        oracle = EncodingOracle(encoder)
        oracle.query_batch(rng.integers(0, M, (5, N)))
        assert oracle.n_queries == 5

    def test_batch_matches_encoder(self, encoder, rng):
        oracle = EncodingOracle(encoder, binary=True)
        samples = rng.integers(0, M, (3, N))
        np.testing.assert_array_equal(
            oracle.query_batch(samples),
            encoder.encode_batch(samples, binary=True),
        )

    def test_oracle_does_not_leak_memories(self, encoder):
        """The oracle's public attribute surface must not expose the
        encoder's item memories (attack code only sees shapes)."""
        oracle = EncodingOracle(encoder)
        public = [name for name in vars(oracle) if not name.startswith("_")]
        assert set(public) == {"binary", "n_queries"}
