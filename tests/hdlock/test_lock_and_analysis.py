"""Tests for the high-level HDLock API and the trade-off analysis."""

import numpy as np
import pytest

from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError
from repro.hdlock.analysis import (
    render_tradeoff_table,
    security_level_bits,
    tradeoff_table,
)
from repro.hdlock.lock import create_locked_encoder, lock_encoder, lock_model

N, M, D = 24, 6, 1024


class TestCreateLockedEncoder:
    def test_default_pool_is_n(self):
        system = create_locked_encoder(N, M, D, layers=2, rng=0)
        assert system.pool_size == N
        assert system.layers == 2
        assert system.encoder.n_features == N

    def test_custom_pool_size(self):
        system = create_locked_encoder(N, M, D, layers=1, pool_size=7, rng=1)
        assert system.base_pool.shape == (7, D)

    def test_key_is_in_secure_memory(self):
        system = create_locked_encoder(N, M, D, layers=2, rng=2)
        assert system.secure_memory.load("lock_key") == system.key

    def test_invalid_layers(self):
        with pytest.raises(ConfigurationError):
            create_locked_encoder(N, M, D, layers=0)

    def test_reproducible(self):
        a = create_locked_encoder(N, M, D, layers=2, rng=3)
        b = create_locked_encoder(N, M, D, layers=2, rng=3)
        assert a.key == b.key
        np.testing.assert_array_equal(a.base_pool, b.base_pool)


class TestLockEncoder:
    def test_reuses_level_memory(self):
        plain = RecordEncoder.random(N, M, D, rng=4)
        system = lock_encoder(plain, layers=2, rng=5)
        assert system.encoder.level_memory is plain.level_memory

    def test_feature_hvs_replaced(self):
        plain = RecordEncoder.random(N, M, D, rng=6)
        system = lock_encoder(plain, layers=2, rng=7)
        assert not np.array_equal(
            system.encoder.feature_matrix, plain.feature_matrix
        )

    def test_shapes_preserved(self):
        plain = RecordEncoder.random(N, M, D, rng=8)
        system = lock_encoder(plain, layers=3, rng=9)
        assert system.encoder.n_features == N
        assert system.encoder.levels == M
        assert system.encoder.dim == D


class TestLockModel:
    def test_retrains_under_lock(self, tiny_dataset):
        plain = RecordEncoder.random(
            tiny_dataset.n_features, tiny_dataset.levels, D, rng=10
        )
        system, training = lock_model(
            plain,
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            n_classes=tiny_dataset.n_classes,
            layers=2,
            binary=True,
            retrain_epochs=1,
            rng=11,
        )
        accuracy = training.model.score(tiny_dataset.test_x, tiny_dataset.test_y)
        assert accuracy > 0.8  # no accuracy loss from locking (Fig. 8)
        assert training.model.encoder is system.encoder


class TestAnalysis:
    def test_security_bits_mnist(self):
        bits = security_level_bits(784, 10_000, 784, 2)
        assert bits == pytest.approx(55.4, abs=0.2)

    def test_tradeoff_rows(self):
        rows = tradeoff_table(784, 10_000, 784, layer_range=range(1, 4))
        assert [r.layers for r in rows] == [1, 2, 3]
        assert rows[0].relative_encoding_time == pytest.approx(1.0)
        assert rows[1].relative_encoding_time == pytest.approx(1.21, abs=0.01)
        assert rows[1].total_guesses == 784 * (10_000 * 784) ** 2
        # security strictly increases, latency strictly increases
        assert rows[2].total_guesses > rows[1].total_guesses > rows[0].total_guesses
        assert (
            rows[2].relative_encoding_time
            > rows[1].relative_encoding_time
            > rows[0].relative_encoding_time
        )

    def test_render_tradeoff_table(self):
        text = render_tradeoff_table(tradeoff_table(784, 10_000, 784))
        assert "4.82e+16" in text or "4.81e+16" in text
        assert "1.21x" in text
