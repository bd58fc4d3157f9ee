"""Tests for the HDLock encoder (Eq. 9 / Eq. 10)."""

import numpy as np
import pytest

from repro.encoding.locked import LockedEncoder
from repro.errors import DimensionMismatchError
from repro.hdlock.feature_factory import derive_feature_matrix
from repro.hdlock.keygen import generate_key
from repro.hv.properties import orthogonality_report
from repro.hv.random import random_pool
from repro.memory.item_memory import LevelMemory

N, M, D, P, L = 20, 5, 1024, 16, 2


@pytest.fixture
def locked() -> LockedEncoder:
    pool = random_pool(P, D, rng=0)
    levels = LevelMemory.random(M, D, rng=1)
    key = generate_key(N, L, P, D, rng=2)
    return LockedEncoder(pool, levels, key)


class TestConstruction:
    def test_shapes(self, locked):
        assert locked.n_features == N
        assert locked.levels == M
        assert locked.dim == D
        assert locked.layers == L
        assert locked.pool_size == P
        assert locked.feature_matrix.shape == (N, D)

    def test_pool_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LockedEncoder(
                random_pool(P, 512, rng=0),
                LevelMemory.random(M, D, rng=1),
                generate_key(N, L, P, 512, rng=2),
            )

    def test_feature_matrix_matches_factory(self, locked):
        np.testing.assert_array_equal(
            locked.feature_matrix,
            derive_feature_matrix(locked.base_pool, locked.key),
        )


class TestStatisticalEquivalence:
    def test_derived_features_quasi_orthogonal(self, locked):
        report = orthogonality_report(locked.feature_matrix)
        assert report.mean_distance == pytest.approx(0.5, abs=0.02)
        assert report.max_abs_deviation < 0.12

    def test_encodings_behave_like_plain(self, locked, rng):
        sample = rng.integers(0, M, N)
        out = locked.encode_nonbinary(sample)
        assert np.abs(out).max() <= N
        assert (np.abs(out) % 2 == N % 2).all()


class TestDeterminism:
    def test_same_key_same_encoding(self, locked, rng):
        sample = rng.integers(0, M, N)
        a = locked.encode_nonbinary(sample)
        b = locked.encode_nonbinary(sample)
        np.testing.assert_array_equal(a, b)

    def test_rekey_changes_features(self, locked):
        new_key = generate_key(N, L, P, D, rng=99)
        rekeyed = locked.rekey(new_key)
        assert not np.array_equal(rekeyed.feature_matrix, locked.feature_matrix)
        np.testing.assert_array_equal(rekeyed.base_pool, locked.base_pool)

    def test_wrong_key_wrong_encoding(self, locked, rng):
        """A wrong key guess produces a wrong encoding (the lock works)."""
        sample = rng.integers(0, M, N)
        truth = locked.encode_nonbinary(sample)
        wrong = locked.rekey(generate_key(N, L, P, D, rng=123))
        mismatch = np.count_nonzero(
            np.sign(wrong.encode_nonbinary(sample)) != np.sign(truth)
        )
        assert mismatch > 0.2 * D
