"""Tests for locked feature-hypervector derivation (Eq. 9)."""

import numpy as np
import pytest

from repro.errors import KeyFormatError
from repro.hdlock.feature_factory import derive_feature_hv, derive_feature_matrix
from repro.hdlock.keygen import generate_key
from repro.hv.ops import BIPOLAR_DTYPE, bind, permute
from repro.hv.properties import orthogonality_report
from repro.hv.random import random_pool
from repro.memory.key import LockKey, SubKey

P, D = 12, 1024


@pytest.fixture
def pool() -> np.ndarray:
    return random_pool(P, D, rng=0)


class TestDeriveFeatureHV:
    def test_single_layer_is_rotation(self, pool):
        sk = SubKey((3,), (17,))
        np.testing.assert_array_equal(
            derive_feature_hv(pool, sk), permute(pool[3], 17)
        )

    def test_two_layers_is_bound_product(self, pool):
        sk = SubKey((1, 4), (5, 250))
        expected = bind(permute(pool[1], 5), permute(pool[4], 250))
        np.testing.assert_array_equal(derive_feature_hv(pool, sk), expected)

    def test_same_base_different_rotations_ok(self, pool):
        sk = SubKey((2, 2), (0, 100))
        out = derive_feature_hv(pool, sk)
        expected = bind(pool[2], permute(pool[2], 100))
        np.testing.assert_array_equal(out, expected)
        # and the result is not degenerate
        assert not (out == 1).all()


class TestDeriveFeatureMatrix:
    def test_matches_per_feature_derivation(self, pool):
        key = generate_key(8, 3, P, D, rng=1)
        matrix = derive_feature_matrix(pool, key)
        for i, sk in enumerate(key.subkeys):
            np.testing.assert_array_equal(matrix[i], derive_feature_hv(pool, sk))

    def test_output_bipolar(self, pool):
        key = generate_key(6, 2, P, D, rng=2)
        matrix = derive_feature_matrix(pool, key)
        assert set(np.unique(matrix)).issubset({-1, 1})

    def test_derived_features_quasi_orthogonal(self, pool):
        key = generate_key(30, 2, P, D, rng=3)
        report = orthogonality_report(derive_feature_matrix(pool, key))
        assert report.mean_distance == pytest.approx(0.5, abs=0.02)

    def test_more_features_than_pool(self, pool):
        """P < N works: features reuse bases under different rotations."""
        key = generate_key(3 * P, 2, P, D, rng=4)
        matrix = derive_feature_matrix(pool, key)
        assert matrix.shape == (3 * P, D)
        report = orthogonality_report(matrix)
        assert report.mean_distance == pytest.approx(0.5, abs=0.03)

    def test_key_pool_mismatch(self, pool):
        bad = LockKey([SubKey((0,), (0,))], pool_size=P + 5, dim=D)
        with pytest.raises(KeyFormatError):
            derive_feature_matrix(pool, bad)

    def test_wrong_dim_key(self, pool):
        bad = LockKey([SubKey((0,), (0,))], pool_size=P, dim=D * 2)
        with pytest.raises(KeyFormatError):
            derive_feature_matrix(pool, bad)

    @pytest.mark.parametrize("layers", [1, 2, 3, 4, 5])
    def test_rows_match_per_feature_spec_with_larger_pool(self, layers):
        """The pool may hold more rows than the key indexes (P > pool_size)."""
        big_pool = random_pool(P + 7, D, rng=layers)
        key = generate_key(9, layers, P, D, rng=10 + layers)
        matrix = derive_feature_matrix(big_pool, key)
        assert matrix.shape == (9, D)
        assert matrix.dtype == BIPOLAR_DTYPE
        for i, sk in enumerate(key.subkeys):
            np.testing.assert_array_equal(matrix[i], derive_feature_hv(big_pool, sk))

    def test_output_is_fresh_and_writable(self, pool):
        key = generate_key(4, 3, P, D, rng=6)
        matrix = derive_feature_matrix(pool, key)
        assert matrix.flags.writeable
        assert not np.shares_memory(matrix, pool)

    def test_wider_integer_pool_derives_int8(self, pool):
        key = generate_key(5, 2, P, D, rng=7)
        wide = derive_feature_matrix(pool.astype(np.int64), key)
        assert wide.dtype == BIPOLAR_DTYPE
        np.testing.assert_array_equal(wide, derive_feature_matrix(pool, key))

    def test_deterministic(self, pool):
        key = generate_key(5, 2, P, D, rng=5)
        np.testing.assert_array_equal(
            derive_feature_matrix(pool, key), derive_feature_matrix(pool, key)
        )
