"""Tests for similarity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.hv.random import random_hv, random_pool
from repro.hv.similarity import cosine, dot, hamming, pairwise_hamming

DIM = 512


class TestHamming:
    def test_identical_is_zero(self, rng):
        a = random_hv(DIM, rng)
        assert hamming(a, a) == 0.0

    def test_negation_is_one(self, rng):
        a = random_hv(DIM, rng)
        assert hamming(a, -a) == 1.0

    def test_random_pair_near_half(self, rng):
        a = random_hv(8192, rng)
        b = random_hv(8192, rng)
        assert abs(hamming(a, b) - 0.5) < 0.05

    def test_known_value(self):
        a = np.array([1, 1, 1, 1], dtype=np.int8)
        b = np.array([1, -1, 1, -1], dtype=np.int8)
        assert hamming(a, b) == 0.5

    def test_broadcast_pool(self, rng):
        pool = random_pool(5, DIM, rng)
        out = hamming(pool, pool[2])
        assert out.shape == (5,)
        assert out[2] == 0.0

    def test_relates_to_dot(self, rng):
        a = random_hv(DIM, rng)
        b = random_hv(DIM, rng)
        expected = (1 - dot(a, b) / DIM) / 2
        assert hamming(a, b) == pytest.approx(float(expected))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming(np.ones(3), np.ones(4))

    @given(st.integers(min_value=0, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_flip_count_exact(self, flips):
        a = np.ones(64, dtype=np.int8)
        b = a.copy()
        b[:flips] = -1
        assert hamming(a, b) == flips / 64


class TestCosine:
    def test_identical_is_one(self, rng):
        a = random_hv(DIM, rng)
        assert cosine(a, a) == pytest.approx(1.0)

    def test_negation_is_minus_one(self, rng):
        a = random_hv(DIM, rng)
        assert cosine(a, -a) == pytest.approx(-1.0)

    def test_scale_invariant(self, rng):
        a = rng.normal(size=DIM)
        assert cosine(a, 7.5 * a) == pytest.approx(1.0)

    def test_zero_vector_scores_zero(self, rng):
        a = random_hv(DIM, rng)
        assert cosine(np.zeros(DIM), a) == 0.0

    def test_broadcast(self, rng):
        pool = random_pool(4, DIM, rng)
        out = cosine(pool, pool[1])
        assert out.shape == (4,)
        assert out[1] == pytest.approx(1.0)


class TestPairwiseHamming:
    def test_matches_pairwise_calls(self, rng):
        pool = random_pool(6, DIM, rng)
        mat = pairwise_hamming(pool)
        for i in range(6):
            for j in range(6):
                assert mat[i, j] == pytest.approx(float(hamming(pool[i], pool[j])))

    def test_diagonal_zero_symmetric(self, rng):
        pool = random_pool(8, DIM, rng)
        mat = pairwise_hamming(pool)
        np.testing.assert_allclose(np.diag(mat), 0.0)
        np.testing.assert_allclose(mat, mat.T)

    def test_requires_matrix(self, rng):
        with pytest.raises(ValueError):
            pairwise_hamming(random_hv(DIM, rng))
