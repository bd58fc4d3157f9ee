"""Tests for level (value) hypervector construction — Eq. 1b."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hv.level import level_hvs, level_profile
from repro.hv.similarity import hamming

DIM = 2048


class TestLevelHVs:
    def test_shape(self):
        levels = level_hvs(8, DIM, rng=0)
        assert levels.shape == (8, DIM)
        assert set(np.unique(levels)) == {-1, 1}

    def test_extremes_near_orthogonal(self):
        levels = level_hvs(16, DIM, rng=1)
        # flips accumulate to exactly floor(D/2) positions
        assert hamming(levels[0], levels[-1]) == pytest.approx(0.5, abs=0.01)

    def test_linear_profile(self):
        m = 9
        levels = level_hvs(m, DIM, rng=2)
        profile = level_profile(levels)
        ideal = 0.5 * np.arange(m) / (m - 1)
        np.testing.assert_allclose(profile, ideal, atol=0.01)

    def test_pairwise_follows_eq_1b(self):
        m = 6
        levels = level_hvs(m, DIM, rng=3)
        for v1 in range(m):
            for v2 in range(m):
                # Eq. 1b: 0.5 * |v1 - v2| / (M - 1)
                expected = 0.5 * abs(v1 - v2) / (m - 1)
                assert float(hamming(levels[v1], levels[v2])) == pytest.approx(
                    expected, abs=0.02
                )

    def test_monotonic_from_level_zero(self):
        levels = level_hvs(12, DIM, rng=4)
        profile = level_profile(levels)
        assert (np.diff(profile) >= 0).all()

    def test_two_levels_minimal(self):
        levels = level_hvs(2, DIM, rng=5)
        assert float(hamming(levels[0], levels[1])) == pytest.approx(0.5, abs=0.01)

    def test_single_level_rejected(self):
        with pytest.raises(ConfigurationError):
            level_hvs(1, DIM)

    def test_dim_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            level_hvs(10, 8)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            level_hvs(4, 256, rng=9), level_hvs(4, 256, rng=9)
        )

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_any_level_count_spans_half(self, m):
        levels = level_hvs(m, 1024, rng=0)
        d = float(hamming(levels[0], levels[-1]))
        assert abs(d - 0.5) <= 1 / 64  # rounding of D/2 across batches

