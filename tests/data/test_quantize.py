"""Tests for min-max quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.quantize import quantize_minmax
from repro.errors import ConfigurationError


class TestQuantizeMinmax:
    def test_endpoints(self):
        out = quantize_minmax(np.array([0.0, 1.0]), 16, vmin=0.0, vmax=1.0)
        np.testing.assert_array_equal(out, [0, 15])

    def test_uniform_bins(self):
        values = np.linspace(0, 1, 17)[:-1] + 1e-9  # bin interiors
        out = quantize_minmax(values, 16, vmin=0.0, vmax=1.0)
        np.testing.assert_array_equal(out, np.arange(16))

    def test_clipping_out_of_range(self):
        out = quantize_minmax(np.array([-5.0, 99.0]), 8, vmin=0.0, vmax=1.0)
        np.testing.assert_array_equal(out, [0, 7])

    def test_auto_range(self):
        values = np.array([10.0, 20.0, 30.0])
        out = quantize_minmax(values, 4)
        assert out[0] == 0 and out[-1] == 3

    def test_degenerate_range(self):
        out = quantize_minmax(np.full(5, 3.3), 8)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_preserves_shape(self):
        out = quantize_minmax(np.zeros((3, 4)), 8, vmin=0.0, vmax=1.0)
        assert out.shape == (3, 4)

    def test_too_few_levels(self):
        with pytest.raises(ConfigurationError):
            quantize_minmax(np.array([1.0]), 1)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=32,
        ),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_always_in_range(self, values, levels):
        out = quantize_minmax(np.array(values), levels, vmin=0.0, vmax=1.0)
        assert out.min() >= 0
        assert out.max() <= levels - 1

    @given(st.integers(min_value=2, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_monotone(self, levels):
        values = np.sort(np.random.default_rng(levels).uniform(0, 1, 50))
        out = quantize_minmax(values, levels, vmin=0.0, vmax=1.0)
        assert (np.diff(out) >= 0).all()


class TestDequantize:
    def test_roundtrip_within_bin(self):
        values = np.random.default_rng(0).uniform(0, 1, 100)
        levels = 32
        q = quantize_minmax(values, levels, vmin=0.0, vmax=1.0)
        back = (q + 0.5) / levels  # the centre of each level's bin on [0, 1]
        assert np.abs(back - values).max() <= 1 / levels
