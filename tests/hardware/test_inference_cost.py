"""Tests for the end-to-end inference cost extension."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.datapath import DatapathConfig
from repro.hardware.encoder_cost import encoding_cycles
from repro.hardware.inference_cost import (
    inference_cycles,
    similarity_cycles,
    throughput_samples_per_second,
)


class TestSimilarityCycles:
    def test_scales_with_classes(self):
        c10 = similarity_cycles(10, 10_000)
        c26 = similarity_cycles(26, 10_000)
        assert c26 > c10

    def test_formula(self):
        cfg = DatapathConfig()
        expected = 10 * cfg.accumulate_beats(10_000) + 4  # tree depth of 10
        assert similarity_cycles(10, 10_000, cfg) == expected

    def test_needs_two_classes(self):
        with pytest.raises(ConfigurationError):
            similarity_cycles(1, 10_000)


class TestInferenceCycles:
    def test_is_encode_plus_search(self):
        total = inference_cycles(784, 10_000, 10, 2)
        assert total == encoding_cycles(784, 10_000, 2) + similarity_cycles(
            10, 10_000
        )

    def test_monotone_in_layers(self):
        cycles = [inference_cycles(784, 10_000, 10, l) for l in range(5)]
        assert cycles[0] == cycles[1]
        assert all(b > a for a, b in zip(cycles[1:], cycles[2:], strict=False))


class TestThroughput:
    def test_positive_and_clock_scaled(self):
        slow = throughput_samples_per_second(
            784, 10_000, 10, 2, DatapathConfig(clock_mhz=100)
        )
        fast = throughput_samples_per_second(
            784, 10_000, 10, 2, DatapathConfig(clock_mhz=200)
        )
        assert fast == pytest.approx(2 * slow)

    def test_lock_reduces_throughput_modestly(self):
        base = throughput_samples_per_second(784, 10_000, 10, 0)
        locked = throughput_samples_per_second(784, 10_000, 10, 2)
        assert 0.7 < locked / base < 1.0
