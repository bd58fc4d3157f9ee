"""Tests for the brute-force baseline and the complexity formulas."""

import math

import numpy as np
import pytest

from repro.attack.bruteforce import (
    MAX_BRUTEFORCE_FEATURES,
    exhaustive_mapping_attack,
    score_matrix,
)
from repro.attack.complexity import (
    guesses_vs_dim_and_pool,
    guesses_vs_layers,
    hdlock_guesses_per_feature,
    hdlock_total_guesses,
    plain_total_guesses,
    reasoning_seconds_estimate,
    security_improvement,
)
from repro.attack.feature_extraction import extract_feature_mapping
from repro.attack.threat_model import expose_model
from repro.attack.value_extraction import extract_value_mapping
from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError


class TestBruteForce:
    def deploy(self, n: int, binary: bool = True):
        encoder = RecordEncoder.random(n, 4, 1024, rng=n)
        surface, truth = expose_model(encoder, binary=binary, rng=n + 1)
        value = extract_value_mapping(surface)
        return surface, truth, value

    def test_finds_true_mapping(self):
        surface, truth, value = self.deploy(5)
        result = exhaustive_mapping_attack(surface, value.level_order)
        np.testing.assert_array_equal(result.assignment, truth.feature_assignment)
        assert result.permutations_tried == math.factorial(5)

    def test_agrees_with_divide_and_conquer(self):
        surface, _, value = self.deploy(6)
        brute = exhaustive_mapping_attack(surface, value.level_order)
        dnc = extract_feature_mapping(surface, value.level_order)
        np.testing.assert_array_equal(brute.assignment, dnc.assignment)

    def test_refuses_large_n(self):
        surface, _, value = self.deploy(5)
        surface_big = type(surface)(
            feature_pool=np.tile(surface.feature_pool, (3, 1)),
            value_pool=surface.value_pool,
            oracle=_FakeWideOracle(surface.oracle, MAX_BRUTEFORCE_FEATURES + 1),
        )
        with pytest.raises(ConfigurationError):
            exhaustive_mapping_attack(surface_big, value.level_order)

    def test_score_matrix_diagonal_after_truth(self):
        surface, truth, value = self.deploy(5)
        scores = score_matrix(surface, value.level_order)
        for i in range(5):
            assert int(np.argmin(scores[i])) == truth.feature_assignment[i]


class _FakeWideOracle:
    """Oracle stub reporting an inflated feature count (guard testing)."""

    def __init__(self, oracle, n_features):
        self._oracle = oracle
        self.n_features = n_features
        self.levels = oracle.levels
        self.dim = oracle.dim
        self.binary = oracle.binary

    def query(self, sample):
        raise AssertionError("guard must trip before any query")


class TestComplexityFormulas:
    def test_plain(self):
        assert plain_total_guesses(784) == 614_656

    def test_hdlock_per_feature(self):
        assert hdlock_guesses_per_feature(10_000, 784, 1) == 7_840_000
        assert hdlock_guesses_per_feature(10_000, 784, 2) == 7_840_000**2

    def test_paper_checkpoints(self):
        assert plain_total_guesses(784) == pytest.approx(6.15e5, rel=0.01)
        assert hdlock_total_guesses(784, 10_000, 784, 1) == pytest.approx(
            6.15e9, rel=0.01
        )
        assert hdlock_total_guesses(784, 10_000, 784, 2) == pytest.approx(
            4.81e16, rel=0.01
        )
        assert security_improvement(784, 10_000, 784, 2) == pytest.approx(
            7.82e10, rel=0.01
        )

    def test_exact_integers_no_overflow(self):
        # (10^4 * 700)^5 is ~10^34 — must stay exact
        guesses = hdlock_guesses_per_feature(10_000, 700, 5)
        assert guesses == (10_000 * 700) ** 5
        assert isinstance(guesses, int)

    def test_monotone_in_everything(self):
        base = hdlock_total_guesses(100, 1000, 50, 2)
        assert hdlock_total_guesses(101, 1000, 50, 2) > base
        assert hdlock_total_guesses(100, 1001, 50, 2) > base
        assert hdlock_total_guesses(100, 1000, 51, 2) > base
        assert hdlock_total_guesses(100, 1000, 50, 3) > base

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            plain_total_guesses(0)
        with pytest.raises(ConfigurationError):
            hdlock_guesses_per_feature(0, 10, 1)
        with pytest.raises(ConfigurationError):
            hdlock_guesses_per_feature(10, 10, 0)


class TestComplexitySeries:
    def test_grid_shape(self):
        grid = guesses_vs_dim_and_pool([100, 200], [10, 20, 30], layers=2)
        assert len(grid) == 6
        assert grid[0] == (100, 10, (100 * 10) ** 2)

    def test_curves_exponential_in_layers(self):
        curves = guesses_vs_layers(range(1, 5), [100], dim=1000)
        values = [g for _, g in curves[100]]
        ratios = [values[i + 1] / values[i] for i in range(3)]
        assert all(r == 100 * 1000 for r in ratios)

    def test_seconds_estimate(self):
        assert reasoning_seconds_estimate(1000, 0.001) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            reasoning_seconds_estimate(10, -1.0)
