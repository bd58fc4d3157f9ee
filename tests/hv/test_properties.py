"""Tests for pool property reports (orthogonality / level linearity)."""

import numpy as np
import pytest

from repro.hv.level import level_hvs
from repro.hv.properties import level_linearity_report, orthogonality_report
from repro.hv.random import random_pool


class TestOrthogonalityReport:
    def test_random_pool_is_quasi_orthogonal(self):
        report = orthogonality_report(random_pool(30, 4096, rng=0))
        assert report.pairs == 30 * 29 // 2
        assert report.mean_distance == pytest.approx(0.5, abs=0.01)
        # Six binomial standard deviations, 1 / (2 sqrt(D)) each.
        assert report.is_quasi_orthogonal(6 * 0.5 / np.sqrt(4096))

    def test_correlated_pool_flagged(self):
        levels = level_hvs(8, 2048, rng=1)
        report = orthogonality_report(levels)
        # adjacent levels are very close -> far from orthogonal
        assert not report.is_quasi_orthogonal(0.1)
        assert report.max_abs_deviation > 0.3

    def test_single_row(self):
        report = orthogonality_report(random_pool(1, 64, rng=2))
        assert report.pairs == 0
        assert report.is_quasi_orthogonal(0.0)

    def test_duplicate_rows_detected(self):
        row = random_pool(1, 512, rng=3)
        pool = np.vstack([row, row])
        report = orthogonality_report(pool)
        assert report.max_abs_deviation == pytest.approx(0.5)


class TestLevelLinearityReport:
    def test_well_formed_levels(self):
        levels = level_hvs(10, 4096, rng=4)
        report = level_linearity_report(levels)
        assert report.levels == 10
        assert report.extreme_distance == pytest.approx(0.5, abs=0.01)
        assert report.is_linear(0.02)

    def test_random_pool_is_not_linear(self):
        pool = random_pool(10, 2048, rng=5)
        report = level_linearity_report(pool)
        assert not report.is_linear(0.05)

