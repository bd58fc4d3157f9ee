"""Tests for the attack operating-envelope sweeps."""

import pytest

from repro.experiments.config import DEFAULT_SEED
from repro.experiments.sweeps import (
    margin_vs_features,
    recovery_vs_dim,
    render_sweeps,
)


class TestRecoveryVsDim:
    def test_large_d_recovers_fully(self):
        points = recovery_vs_dim(dims=(2048,), n_features=48, seed=0)
        assert points[0].feature_accuracy == 1.0
        assert points[0].value_accuracy == 1.0

    def test_margin_grows_with_d(self):
        points = recovery_vs_dim(dims=(256, 2048), n_features=48, seed=1)
        assert points[1].median_margin > points[0].median_margin

    def test_recovery_monotone_in_d(self):
        points = recovery_vs_dim(dims=(128, 512, 2048), n_features=64, seed=2)
        accuracies = [p.feature_accuracy for p in points]
        assert accuracies == sorted(accuracies)
        assert accuracies[-1] == 1.0


class TestMarginVsFeatures:
    def test_dip_present_at_all_widths(self):
        points = margin_vs_features(feature_counts=(64, 256), dim=2048, seed=3)
        for point in points:
            assert point.separation > 0

    def test_margin_shrinks_with_width(self):
        points = margin_vs_features(
            feature_counts=(64, 512), dim=2048, seed=4
        )
        assert points[1].separation < points[0].separation


class TestDefaultEnvelope:
    @pytest.mark.slow
    def test_recovery_saturates_and_dip_survives(self):
        # Recovery reaches 100 % once D dominates N, and the dip
        # survives up to the widest default model at D = 2048.
        recovery = recovery_vs_dim(seed=DEFAULT_SEED)
        assert recovery[-1].feature_accuracy == 1.0
        margins = margin_vs_features(seed=DEFAULT_SEED)
        assert all(p.separation > 0 for p in margins)


class TestRender:
    def test_renders_both_tables(self):
        text = render_sweeps(
            recovery_vs_dim(dims=(512,), n_features=32, seed=5),
            margin_vs_features(feature_counts=(32,), dim=512, seed=6),
        )
        assert "Recovery vs dimensionality" in text
        assert "Guess-dip margin" in text
