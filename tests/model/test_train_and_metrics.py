"""Tests for the training entry point."""

import numpy as np
import pytest

from repro.encoding.record import RecordEncoder
from repro.model.train import train_model


class TestTrainModel:
    def test_returns_fitted_model(self, tiny_dataset):
        encoder = RecordEncoder.random(
            tiny_dataset.n_features, tiny_dataset.levels, 1024, rng=0
        )
        result = train_model(
            encoder,
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            tiny_dataset.n_classes,
            binary=True,
            retrain_epochs=2,
            rng=1,
        )
        assert len(result.history) == 2
        assert 0.0 <= result.train_accuracy <= 1.0
        assert result.model.score(tiny_dataset.test_x, tiny_dataset.test_y) > 0.8

    def test_zero_epochs_still_scores(self, tiny_dataset):
        encoder = RecordEncoder.random(
            tiny_dataset.n_features, tiny_dataset.levels, 1024, rng=2
        )
        result = train_model(
            encoder,
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            tiny_dataset.n_classes,
            retrain_epochs=0,
            rng=3,
        )
        assert result.history == ()
        assert result.train_accuracy > 0.5

    @pytest.mark.parametrize("binary", [True, False])
    def test_both_flavors_learn(self, tiny_dataset, binary):
        encoder = RecordEncoder.random(
            tiny_dataset.n_features, tiny_dataset.levels, 1024, rng=4
        )
        result = train_model(
            encoder,
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            tiny_dataset.n_classes,
            binary=binary,
            rng=5,
        )
        assert result.model.score(tiny_dataset.test_x, tiny_dataset.test_y) > 0.8

