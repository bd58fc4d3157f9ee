"""Tests for the HDC classifier."""

import numpy as np
import pytest

from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.model.classifier import HDClassifier

N, M, D, C = 30, 6, 1024, 3


@pytest.fixture
def encoder() -> RecordEncoder:
    return RecordEncoder.random(N, M, D, rng=0)


def make_separable(rng: np.random.Generator, per_class: int = 20):
    """Three well-separated level prototypes with small jitter."""
    prototypes = np.array(
        [np.full(N, 0), np.full(N, M // 2), np.full(N, M - 1)]
    )
    samples, labels = [], []
    for cls in range(C):
        jitter = rng.integers(-1, 2, size=(per_class, N))
        samples.append(np.clip(prototypes[cls] + jitter, 0, M - 1))
        labels.append(np.full(per_class, cls))
    return np.vstack(samples), np.concatenate(labels)


class TestFitPredict:
    @pytest.mark.parametrize("binary", [True, False])
    def test_learns_separable_data(self, encoder, rng, binary):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C, binary=binary).fit(x, y)
        assert model.score(x, y) == 1.0

    @pytest.mark.parametrize("binary", [True, False])
    def test_generalizes(self, encoder, rng, binary):
        x, y = make_separable(rng)
        test_x, test_y = make_separable(rng)
        model = HDClassifier(encoder, C, binary=binary).fit(x, y)
        assert model.score(test_x, test_y) >= 0.9

    def test_predict_shape(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C).fit(x, y)
        assert model.predict(x[:7]).shape == (7,)

    def test_class_matrix_shapes(self, encoder, rng):
        x, y = make_separable(rng)
        binary = HDClassifier(encoder, C, binary=True).fit(x, y)
        nonbinary = HDClassifier(encoder, C, binary=False).fit(x, y)
        assert binary.class_matrix.shape == (C, D)
        assert set(np.unique(binary.class_matrix)).issubset({-1, 1})
        assert nonbinary.class_matrix.dtype == np.float64

    def test_untrained_raises(self, encoder):
        model = HDClassifier(encoder, C)
        with pytest.raises(ConfigurationError):
            _ = model.class_matrix
        with pytest.raises(ConfigurationError):
            model.predict(np.zeros((1, N), dtype=np.int64))


class TestRetrain:
    def test_improves_or_holds_train_accuracy(self, encoder, rng):
        x, y = make_separable(rng)
        # corrupt a few labels so one-shot is imperfect
        y_noisy = y.copy()
        y_noisy[:4] = (y_noisy[:4] + 1) % C
        model = HDClassifier(encoder, C, binary=True).fit(x, y_noisy)
        history = model.retrain(x, y_noisy, epochs=3)
        assert len(history) == 3

    def test_requires_fit_first(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C)
        with pytest.raises(ConfigurationError):
            model.retrain(x, y)

    def test_zero_epochs_noop(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C).fit(x, y)
        before = model.class_matrix.copy()
        assert model.retrain(x, y, epochs=0) == []
        np.testing.assert_array_equal(model.class_matrix, before)

    def test_negative_epochs(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C).fit(x, y)
        with pytest.raises(ConfigurationError):
            model.retrain(x, y, epochs=-1)

    @pytest.mark.parametrize("binary", [True, False])
    def test_update_equals_scatter_reference(self, encoder, rng, binary):
        """The signed one-hot matmul is exact: it equals a per-row
        ``np.add.at`` scatter even when wrong rows share a class."""
        x, y = make_separable(rng)
        y_noisy = y.copy()
        y_noisy[:8] = 1  # eight class-0 rows, all relabelled to class 1
        model = HDClassifier(encoder, C, binary=binary).fit(x, y_noisy)
        encoded = model.encode_training(x)
        predictions = model._predict_encoded(encoded)
        wrong = np.flatnonzero(predictions != y_noisy)
        assert np.bincount(y_noisy[wrong]).max() > 1
        assert np.bincount(predictions[wrong]).max() > 1
        expected = model.class_accumulators
        updates = encoded[wrong].astype(np.float64)
        np.add.at(expected, y_noisy[wrong], updates)
        np.add.at(expected, predictions[wrong], -updates)
        model.retrain(x, y_noisy, epochs=1, encoded=encoded)
        np.testing.assert_array_equal(model.class_accumulators, expected)

    def test_encoded_reuse_matches(self, encoder, rng):
        x, y = make_separable(rng)
        m1 = HDClassifier(encoder, C, binary=False).fit(x, y)
        encoded = m1.encode_training(x)
        m2 = HDClassifier(encoder, C, binary=False).fit(
            x, y, encoded=encoded
        )
        np.testing.assert_array_equal(m1.class_matrix, m2.class_matrix)


class TestSimilarityProfile:
    def test_highest_for_true_class(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C, binary=False).fit(x, y)
        profile = model.similarity_profile(x[0])
        assert profile.shape == (C,)
        assert int(np.argmax(profile)) == y[0]

    def test_binary_profile_in_unit_range(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C, binary=True).fit(x, y)
        profile = model.similarity_profile(x[0])
        assert (profile >= 0).all() and (profile <= 1).all()


class TestValidation:
    def test_too_few_classes(self, encoder):
        with pytest.raises(ConfigurationError):
            HDClassifier(encoder, 1)

    def test_label_shape_mismatch(self, encoder, rng):
        x, _ = make_separable(rng)
        model = HDClassifier(encoder, C)
        with pytest.raises(DimensionMismatchError):
            model.fit(x, np.zeros(3, dtype=np.int64))

    def test_label_out_of_range(self, encoder, rng):
        x, y = make_separable(rng)
        with pytest.raises(ConfigurationError):
            HDClassifier(encoder, C).fit(x, y + C)


class TestTrainedStateRoundTrip:
    """Export/restore of the trained class memory (serving provisioning)."""

    def test_accumulators_round_trip_binary(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C, binary=True).fit(x, y)
        # Binary class HVs are Eq. 3 of the accumulators, ties included,
        # so the accumulators alone restore them bit for bit.
        assert (model.class_accumulators == 0).any()
        restored = HDClassifier(encoder, C, binary=True)
        restored.load_accumulators(model.class_accumulators)
        np.testing.assert_array_equal(
            restored.class_matrix, model.class_matrix
        )
        np.testing.assert_array_equal(restored.predict(x), model.predict(x))

    def test_accumulators_round_trip_nonbinary(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C, binary=False).fit(x, y)
        restored = HDClassifier(encoder, C, binary=False)
        restored.load_accumulators(model.class_accumulators)
        np.testing.assert_array_equal(restored.predict(x), model.predict(x))

    def test_accumulators_are_a_copy(self, encoder, rng):
        x, y = make_separable(rng)
        model = HDClassifier(encoder, C).fit(x, y)
        exported = model.class_accumulators
        exported[:] = 0.0
        assert model.class_accumulators.any()

    def test_untrained_export_raises(self, encoder):
        with pytest.raises(ConfigurationError):
            _ = HDClassifier(encoder, C).class_accumulators

    def test_wrong_shape_refused(self, encoder):
        model = HDClassifier(encoder, C)
        with pytest.raises(DimensionMismatchError):
            model.load_accumulators(np.zeros((C, D + 1)))
