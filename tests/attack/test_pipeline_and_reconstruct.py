"""Tests for the end-to-end attack pipeline and model reconstruction."""

import math

import numpy as np
import pytest

from repro.attack.pipeline import run_reasoning_attack, verify_mapping
from repro.attack.reconstruct import evaluate_theft, reconstruct_encoder
from repro.attack.threat_model import expose_model
from repro.data.synthetic import SyntheticSpec, make_dataset
from repro.encoding.record import RecordEncoder
from repro.model.train import train_model

N, M, D = 24, 6, 1024

#: Model widths for the attack-cost scaling fit.
SCALING_WIDTHS = (64, 128, 256, 512)


@pytest.fixture
def dataset():
    spec = SyntheticSpec(
        name="pipe",
        n_features=N,
        n_classes=3,
        levels=M,
        train_samples=60,
        test_samples=30,
        noise_sigma=0.25,
    )
    return make_dataset(spec, rng=0)


@pytest.fixture
def deployment():
    encoder = RecordEncoder.random(N, M, D, rng=1)
    return encoder, *expose_model(encoder, binary=True, rng=2)


class TestRunReasoningAttack:
    def test_full_recovery(self, deployment):
        _, surface, truth = deployment
        result = run_reasoning_attack(surface)
        verdict = verify_mapping(result, truth)
        assert verdict.exact
        assert verdict.value_accuracy == 1.0
        assert verdict.feature_accuracy == 1.0

    def test_timings_positive_and_additive(self, deployment):
        _, surface, truth = deployment
        result = run_reasoning_attack(surface)
        assert result.value_seconds > 0
        assert result.feature_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.value_seconds + result.feature_seconds
        )

    def test_query_accounting(self, deployment):
        _, surface, _ = deployment
        result = run_reasoning_attack(surface)
        assert result.total_queries == N + 1
        assert result.total_guesses == N * (N + 1) // 2
        # The divide-and-conquer budget is O(N^2): fit the growth
        # exponent of the exact guess counts over a range of widths.
        guesses = {}
        for n in SCALING_WIDTHS:
            encoder = RecordEncoder.random(n, M, D, rng=n)
            wide, _ = expose_model(encoder, binary=True, rng=n + 1)
            guesses[n] = run_reasoning_attack(wide).total_guesses
            assert guesses[n] == n * (n + 1) // 2
        lo, hi = SCALING_WIDTHS[0], SCALING_WIDTHS[-1]
        alpha = math.log(guesses[hi] / guesses[lo]) / math.log(hi / lo)
        assert 1.2 < alpha < 3.0

    def test_nonbinary_recovery(self):
        encoder = RecordEncoder.random(N, M, D, rng=6)
        surface, truth = expose_model(encoder, binary=False, rng=7)
        verdict = verify_mapping(run_reasoning_attack(surface), truth)
        assert verdict.exact

    def test_attack_never_touches_secure_memory(self, deployment):
        _, surface, truth = deployment
        run_reasoning_attack(surface)
        # the only accesses logged must be owner-side (none from attack)
        assert all(r.actor == "owner" for r in truth.secure_memory.audit_log)


class TestReconstruct:
    def test_clone_encodes_identically(self, deployment):
        encoder, surface, _ = deployment
        result = run_reasoning_attack(surface)
        clone = reconstruct_encoder(surface, result)
        sample = np.random.default_rng(12).integers(0, M, N)
        np.testing.assert_array_equal(
            clone.encode_nonbinary(sample), encoder.encode_nonbinary(sample)
        )

    def test_clone_memories_match_victim(self, deployment):
        encoder, surface, _ = deployment
        result = run_reasoning_attack(surface)
        clone = reconstruct_encoder(surface, result)
        np.testing.assert_array_equal(
            clone.feature_memory.matrix, encoder.feature_memory.matrix
        )
        np.testing.assert_array_equal(
            clone.level_memory.matrix, encoder.level_memory.matrix
        )

    @pytest.mark.parametrize("binary", [True, False])
    def test_theft_preserves_accuracy(self, dataset, binary):
        encoder = RecordEncoder.random(N, M, D, rng=14)
        training = train_model(
            encoder,
            dataset.train_x,
            dataset.train_y,
            n_classes=3,
            binary=binary,
            retrain_epochs=1,
            rng=15,
        )
        original = training.model.score(dataset.test_x, dataset.test_y)
        surface, _ = expose_model(encoder, binary=binary, rng=16)
        result = run_reasoning_attack(surface)
        report, _ = evaluate_theft(
            original, surface, result, dataset, binary=binary
        )
        assert report.original_accuracy == original
        # Table 1: the stolen encoder supports the same model quality.
        assert abs(report.accuracy_gap) < 0.1
