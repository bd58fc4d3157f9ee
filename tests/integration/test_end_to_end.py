"""Integration tests spanning the whole stack.

These walk the paper's narrative end to end on one small instance:
train a model, deploy it under the threat model, steal it, verify the
clone, lock it with HDLock, verify the attack collapses, and check the
defender's security/overhead accounting.
"""

import numpy as np
import pytest

from repro import (
    HDClassifier,
    RecordEncoder,
    create_locked_encoder,
    expose_locked_model,
    expose_model,
    evaluate_theft,
    guess_distance_series,
    hdlock_total_guesses,
    lock_model,
    plain_total_guesses,
    relative_encoding_time,
    run_reasoning_attack,
    security_improvement,
    sweep_parameter,
    train_model,
    verify_mapping,
)
from repro.attack import as_attack_surface
from repro.data import SyntheticSpec, make_dataset

N, M, D, C = 48, 8, 2048, 4


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(
        name="e2e",
        n_features=N,
        n_classes=C,
        levels=M,
        train_samples=160,
        test_samples=80,
        noise_sigma=0.3,
        boundary_fraction=0.2,
    )
    return make_dataset(spec, rng=0)


class TestFullAttackDefenseCycle:
    @pytest.mark.parametrize("binary", [True, False])
    def test_story(self, dataset, binary):
        # 1. The victim trains a model (the IP).
        encoder = RecordEncoder.random(N, M, D, rng=1)
        training = train_model(
            encoder,
            dataset.train_x,
            dataset.train_y,
            n_classes=C,
            binary=binary,
            retrain_epochs=2,
            rng=2,
        )
        original = training.model.score(dataset.test_x, dataset.test_y)
        assert original > 0.6

        # 2. Deployment exposes only shuffled pools + oracle (Sec. 3.1).
        surface, truth = expose_model(encoder, binary=binary, rng=3)

        # 3. The reasoning attack steals the full mapping (Sec. 3.2).
        result = run_reasoning_attack(surface)
        assert verify_mapping(result, truth).exact

        # 4. The reconstructed model matches the original (Table 1).
        report, _ = evaluate_theft(
            original, surface, result, dataset, binary=binary
        )
        assert abs(report.accuracy_gap) < 0.1

        # 5. The defender locks the model; accuracy holds (Fig. 8).
        system, locked_training = lock_model(
            encoder,
            dataset.train_x,
            dataset.train_y,
            n_classes=C,
            layers=2,
            binary=binary,
            retrain_epochs=2,
            rng=6,
        )
        locked_accuracy = locked_training.model.score(
            dataset.test_x, dataset.test_y
        )
        assert locked_accuracy > original - 0.12

        # 6. The plain attack collapses against the locked deployment.
        locked_surface, _ = expose_locked_model(system.encoder, binary=True)
        series = guess_distance_series(
            as_attack_surface(locked_surface), np.arange(M), feature=0
        )
        assert series.min() > 0.3

        # 7. The only remaining attack needs (D*P)^L guesses per feature
        #    (Sec. 4.2) — identifiable but astronomically many.
        sweep = sweep_parameter(
            locked_surface, system.key, "rotation", 0, max_wrong=25
        )
        assert sweep.separation > 0
        assert security_improvement(N, D, N, 2) == pytest.approx(
            hdlock_total_guesses(N, D, N, 2) / plain_total_guesses(N)
        )

        # 8. And the latency bill is the paper's 21 % at L=2.
        assert relative_encoding_time(2, N, 10_000) == pytest.approx(
            1.21, abs=0.01
        )


class TestLockedModelServing:
    def test_locked_classifier_is_a_dropin(self, dataset):
        """A locked encoder plugs into HDClassifier unchanged."""
        system = create_locked_encoder(N, M, D, layers=2, rng=7)
        model = HDClassifier(system.encoder, C, binary=True)
        model.fit(dataset.train_x, dataset.train_y)
        assert model.score(dataset.test_x, dataset.test_y) > 0.6

    def test_key_rotation_recovers_accuracy_after_retrain(self, dataset):
        """Re-keying (e.g. after suspected leakage) + retraining restores
        service; stale class HVs under the new key do not."""
        system = create_locked_encoder(N, M, D, layers=2, rng=9)
        model = HDClassifier(system.encoder, C, binary=False)
        model.fit(dataset.train_x, dataset.train_y)
        before = model.score(dataset.test_x, dataset.test_y)

        from repro.hdlock.keygen import generate_key

        new_key = generate_key(N, 2, N, D, rng=11)
        rekeyed_encoder = system.encoder.rekey(new_key)
        stale = HDClassifier(rekeyed_encoder, C, binary=False)
        stale._accums = model._accums  # serve old class HVs on new key
        degraded = stale.score(dataset.test_x, dataset.test_y)
        assert degraded < before - 0.2

        fresh = HDClassifier(rekeyed_encoder, C, binary=False)
        fresh.fit(dataset.train_x, dataset.train_y)
        assert fresh.score(dataset.test_x, dataset.test_y) > before - 0.1
