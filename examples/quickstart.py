"""Quickstart: train an HDC classifier, deploy it, see why it needs HDLock.

Runs in a few seconds on a laptop::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    RecordEncoder,
    expose_model,
    load_benchmark,
    lock_model,
    run_reasoning_attack,
    train_model,
    verify_mapping,
)

DIM = 2048
SEED = 7


def main() -> None:
    # 1. Data: a PAMAP-shaped benchmark (27 IMU channels, 5 activities).
    dataset = load_benchmark("pamap", rng=SEED, sample_scale=0.4)
    print(
        f"dataset: {dataset.spec.name}, N={dataset.n_features} features, "
        f"C={dataset.n_classes} classes, M={dataset.levels} levels"
    )

    # 2. Train the victim model (this is the IP worth protecting).
    encoder = RecordEncoder.random(
        dataset.n_features, dataset.levels, DIM, rng=SEED
    )
    training = train_model(
        encoder,
        dataset.train_x,
        dataset.train_y,
        n_classes=dataset.n_classes,
        binary=True,
        retrain_epochs=2,
    )
    accuracy = training.model.score(dataset.test_x, dataset.test_y)
    print(f"trained binary HDC model: test accuracy {accuracy:.3f}")

    # 3. Deploy it under the paper's threat model: hypervectors public
    #    (shuffled), index mapping in secure memory, oracle queryable.
    surface, truth = expose_model(encoder, binary=True, rng=SEED + 1)
    print(
        f"deployed: {len(surface.feature_pool)} unindexed feature HVs and "
        f"{len(surface.value_pool)} value HVs in public memory"
    )

    # 4. One attacker session later, the mapping is gone.
    result = run_reasoning_attack(surface)
    verdict = verify_mapping(result, truth)
    print(
        f"reasoning attack: {result.total_queries} oracle queries, "
        f"{result.total_guesses} guesses, {result.total_seconds * 1e3:.0f} ms "
        f"-> mapping recovered: {verdict.exact}"
    )

    # 5. The fix: lock the encoder with a 2-layer HDLock key, retrain.
    system, locked_training = lock_model(
        encoder,
        dataset.train_x,
        dataset.train_y,
        n_classes=dataset.n_classes,
        layers=2,
        binary=True,
        retrain_epochs=2,
        rng=SEED + 3,
    )
    locked_accuracy = locked_training.model.score(
        dataset.test_x, dataset.test_y
    )
    print(
        f"HDLock (L=2, P={system.pool_size}): test accuracy "
        f"{locked_accuracy:.3f} (no loss), key of "
        f"{system.key.storage_bits()} bits in tamper-proof memory"
    )


if __name__ == "__main__":
    main()
