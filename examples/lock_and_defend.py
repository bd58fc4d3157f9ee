"""Defending with HDLock (Sec. 4): lock, validate, and price the key.

Shows the defender's workflow end to end: retrofit a 2-layer lock onto
an existing model, demonstrate the old attack collapses, run the paper's
Sec. 4.2 worst-case validation (three key parameters leaked, one swept),
and print the security/latency trade-off table for choosing L.

    python examples/lock_and_defend.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    RecordEncoder,
    expose_locked_model,
    load_benchmark,
    lock_model,
    sweep_parameter,
    train_model,
)
from repro.attack import as_attack_surface, guess_distance_series
from repro.attack.complexity import reasoning_seconds_estimate
from repro.hdlock import render_tradeoff_table, tradeoff_table

DIM = 2048
SEED = 23


def main() -> None:
    dataset = load_benchmark("ucihar", rng=SEED, sample_scale=0.2)
    plain = RecordEncoder.random(
        dataset.n_features, dataset.levels, DIM, rng=SEED
    )
    baseline = train_model(
        plain,
        dataset.train_x,
        dataset.train_y,
        n_classes=dataset.n_classes,
        binary=True,
        retrain_epochs=2,
    )
    baseline_accuracy = baseline.model.score(dataset.test_x, dataset.test_y)
    print(f"unprotected model accuracy: {baseline_accuracy:.3f}")

    # Lock with a two-layer key and retrain the class memory under it.
    system, locked_training = lock_model(
        plain,
        dataset.train_x,
        dataset.train_y,
        n_classes=dataset.n_classes,
        layers=2,
        binary=True,
        retrain_epochs=2,
        rng=SEED + 1,
    )
    locked_accuracy = locked_training.model.score(
        dataset.test_x, dataset.test_y
    )
    print(
        f"locked model accuracy:      {locked_accuracy:.3f} "
        f"(L={system.layers}, P={system.pool_size}, "
        f"key={system.key.storage_bits()} bits)"
    )

    # The Sec. 3 attack loses its signal against the locked deployment.
    surface, _secure = expose_locked_model(system.encoder, binary=True)
    series = guess_distance_series(
        as_attack_surface(surface), np.arange(dataset.levels), feature=0
    )
    print(
        f"\nold attack vs locked model: best candidate scores "
        f"{series.min():.3f} (chance ~0.5 on the support; no dip, "
        f"no mapping)"
    )

    # Worst case (Sec. 4.2): everything but one parameter has leaked.
    sweep = sweep_parameter(
        surface, system.key, "rotation", layer=0, max_wrong=400
    )
    per_guess = 1e-6  # an optimistic attacker: 1 us per guess
    guesses = surface.dim * surface.pool_size  # remaining single param
    print(
        f"sweeping the one unknown rotation: correct scores "
        f"{sweep.correct_score:.3f}, best wrong {sweep.scores[1:].min():.3f} "
        f"— detectable, but that was 1 of {guesses:,} states for ONE "
        f"parameter of ONE feature"
    )
    from repro.attack.complexity import hdlock_total_guesses

    total = hdlock_total_guesses(
        dataset.n_features, surface.dim, surface.pool_size, 2
    )
    years = reasoning_seconds_estimate(total, per_guess) / (365 * 24 * 3600)
    print(
        f"full key search: {total:.2e} guesses ~= {years:.1e} years at "
        f"{per_guess * 1e6:.0f} us/guess"
    )

    # Choosing L: the defender's trade-off table (paper Sec. 5.2).
    print()
    print(
        render_tradeoff_table(
            tradeoff_table(
                dataset.n_features, 10_000, dataset.n_features, range(1, 6)
            )
        )
    )


if __name__ == "__main__":
    main()
