"""Walkthrough of the paper's reasoning attack (Sec. 3) step by step.

Reproduces the attack narrative against an MNIST-shaped model at reduced
dimensionality, printing what the adversary sees at each stage —
including the Fig. 3 guess-distance dip for the first attacked pixel.

    python examples/steal_unprotected_model.py
"""

from __future__ import annotations

import numpy as np

from repro import RecordEncoder, expose_model, load_benchmark, train_model
from repro.attack import (
    evaluate_theft,
    extract_feature_mapping,
    extract_value_mapping,
    find_extreme_pair,
    guess_distance_series,
    verify_mapping,
)
from repro.attack.pipeline import ReasoningResult
from repro.utils.timer import Timer

DIM = 2048
SEED = 11


def main() -> None:
    dataset = load_benchmark("mnist", rng=SEED, sample_scale=0.15)
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
    original = training.model.score(dataset.test_x, dataset.test_y)
    print(f"victim model: MNIST shape, accuracy {original:.3f}")

    surface, truth = expose_model(encoder, binary=True, rng=SEED + 1)

    # --- Step 1: value hypervector extraction -------------------------
    i, j = find_extreme_pair(surface.value_pool)
    print(
        f"\nstep 1 — the published value pool betrays its extremes: rows "
        f"{i} and {j} are mutually orthogonal, all others lie between"
    )
    with Timer() as t_value:
        value = extract_value_mapping(surface)
    chosen, rejected = value.extreme_distances
    print(
        f"  one all-minimum query factors ValHV_1 out (Eq. 5-6): "
        f"estimate at Hamming {chosen:.3f} from the true extreme vs "
        f"{rejected:.3f} from the wrong one"
    )
    print(f"  full level order recovered in {t_value.elapsed * 1e3:.1f} ms")

    # --- Fig. 3 detour: what one feature sweep looks like -------------
    series = guess_distance_series(
        surface, value.level_order, feature=0, full_dim=True
    )
    correct = truth.feature_assignment[0]
    wrong = np.delete(series, correct)
    print(
        f"\nFig. 3 — attacking pixel 1: correct candidate (pool row "
        f"{correct}) scores {series[correct]:.4f}; wrong guesses span "
        f"[{wrong.min():.4f}, {wrong.max():.4f}]"
    )

    # --- Step 2: feature hypervector extraction -----------------------
    with Timer() as t_feature:
        feature = extract_feature_mapping(surface, value.level_order)
    print(
        f"\nstep 2 — divide and conquer over {feature.guesses} guesses "
        f"({feature.queries} crafted queries) in {t_feature.elapsed:.2f} s"
    )

    result = ReasoningResult(
        value=value,
        feature=feature,
        value_seconds=t_value.elapsed,
        feature_seconds=t_feature.elapsed,
    )
    verdict = verify_mapping(result, truth)
    print(
        f"  mapping recovered: values {verdict.value_accuracy:.1%}, "
        f"features {verdict.feature_accuracy:.1%}"
    )

    # --- The theft, quantified (Table 1) -------------------------------
    report, _ = evaluate_theft(original, surface, result, dataset, binary=True)
    print(
        f"\nreconstructed model accuracy {report.recovered_accuracy:.3f} vs "
        f"original {report.original_accuracy:.3f} — the IP is fully stolen"
    )


if __name__ == "__main__":
    main()
