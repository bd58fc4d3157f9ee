"""Experiment Fig. 3: guess-distance profile on an unprotected model.

The paper's proof-of-concept: an MNIST-shaped encoder, an adversarial
input with pixel 1 white and everything else black, and the Hamming
distance of all 784 feature-hypervector guesses to the observed output.
The paper plants the correct candidate at pool position 400; here the
publish shuffle decides the position and the ground truth records it.
Expected shape: the correct guess sits well below every wrong guess
(paper: ~0.004 vs ~0.02 at ``D = 10,000``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.attack.feature_extraction import guess_distance_series
from repro.attack.threat_model import expose_model
from repro.attack.value_extraction import extract_value_mapping
from repro.data.benchmarks import benchmark_spec
from repro.encoding.record import RecordEncoder
from repro.experiments.config import DEFAULT_SEED, ExperimentScale, active_scale
from repro.utils.rng import resolve_rng
from repro.utils.tables import render_table


@dataclass(frozen=True)
class Fig3Result:
    """Distance of every feature guess for the attacked pixel."""

    distances: np.ndarray
    correct_index: int
    attacked_feature: int
    binary: bool

    @property
    def correct_distance(self) -> float:
        """Distance of the correct guess (the dip in the figure)."""
        return float(self.distances[self.correct_index])

    @property
    def wrong_distances(self) -> np.ndarray:
        """Distances of all wrong guesses."""
        return np.delete(self.distances, self.correct_index)

    @property
    def separation(self) -> float:
        """Smallest wrong distance minus the correct distance (> 0 means
        the correct mapping is uniquely identifiable)."""
        return float(self.wrong_distances.min() - self.correct_distance)

    def to_dict(self) -> dict[str, Any]:
        """Stable artifact payload (full distance series included)."""
        return {
            "distances": np.asarray(self.distances, dtype=float).tolist(),
            "correct_index": int(self.correct_index),
            "attacked_feature": int(self.attacked_feature),
            "binary": bool(self.binary),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Fig3Result":
        """Inverse of :meth:`to_dict`."""
        return cls(
            distances=np.asarray(payload["distances"], dtype=float),
            correct_index=int(payload["correct_index"]),
            attacked_feature=int(payload["attacked_feature"]),
            binary=bool(payload["binary"]),
        )


def run_fig3(
    scale: ExperimentScale | None = None,
    seed: int = DEFAULT_SEED,
    binary: bool = True,
) -> Fig3Result:
    """Build the MNIST-shaped model, attack pixel 1, score all guesses."""
    cfg = scale or active_scale()
    spec = benchmark_spec("mnist")
    rng = resolve_rng(seed)
    encoder = RecordEncoder.random(spec.n_features, spec.levels, cfg.dim, rng)
    surface, truth = expose_model(encoder, binary=binary, rng=rng)
    value = extract_value_mapping(surface)
    distances = guess_distance_series(
        surface, value.level_order, feature=0, full_dim=True
    )
    return Fig3Result(
        distances=np.asarray(distances),
        correct_index=int(truth.feature_assignment[0]),
        attacked_feature=0,
        binary=binary,
    )


def render_fig3(result: Fig3Result) -> str:
    """Text rendering of the Fig. 3 series (summary statistics)."""
    wrong = result.wrong_distances
    rows = [
        ("correct guess", f"{result.correct_distance:.5f}"),
        ("wrong guesses: min", f"{wrong.min():.5f}"),
        ("wrong guesses: mean", f"{wrong.mean():.5f}"),
        ("wrong guesses: max", f"{wrong.max():.5f}"),
        ("separation (min wrong - correct)", f"{result.separation:.5f}"),
        ("candidates tried", str(result.distances.size)),
    ]
    flavor = "binary" if result.binary else "non-binary"
    return render_table(
        ["quantity", "value"],
        rows,
        title=(
            f"Fig. 3 — guess distances, {flavor} MNIST-shaped model "
            f"(correct candidate at pool row {result.correct_index})"
        ),
    )
