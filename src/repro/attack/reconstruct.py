"""Model reconstruction from a stolen mapping (paper Table 1).

Once the reasoning attack recovers the index mapping, the adversary owns
a functionally identical encoding module: re-indexing the public pools
by the recovered assignment reproduces the victim's feature and level
memories exactly. Training class hypervectors through the cloned encoder
then yields the "Recovered Accuracy" column of Table 1 — matching the
original model and demonstrating the IP is fully leaked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.pipeline import ReasoningResult
from repro.attack.threat_model import AttackSurface
from repro.data.synthetic import Dataset
from repro.encoding.record import RecordEncoder
from repro.memory.item_memory import FeatureMemory, LevelMemory
from repro.model.train import TrainingResult, train_model


def reconstruct_encoder(
    surface: AttackSurface, result: ReasoningResult
) -> RecordEncoder:
    """Build the attacker's clone of the victim encoding module."""
    feature_memory = FeatureMemory(
        surface.feature_pool[result.feature.assignment].copy()
    )
    level_memory = LevelMemory(surface.value_pool[result.value.level_order].copy())
    return RecordEncoder(feature_memory, level_memory)


@dataclass(frozen=True)
class TheftReport:
    """Accuracy comparison between victim and cloned model (Table 1 row)."""

    original_accuracy: float
    recovered_accuracy: float

    @property
    def accuracy_gap(self) -> float:
        """Victim minus clone accuracy; ~0 when the theft succeeded."""
        return self.original_accuracy - self.recovered_accuracy


def evaluate_theft(
    original_accuracy: float,
    surface: AttackSurface,
    result: ReasoningResult,
    dataset: Dataset,
    binary: bool,
    retrain_epochs: int = 3,
) -> tuple[TheftReport, TrainingResult]:
    """Train a model through the cloned encoder and compare accuracies.

    Mirrors the paper's evaluation: the attacker has (or collects)
    training data, so the question is purely whether the stolen encoding
    module supports the same model quality as the original.
    """
    clone = reconstruct_encoder(surface, result)
    training = train_model(
        clone,
        dataset.train_x,
        dataset.train_y,
        n_classes=dataset.n_classes,
        binary=binary,
        retrain_epochs=retrain_epochs,
    )
    recovered = training.model.score(dataset.test_x, dataset.test_y)
    return (
        TheftReport(
            original_accuracy=float(original_accuracy),
            recovered_accuracy=float(recovered),
        ),
        training,
    )
