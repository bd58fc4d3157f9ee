"""High-level training entry points used by the experiments.

Building a "well-performing HDC model" (the IP the paper defends)
involves one-shot accumulation plus a few retraining epochs — the
tuning the paper's introduction cites as part of the model's value.
:func:`train_model` packages that recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encoding.record import RecordEncoder
from repro.model.classifier import HDClassifier
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class TrainingResult:
    """A fitted classifier plus its training trajectory."""

    model: HDClassifier
    train_accuracy: float
    history: tuple[float, ...]


def train_model(
    encoder: RecordEncoder,
    train_x: np.ndarray,
    train_y: np.ndarray,
    n_classes: int,
    binary: bool = True,
    retrain_epochs: int = 3,
    rng: SeedLike = None,
) -> TrainingResult:
    """One-shot fit followed by ``retrain_epochs`` of refinement.

    The training batch is encoded exactly once and shared between the fit
    and every retraining epoch. Training is deterministic, so ``rng`` is
    unused; it is accepted only so existing callers keep working.
    """
    del rng
    model = HDClassifier(encoder, n_classes=n_classes, binary=binary)
    encoded = model.encode_training(train_x)
    model.fit(train_x, train_y, encoded=encoded)
    history = model.retrain(
        train_x, train_y, epochs=retrain_epochs, encoded=encoded
    )
    final = history[-1] if history else _train_accuracy(model, encoded, train_y)
    return TrainingResult(model=model, train_accuracy=final, history=tuple(history))


def _train_accuracy(
    model: HDClassifier, encoded: np.ndarray, labels: np.ndarray
) -> float:
    predictions = model._predict_encoded(encoded)
    return float(np.mean(predictions == np.asarray(labels)))
