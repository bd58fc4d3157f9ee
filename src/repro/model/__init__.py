"""HDC classification model: training, retraining and inference."""

from repro.model.classifier import HDClassifier
from repro.model.train import TrainingResult, train_model

__all__ = [
    "HDClassifier",
    "train_model",
    "TrainingResult",
]
