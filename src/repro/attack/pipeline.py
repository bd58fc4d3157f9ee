"""End-to-end reasoning attack: value step, feature step, verdict.

This is the orchestration measured in paper Table 1 ("Reasoning Time"):
given only the attack surface (public pools + oracle), recover the whole
index mapping and time both phases. Verification against ground truth is
a separate owner-side function so the attack itself stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.feature_extraction import (
    FeatureExtractionResult,
    extract_feature_mapping,
)
from repro.attack.threat_model import AttackSurface, GroundTruth
from repro.attack.value_extraction import ValueExtractionResult, extract_value_mapping
from repro.utils.timer import Timer


@dataclass(frozen=True)
class ReasoningResult:
    """Complete output of the reasoning attack on one deployed model."""

    value: ValueExtractionResult
    feature: FeatureExtractionResult
    value_seconds: float
    feature_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end reasoning time (the Table 1 metric)."""
        return self.value_seconds + self.feature_seconds

    @property
    def total_queries(self) -> int:
        """Oracle queries spent: 1 (value step) + N (feature step)."""
        return self.value.queries + self.feature.queries

    @property
    def total_guesses(self) -> int:
        """Candidate evaluations spent in the divide-and-conquer sweep."""
        return self.feature.guesses


def run_reasoning_attack(surface: AttackSurface) -> ReasoningResult:
    """Execute both extraction steps against ``surface`` and time them."""
    with Timer() as value_timer:
        value = extract_value_mapping(surface)
    with Timer() as feature_timer:
        feature = extract_feature_mapping(surface, value.level_order)
    return ReasoningResult(
        value=value,
        feature=feature,
        value_seconds=value_timer.elapsed,
        feature_seconds=feature_timer.elapsed,
    )


@dataclass(frozen=True)
class MappingVerdict:
    """Owner-side comparison of a recovered mapping against ground truth."""

    value_accuracy: float
    feature_accuracy: float

    @property
    def exact(self) -> bool:
        """True when every value level and feature index was recovered."""
        return self.value_accuracy == 1.0 and self.feature_accuracy == 1.0


def verify_mapping(result: ReasoningResult, truth: GroundTruth) -> MappingVerdict:
    """Fraction of value levels / feature indices recovered correctly."""
    value_ok = np.mean(result.value.level_order == truth.value_assignment)
    feature_ok = np.mean(result.feature.assignment == truth.feature_assignment)
    return MappingVerdict(
        value_accuracy=float(value_ok), feature_accuracy=float(feature_ok)
    )
