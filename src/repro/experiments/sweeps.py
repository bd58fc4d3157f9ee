"""Parameter-sweep experiments beyond the paper's figures.

Two sweeps that quantify the operating envelope of the Sec. 3 attack:

* :func:`recovery_vs_dim` — feature-mapping recovery rate as ``D``
  shrinks relative to ``N``. The binary attack's margin is the gap
  between the sign-tie error floor and the wrong-guess band; both are
  set by binomial concentration, so recovery degrades once ``D`` stops
  dominating ``N``. This is the quantitative version of the reduced-
  scale caveat in EXPERIMENTS.md (binary FACE at 98.8 %).
* :func:`margin_vs_features` — the Fig. 3 dip (correct-to-best-wrong
  separation) as the model widens at fixed ``D``: more features mean a
  larger bundle, a smaller per-constituent advantage
  (:mod:`repro.hv.capacity`), and a thinner margin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.attack.pipeline import run_reasoning_attack, verify_mapping
from repro.attack.threat_model import expose_model
from repro.attack.value_extraction import extract_value_mapping
from repro.attack.feature_extraction import guess_distance_series
from repro.encoding.record import RecordEncoder
from repro.experiments.config import DEFAULT_SEED, ExperimentScale
from repro.utils.rng import derive_seed
from repro.utils.tables import render_table


@dataclass(frozen=True)
class RecoveryPoint:
    """Mapping-recovery quality of one (N, D) attack run."""

    n_features: int
    dim: int
    feature_accuracy: float
    value_accuracy: float
    median_margin: float


def recovery_vs_dim(
    dims: Sequence[int] = (256, 512, 1024, 2048),
    n_features: int = 96,
    levels: int = 8,
    binary: bool = True,
    seed: int = DEFAULT_SEED,
) -> list[RecoveryPoint]:
    """Attack one model per ``D`` and record recovery quality."""
    points = []
    for dim in dims:
        run_seed = derive_seed(seed, "recovery", dim)
        encoder = RecordEncoder.random(n_features, levels, dim, run_seed)
        surface, truth = expose_model(encoder, binary=binary, rng=run_seed)
        result = run_reasoning_attack(surface)
        verdict = verify_mapping(result, truth)
        finite = result.feature.margins[np.isfinite(result.feature.margins)]
        points.append(
            RecoveryPoint(
                n_features=n_features,
                dim=dim,
                feature_accuracy=verdict.feature_accuracy,
                value_accuracy=verdict.value_accuracy,
                median_margin=float(np.median(finite)) if finite.size else 0.0,
            )
        )
    return points


@dataclass(frozen=True)
class MarginPoint:
    """Fig.-3-style separation of one (N, D) deployment."""

    n_features: int
    dim: int
    correct_distance: float
    best_wrong_distance: float

    @property
    def separation(self) -> float:
        """Best wrong minus correct; positive = dip present."""
        return self.best_wrong_distance - self.correct_distance


def margin_vs_features(
    feature_counts: Sequence[int] = (64, 128, 256, 512),
    dim: int = 2048,
    levels: int = 8,
    seed: int = DEFAULT_SEED,
) -> list[MarginPoint]:
    """Measure the guess-distance dip as the model widens at fixed D."""
    points = []
    for n in feature_counts:
        run_seed = derive_seed(seed, "margin", n)
        encoder = RecordEncoder.random(n, levels, dim, run_seed)
        surface, truth = expose_model(encoder, binary=True, rng=run_seed)
        value = extract_value_mapping(surface)
        series = guess_distance_series(surface, value.level_order, feature=0)
        correct = truth.feature_assignment[0]
        wrong = np.delete(series, correct)
        points.append(
            MarginPoint(
                n_features=n,
                dim=dim,
                correct_distance=float(series[correct]),
                best_wrong_distance=float(wrong.min()),
            )
        )
    return points


@dataclass(frozen=True)
class SweepsResult:
    """Both operating-envelope sweeps, bundled for the runner."""

    recovery: list[RecoveryPoint]
    margins: list[MarginPoint]

    def to_dict(self) -> dict[str, Any]:
        """Stable artifact payload."""
        return {
            "recovery": [asdict(p) for p in self.recovery],
            "margins": [asdict(p) for p in self.margins],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepsResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            recovery=[RecoveryPoint(**p) for p in payload["recovery"]],
            margins=[MarginPoint(**p) for p in payload["margins"]],
        )

    def render(self) -> str:
        """Delegates to the two-table renderer."""
        return render_sweeps(self.recovery, self.margins)


def run_sweeps(
    scale: ExperimentScale | None = None,
    seed: int = DEFAULT_SEED,
) -> SweepsResult:
    """Run both sweeps (they pick their own (N, D) grids)."""
    del scale
    return SweepsResult(
        recovery=recovery_vs_dim(seed=seed),
        margins=margin_vs_features(seed=seed),
    )


def render_sweeps(
    recovery: list[RecoveryPoint], margins: list[MarginPoint]
) -> str:
    """Text rendering of both sweeps."""
    table_a = render_table(
        ["D", "feature recovery", "value recovery", "median margin"],
        [
            (
                p.dim,
                f"{p.feature_accuracy:.1%}",
                f"{p.value_accuracy:.1%}",
                f"{p.median_margin:.4f}",
            )
            for p in recovery
        ],
        title=(
            f"Recovery vs dimensionality (binary, N={recovery[0].n_features})"
            if recovery
            else "Recovery vs dimensionality"
        ),
    )
    table_b = render_table(
        ["N", "correct score", "best wrong", "separation"],
        [
            (
                p.n_features,
                f"{p.correct_distance:.4f}",
                f"{p.best_wrong_distance:.4f}",
                f"{p.separation:.4f}",
            )
            for p in margins
        ],
        title=(
            f"Guess-dip margin vs model width (binary, D={margins[0].dim})"
            if margins
            else "Guess-dip margin vs model width"
        ),
    )
    return "\n\n".join([table_a, table_b])
