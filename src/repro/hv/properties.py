"""Statistical property checks for hypervector pools.

These helpers back the library's invariants (used heavily by the tests
and by :mod:`repro.experiments`):

* a feature/base pool must be quasi-orthogonal (Eq. 1a);
* a level memory must be linear (Eq. 1b) with orthogonal extremes;
* HDLock-derived feature HVs must remain quasi-orthogonal so accuracy is
  preserved (paper Sec. 5.2 / Fig. 8 argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hv.level import level_profile
from repro.hv.similarity import pairwise_hamming


@dataclass(frozen=True)
class OrthogonalityReport:
    """Summary of how close a pool is to pairwise orthogonality.

    ``max_abs_deviation`` is the worst ``|hamming - 0.5|`` over all pairs;
    for i.i.d. random bipolar HVs it concentrates near
    ``~4 / (2 sqrt(D))`` for pools of a few thousand rows.
    """

    pairs: int
    mean_distance: float
    std_distance: float
    max_abs_deviation: float

    def is_quasi_orthogonal(self, tolerance: float) -> bool:
        """True when every pair is within ``tolerance`` of 0.5."""
        return self.max_abs_deviation <= tolerance


def orthogonality_report(pool: np.ndarray) -> OrthogonalityReport:
    """Measure pairwise-orthogonality statistics of a ``(K, D)`` pool."""
    dist = pairwise_hamming(pool)
    iu = np.triu_indices(dist.shape[0], k=1)
    off_diag = dist[iu]
    if off_diag.size == 0:
        return OrthogonalityReport(0, 0.5, 0.0, 0.0)
    return OrthogonalityReport(
        pairs=int(off_diag.size),
        mean_distance=float(off_diag.mean()),
        std_distance=float(off_diag.std()),
        max_abs_deviation=float(np.abs(off_diag - 0.5).max()),
    )


@dataclass(frozen=True)
class LevelLinearityReport:
    """Fit of a level memory against the Eq. 1b straight line."""

    levels: int
    extreme_distance: float
    max_profile_error: float

    def is_linear(self, tolerance: float) -> bool:
        """True when the distance-to-level-0 profile deviates from the
        ideal line by at most ``tolerance`` at every level."""
        return self.max_profile_error <= tolerance


def level_linearity_report(level_matrix: np.ndarray) -> LevelLinearityReport:
    """Compare a level memory's distance profile to the ideal Eq. 1b line."""
    mat = np.asarray(level_matrix)
    m = mat.shape[0]
    profile = level_profile(mat)
    ideal = 0.5 * np.arange(m) / max(m - 1, 1)
    return LevelLinearityReport(
        levels=m,
        extreme_distance=float(profile[-1]),
        max_profile_error=float(np.abs(profile - ideal).max()),
    )
