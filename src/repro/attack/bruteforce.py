"""Exhaustive-permutation baseline for the feature-mapping attack.

The paper contrasts its divide-and-conquer strategy with brute force:
guessing the whole feature mapping at once means searching ``N!``
permutations, infeasible beyond toy sizes. This module implements that
baseline for small ``N`` so tests can confirm the divide-and-conquer
result coincides with the global optimum, and so the complexity gap
(``N!`` vs ``N^2``) is demonstrable rather than asserted. It attacks
the unprotected Sec. 3 model and is unrelated to the arena's
``bruteforce`` strategy, the single-layer HDLock key sweep of
:class:`repro.arena.attackers.BruteForceSweeper`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.attack.feature_extraction import CandidateTable, crafted_responses
from repro.attack.threat_model import AttackSurface
from repro.errors import ConfigurationError

#: Hard cap on N! enumeration (8! = 40,320 scored permutations).
MAX_BRUTEFORCE_FEATURES = 8


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive permutation search."""

    assignment: np.ndarray
    total_score: float
    permutations_tried: int


def score_matrix(surface: AttackSurface, level_order: np.ndarray) -> np.ndarray:
    """``(N, N)`` matrix: score of candidate ``j`` for feature ``i``.

    Row ``i`` uses the same crafted query as the divide-and-conquer
    attack, sent in the same blocks (:func:`crafted_responses`); lower
    is better in both model flavors (the table returns ``1 - cosine``
    for non-binary surfaces).
    """
    order = np.asarray(level_order)
    table = CandidateTable(
        surface.feature_pool,
        surface.value_pool[order[0]],
        surface.value_pool[order[-1]],
        binary=surface.binary,
    )
    all_candidates = np.arange(surface.n_features)
    return np.concatenate(
        [
            table.score(responses, all_candidates)
            for responses in crafted_responses(surface)
        ]
    )


def exhaustive_mapping_attack(
    surface: AttackSurface, level_order: np.ndarray
) -> BruteForceResult:
    """Search all ``N!`` feature assignments for the minimum total score."""
    n = surface.n_features
    if n > MAX_BRUTEFORCE_FEATURES:
        raise ConfigurationError(
            f"brute force over {n}! permutations refused "
            f"(limit N <= {MAX_BRUTEFORCE_FEATURES}); use the "
            f"divide-and-conquer attack instead"
        )
    scores = score_matrix(surface, level_order)
    best_perm: tuple[int, ...] | None = None
    best_score = math.inf
    tried = 0
    for perm in itertools.permutations(range(n)):
        tried += 1
        total = float(scores[np.arange(n), perm].sum())
        if total < best_score:
            best_score = total
            best_perm = perm
    assert best_perm is not None  # n >= 1 guarantees one permutation
    return BruteForceResult(
        assignment=np.array(best_perm, dtype=np.int64),
        total_score=best_score,
        permutations_tried=tried,
    )
