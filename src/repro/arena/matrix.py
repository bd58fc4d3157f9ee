"""One arena cell: run the duel, then judge it from the owner's side.

The attacker reports *beliefs* (:class:`~repro.attack.protocol.AttackOutcome`);
only the owner holds ground truth (the derived feature matrix of the
deployed encoder). :func:`evaluate_outcome` compares each committed
guess's derived hypervector against the truth by normalized Hamming
distance — the same metric for every strategy, however the guess was
found — and counts a feature *recovered* only below
:data:`RECOVERY_THRESHOLD`. Abstentions and features the attacker never
reached (lockout, exhausted budget) score at chance, so "gave up" and
"wrong" are both visible in ``key_distance`` while only genuinely
recovered features move ``features_recovered``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arena.defenders import DeployedDefense
from repro.attack.countermeasures import OracleLockoutError
from repro.attack.protocol import AttackBudget, AttackOutcome, Attacker
from repro.errors import AttackError
from repro.hdlock.feature_factory import derive_feature_hv

__all__ = [
    "RECOVERY_THRESHOLD",
    "CellEvaluation",
    "duel",
    "evaluate_outcome",
]

#: Normalized Hamming distance below which a derived guess counts as the
#: true feature hypervector. Correct guesses score exactly 0; wrong
#: single-layer guesses concentrate around 0.5 with σ ≈ 1/(2·sqrt(D)),
#: so 0.05 is > 40σ from the wrong-guess distribution at D = 2048.
RECOVERY_THRESHOLD = 0.05

#: Distance charged for features with no committed guess (abstention,
#: lockout, exhausted budget): chance level.
CHANCE_DISTANCE = 0.5


@dataclass(frozen=True)
class CellEvaluation:
    """Owner-side judgement of one attack outcome."""

    #: Features the budget put in scope (the denominator).
    features_attacked: int
    #: Committed guesses whose derived HV matched below threshold.
    features_recovered: int
    #: Mean normalized Hamming distance over attacked features.
    key_distance: float

    @property
    def success_rate(self) -> float:
        """Recovered fraction of the attacked features."""
        if self.features_attacked == 0:
            return 0.0
        return self.features_recovered / self.features_attacked


def evaluate_outcome(
    truth_matrix: np.ndarray,
    pool: np.ndarray,
    outcome: AttackOutcome,
    features: range,
) -> CellEvaluation:
    """Judge ``outcome`` against the deployed encoder's ground truth.

    ``truth_matrix`` is the owner's derived feature matrix
    (``encoder.feature_matrix``); ``features`` the budget's target range.
    Guesses outside ``features`` are ignored — strategies cannot earn
    credit beyond the cell's scope.
    """
    committed = {
        g.feature: g.subkey
        for g in outcome.guesses
        if g.subkey is not None and g.feature in features
    }
    attacked = len(features)
    if attacked == 0:
        return CellEvaluation(0, 0, 0.0)
    dim = pool.shape[1]
    recovered = 0
    total_distance = 0.0
    for feature in features:
        subkey = committed.get(feature)
        if subkey is None:
            total_distance += CHANCE_DISTANCE
            continue
        derived = derive_feature_hv(pool, subkey)
        distance = np.count_nonzero(derived != truth_matrix[feature]) / dim
        total_distance += distance
        if distance < RECOVERY_THRESHOLD:
            recovered += 1
    return CellEvaluation(
        features_attacked=attacked,
        features_recovered=recovered,
        key_distance=total_distance / attacked,
    )


def duel(
    attacker: Attacker,
    defense: DeployedDefense,
    budget: AttackBudget,
    rng: np.random.Generator,
) -> AttackOutcome:
    """Run one attacker against one deployed defense.

    Strategies are expected to handle lockouts and degenerate
    observations themselves, but the arena must stay robust to
    third-party strategies that let them escape: a leaked
    :class:`OracleLockoutError` becomes a ``locked_out`` outcome and any
    other :class:`AttackError` an empty outcome with the failure noted,
    so one brittle strategy cannot take down a matrix run.
    """
    try:
        return attacker.run(defense.surface, budget, rng)
    except OracleLockoutError:
        return AttackOutcome(
            attacker=attacker.name,
            guesses=(),
            queries=defense.surface.oracle.n_queries,
            candidates_scored=0,
            locked_out=True,
            notes="lockout escaped the strategy",
        )
    except AttackError as exc:
        return AttackOutcome(
            attacker=attacker.name,
            guesses=(),
            queries=defense.surface.oracle.n_queries,
            candidates_scored=0,
            notes=f"attack error escaped the strategy: {exc}",
        )
