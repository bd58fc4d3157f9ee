"""Built-in attacker strategies for the arena.

Four strategies spanning the threat-model spectrum:

* :class:`BruteForceSweeper` — the paper's exhaustive single-layer sweep
  (:func:`repro.attack.hdlock_attack.score_rotations` on the Eq. 11
  crafted pair, then :func:`~repro.attack.hdlock_attack.best_single_layer_guess`),
  committing to the argmin guess unconditionally;
* :class:`AdaptiveExtractor` — the same criterion and score matrix with
  an acceptance threshold: it commits only to a guess that separates and
  *abstains* when nothing does, trading recall for honesty;
* :class:`DifferentialProber` — an HDXplore-style blackbox differential
  strategy: random probe *pairs* differing in one feature, per-coordinate
  majority voting across pairs to see through binarization and privacy
  transforms, then candidate scoring against the voted estimate. Its
  probes look like ordinary traffic (no all-min/all-max structure), so it
  slips under the query monitor that locks out the crafted-pair attacks;
* :class:`PlainReasoningAdapter` — the Sec. 3 reasoning pipeline run
  unmodified against the locked surface, demonstrating that the lock
  defeats the attack HDLock was designed against.

The three sweeping strategies share one per-feature loop
(:class:`_FeatureSweep`) and differ only in their per-feature step.
Their thresholds and the prober's probe count are module constants:
the arena constructs every strategy with no arguments.

Every strategy observes the discipline of :class:`repro.attack.protocol`:
it touches only the blackbox surface, spends only budgeted queries,
derives randomness only from the ``rng`` argument, and reports
abstentions rather than junk guesses. :class:`OracleLockoutError` is
caught *inside* ``run`` — a lockout is a legitimate outcome
(``locked_out=True``), not a crash.
"""

from __future__ import annotations

import numpy as np

from repro.arena.registry import register_attacker
from repro.attack.countermeasures import OracleLockoutError
from repro.attack.hdlock_attack import (
    as_attack_surface,
    best_single_layer_guess,
    observe_difference,
    rotation_correlation,
    score_rotations,
)
from repro.attack.pipeline import run_reasoning_attack
from repro.attack.protocol import AttackBudget, AttackOutcome, FeatureGuess
from repro.attack.threat_model import LockedSurface
from repro.errors import AttackError
from repro.memory.key import SubKey

__all__ = [
    "ACCEPT_THRESHOLD",
    "DEFAULT_ATTACKERS",
    "AdaptiveExtractor",
    "BruteForceSweeper",
    "DifferentialProber",
    "PlainReasoningAdapter",
]

#: The built-in roster, in canonical matrix-column order. Explicit, so
#: third-party registrations never reorder existing artifacts.
DEFAULT_ATTACKERS: tuple[str, ...] = (
    "bruteforce",
    "adaptive",
    "differential-prober",
    "plain-reasoning",
)

#: Score at which an abstention is reported: chance level for both the
#: binary Hamming criterion and the ``1 - cosine`` criterion.
CHANCE_SCORE = 0.5

#: Crafted-pair score at or below which :class:`AdaptiveExtractor`
#: accepts a single-layer guess (correct guesses score ~0 Hamming /
#: ~0 ``1 - cosine``; wrong ones ~0.5).
ACCEPT_THRESHOLD = 0.12

#: Random probe pairs :class:`DifferentialProber` spends per feature.
PROBES = 16

#: Total vote magnitude below which the prober abstains without scoring.
MIN_EVIDENCE = 128

#: Vote-correlation score at or below which the prober commits.
PROBER_ACCEPT_THRESHOLD = 0.25


class _FeatureSweep:
    """The per-feature attack loop the sweeping strategies share.

    For each feature in the budget's scope: stop when the budget cannot
    pay :attr:`queries_per_feature` more queries, run the strategy's
    :meth:`_attack_feature` step, and stop the run on a lockout. Any
    other :class:`AttackError` (the crafted pair exposing nothing) is an
    abstention at chance. The lockout is caught first because
    :class:`OracleLockoutError` is itself an :class:`AttackError`.
    """

    name = ""
    queries_per_feature = 2

    def _attack_feature(
        self, surface: LockedSurface, feature: int, rng: np.random.Generator
    ) -> tuple[FeatureGuess, int]:
        """One feature's guess and the number of candidates it scored."""
        raise NotImplementedError

    def run(
        self,
        surface: LockedSurface,
        budget: AttackBudget,
        rng: np.random.Generator,
    ) -> AttackOutcome:
        guesses: list[FeatureGuess] = []
        candidates = 0
        locked_out = False
        notes = ""
        for feature in budget.features(surface):
            if not budget.allows_queries(surface.oracle, self.queries_per_feature):
                notes = "query budget exhausted"
                break
            try:
                guess, scored = self._attack_feature(surface, feature, rng)
            except OracleLockoutError:
                locked_out = True
                break
            except AttackError:
                guess, scored = FeatureGuess(feature, None, CHANCE_SCORE), 0
            guesses.append(guess)
            candidates += scored
        return AttackOutcome(
            attacker=self.name,
            guesses=tuple(guesses),
            queries=surface.oracle.n_queries,
            candidates_scored=candidates,
            locked_out=locked_out,
            notes=notes,
        )


@register_attacker
class BruteForceSweeper(_FeatureSweep):
    """Exhaustive single-layer sweep; always commits to the argmin."""

    name = "bruteforce"

    def _attack_feature(
        self, surface: LockedSurface, feature: int, rng: np.random.Generator
    ) -> tuple[FeatureGuess, int]:
        scores = score_rotations(surface, observe_difference(surface, feature))
        subkey, score = best_single_layer_guess(scores)
        return FeatureGuess(feature, subkey, score), scores.size


@register_attacker
class AdaptiveExtractor(_FeatureSweep):
    """Threshold-gated sweep.

    Same Eq. 11/13 criterion and the same full ``(P, D)`` score matrix
    as the brute-force sweep, but it commits only to a guess that clears
    :data:`ACCEPT_THRESHOLD` and abstains otherwise — the honest reading
    of the paper's ``L >= 2`` argument (on a two-layer key no
    single-layer candidate separates, and this strategy says so instead
    of guessing).
    """

    name = "adaptive"

    def _attack_feature(
        self, surface: LockedSurface, feature: int, rng: np.random.Generator
    ) -> tuple[FeatureGuess, int]:
        scores = score_rotations(surface, observe_difference(surface, feature))
        subkey, score = best_single_layer_guess(scores)
        committed = subkey if score <= ACCEPT_THRESHOLD else None
        return FeatureGuess(feature, committed, score), scores.size


@register_attacker
class DifferentialProber(_FeatureSweep):
    """Blackbox differential prober with weighted per-coordinate voting.

    For each targeted feature it queries :data:`PROBES` random input
    *pairs* that differ only in that feature. Writing
    ``diff = E(x_1) - E(x_2)`` and ``v_delta = ValHV_a - ValHV_b`` for
    the two probed levels, on every coordinate where both are nonzero
    ``sign(diff) * sign(v_delta) = FeaHV_f`` exactly (all other features'
    contributions cancel in the subtraction; binarization only thins
    which coordinates show a flip). Each pair therefore casts a ±1 vote
    per flipped coordinate; every single-layer candidate is scored by
    its vote-magnitude weighted correlation with the tally (one
    :func:`~repro.attack.hdlock_attack.rotation_correlation` pass), so a
    coordinate flipped by many probes outweighs a one-off flip. That
    voting is what the one-shot crafted-pair criterion lacks — and
    unlike the crafted Eq. 11 pair, the probes are uniform random
    inputs, indistinguishable from benign traffic to a
    concentration-based query monitor.
    """

    name = "differential-prober"
    queries_per_feature = 2 * PROBES

    def _attack_feature(
        self, surface: LockedSurface, feature: int, rng: np.random.Generator
    ) -> tuple[FeatureGuess, int]:
        votes = self._probe_feature(surface, feature, rng)
        weight_mass = float(np.abs(votes).sum())
        if weight_mass < MIN_EVIDENCE:
            # Too little flip evidence to separate the candidate space —
            # committing here would be guessing on noise.
            return FeatureGuess(feature, None, CHANCE_SCORE), 0
        # Score (1 - c) / 2 for weighted vote correlation c: 0 for
        # perfect agreement, 0.5 at chance, on the same lower-is-better
        # scale as every other arena criterion.
        correlations = rotation_correlation(surface.base_pool, votes) / weight_mass
        scores = (1.0 - correlations) / 2.0
        subkey, score = best_single_layer_guess(scores)
        committed = subkey if score <= PROBER_ACCEPT_THRESHOLD else None
        return FeatureGuess(feature, committed, score), scores.size

    @staticmethod
    def _probe_feature(
        surface: LockedSurface, feature: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Tally per-coordinate votes on ``sign(FeaHV_feature)``."""
        levels = surface.levels
        value = surface.value_matrix.astype(np.int64)
        votes = np.zeros(surface.dim, dtype=np.int64)
        for _ in range(PROBES):
            base = rng.integers(0, levels, size=surface.n_features)
            level_a = int(base[feature])
            level_b = int((level_a + 1 + rng.integers(levels - 1)) % levels)
            pair = base.copy()
            pair[feature] = level_b
            diff = surface.oracle.query(base).astype(np.int64) - surface.oracle.query(
                pair
            ).astype(np.int64)
            v_delta = value[level_a] - value[level_b]
            mask = (diff != 0) & (v_delta != 0)
            votes[mask] += np.sign(diff[mask]) * np.sign(v_delta[mask])
        return votes


@register_attacker
class PlainReasoningAdapter:
    """The Sec. 3 reasoning pipeline run unmodified against the lock.

    Treats the locked surface as if it were an unprotected record
    encoder (:func:`repro.attack.hdlock_attack.as_attack_surface`) and
    runs :func:`repro.attack.pipeline.run_reasoning_attack`. On a locked
    deployment the value-extraction margin collapses and the pipeline
    aborts after a handful of queries — reported here as a full-board
    failure, which is precisely the baseline the lock is measured
    against. Its recovered "subkeys" are pool rows with no rotation
    (the Sec. 3 model has none).
    """

    name = "plain-reasoning"

    def run(
        self,
        surface: LockedSurface,
        budget: AttackBudget,
        rng: np.random.Generator,
    ) -> AttackOutcome:
        plain = as_attack_surface(surface)
        try:
            result = run_reasoning_attack(plain)
        except OracleLockoutError:
            return AttackOutcome(
                attacker=self.name,
                guesses=(),
                queries=surface.oracle.n_queries,
                candidates_scored=0,
                locked_out=True,
            )
        except AttackError as exc:
            return AttackOutcome(
                attacker=self.name,
                guesses=(),
                queries=surface.oracle.n_queries,
                candidates_scored=0,
                notes=f"collapsed: {exc}",
            )
        guesses = tuple(
            FeatureGuess(
                feature,
                SubKey((int(result.feature.assignment[feature]),), (0,)),
                0.0,
            )
            for feature in budget.features(surface)
        )
        return AttackOutcome(
            attacker=self.name,
            guesses=guesses,
            queries=surface.oracle.n_queries,
            candidates_scored=result.total_guesses,
        )
