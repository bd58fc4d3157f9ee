"""Built-in attacker strategies for the arena.

Four strategies spanning the threat-model spectrum:

* :class:`BruteForceSweeper` — the paper's exhaustive single-layer sweep
  (:func:`repro.attack.adaptive.best_single_layer_guess`), committing to
  the argmin guess unconditionally;
* :class:`AdaptiveExtractor` — the same criterion with a per-index early
  exit and an acceptance threshold: it stops scoring once a guess
  separates and *abstains* when nothing does, trading recall for honesty
  (and far fewer candidate evaluations on undefended ``L = 1`` cells);
* :class:`DifferentialProber` — an HDXplore-style blackbox differential
  strategy: random probe *pairs* differing in one feature, per-coordinate
  majority voting across pairs to see through binarization and privacy
  transforms, then candidate scoring against the voted estimate. Its
  probes look like ordinary traffic (no all-min/all-max structure), so it
  slips under the query monitor that locks out the crafted-pair attacks;
* :class:`PlainReasoningAdapter` — the Sec. 3 reasoning pipeline run
  unmodified against the locked surface, demonstrating that the lock
  defeats the attack HDLock was designed against.

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
from repro.attack.adaptive import (
    ACCEPT_THRESHOLD,
    best_single_layer_guess,
    score_rotations,
)
from repro.attack.countermeasures import OracleLockoutError
from repro.attack.hdlock_attack import (
    as_attack_surface,
    observe_difference,
    rotation_correlation,
)
from repro.attack.pipeline import run_reasoning_attack
from repro.attack.protocol import AttackBudget, AttackOutcome, FeatureGuess
from repro.attack.threat_model import LockedSurface
from repro.errors import AttackError, ConfigurationError
from repro.memory.key import SubKey

__all__ = [
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


@register_attacker
class BruteForceSweeper:
    """Exhaustive single-layer sweep; always commits to the argmin."""

    name = "bruteforce"

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
            if not budget.allows_queries(surface.oracle, 2):
                notes = "query budget exhausted"
                break
            try:
                observation = observe_difference(surface, feature)
            except OracleLockoutError:
                locked_out = True
                break
            except AttackError:
                guesses.append(FeatureGuess(feature, None, CHANCE_SCORE))
                continue
            subkey, score, spent = best_single_layer_guess(
                surface,
                feature,
                observation=observation,
                max_candidates=budget.max_candidates,
            )
            candidates += spent
            guesses.append(FeatureGuess(feature, subkey, score))
        return AttackOutcome(
            attacker=self.name,
            guesses=tuple(guesses),
            queries=surface.oracle.n_queries,
            candidates_scored=candidates,
            locked_out=locked_out,
            notes=notes,
        )


@register_attacker
class AdaptiveExtractor:
    """Threshold-gated sweep with per-index early exit.

    Same Eq. 11/13 criterion as the brute-force sweep, but it stops
    scoring the moment a candidate clears ``accept_threshold`` and
    abstains when none does — the honest reading of the paper's
    ``L >= 2`` argument (on a two-layer key no single-layer candidate
    separates, and this strategy says so instead of guessing).
    """

    name = "adaptive"

    def __init__(self, accept_threshold: float = ACCEPT_THRESHOLD) -> None:
        self.accept_threshold = float(accept_threshold)

    def run(
        self,
        surface: LockedSurface,
        budget: AttackBudget,
        rng: np.random.Generator,
    ) -> AttackOutcome:
        dim = surface.dim
        guesses: list[FeatureGuess] = []
        candidates = 0
        locked_out = False
        notes = ""
        for feature in budget.features(surface):
            if not budget.allows_queries(surface.oracle, 2):
                notes = "query budget exhausted"
                break
            try:
                observation = observe_difference(surface, feature)
            except OracleLockoutError:
                locked_out = True
                break
            except AttackError:
                guesses.append(FeatureGuess(feature, None, CHANCE_SCORE))
                continue
            scores = score_rotations(surface, observation)
            # The early exit stops after the first index whose best
            # rotation clears the threshold; only indices up to it count
            # as scored, and the guess is the best among them.
            cleared = np.flatnonzero(scores.min(axis=1) <= self.accept_threshold)
            visited = int(cleared[0]) + 1 if cleared.size else surface.pool_size
            candidates += visited * dim
            index, rotation = divmod(int(np.argmin(scores[:visited])), dim)
            best_score = float(scores[index, rotation])
            if best_score <= self.accept_threshold:
                best = SubKey((index,), (rotation,))
                guesses.append(FeatureGuess(feature, best, best_score))
            else:
                guesses.append(FeatureGuess(feature, None, best_score))
        return AttackOutcome(
            attacker=self.name,
            guesses=tuple(guesses),
            queries=surface.oracle.n_queries,
            candidates_scored=candidates,
            locked_out=locked_out,
            notes=notes,
        )


@register_attacker
class DifferentialProber:
    """Blackbox differential prober with weighted per-coordinate voting.

    For each targeted feature it queries ``probes`` random input *pairs*
    that differ only in that feature. Writing ``diff = E(x_1) - E(x_2)``
    and ``v_delta = ValHV_a - ValHV_b`` for the two probed levels, on
    every coordinate where both are nonzero
    ``sign(diff) * sign(v_delta) = FeaHV_f`` exactly (all other features'
    contributions cancel in the subtraction; binarization only thins
    which coordinates show a flip). Each pair therefore casts a ±1 vote
    per flipped coordinate; candidates are scored by the vote-magnitude
    weighted correlation against the tally, so a coordinate flipped by
    many probes outweighs a one-off flip. That voting is
    what the one-shot crafted-pair criterion lacks — and unlike the
    crafted Eq. 11 pair, the probes are uniform random inputs,
    indistinguishable from benign traffic to a concentration-based
    query monitor.
    """

    name = "differential-prober"

    def __init__(
        self,
        probes: int = 16,
        min_evidence: int = 128,
        max_candidates: int = 65536,
        accept_threshold: float = 0.25,
    ) -> None:
        if probes < 1:
            raise ConfigurationError(f"probes must be >= 1, got {probes}")
        self.probes = int(probes)
        if min_evidence < 1:
            raise ConfigurationError(
                f"min_evidence must be >= 1, got {min_evidence}"
            )
        self.min_evidence = int(min_evidence)
        if max_candidates < 1:
            raise ConfigurationError(
                f"max_candidates must be >= 1, got {max_candidates}"
            )
        self.max_candidates = int(max_candidates)
        self.accept_threshold = float(accept_threshold)

    def _probe_feature(
        self,
        surface: LockedSurface,
        feature: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Tally per-coordinate votes on ``sign(FeaHV_feature)``."""
        levels = surface.levels
        value = surface.value_matrix.astype(np.int64)
        votes = np.zeros(surface.dim, dtype=np.int64)
        for _ in range(self.probes):
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

    def _best_candidate(
        self,
        surface: LockedSurface,
        votes: np.ndarray,
        cap: int,
        rng: np.random.Generator,
    ) -> tuple[SubKey, float, int]:
        """Best single-layer candidate by weighted vote correlation.

        Score is ``(1 - c) / 2`` where ``c`` is the correlation of the
        candidate's rotated pool row with the vote tally, weighted by
        vote magnitude — 0 for perfect agreement, 0.5 at chance, on the
        same lower-is-better scale as every other arena criterion.
        """
        dim = surface.dim
        weight_mass = float(np.abs(votes).sum())
        total = dim * surface.pool_size
        if total <= cap:
            correlations = rotation_correlation(surface.base_pool, votes) / weight_mass
            scores = (1.0 - correlations) / 2.0
            index, rotation = divmod(int(np.argmin(scores)), dim)
            return SubKey((index,), (rotation,)), float(scores[index, rotation]), total
        pool = surface.base_pool.astype(np.int64)
        support = np.flatnonzero(votes)
        weights = votes[support].astype(np.float64)
        best_score = np.inf
        best_pair = (0, 0)
        indices = rng.integers(0, surface.pool_size, size=cap)
        rotations = rng.integers(0, dim, size=cap)
        for index, rotation in zip(indices.tolist(), rotations.tolist()):
            row = pool[index][(support + rotation) % dim]
            score = (1.0 - float(row @ weights) / weight_mass) / 2.0
            if score < best_score:
                best_score = float(score)
                best_pair = (index, rotation)
        return SubKey((best_pair[0],), (best_pair[1],)), best_score, cap

    def run(
        self,
        surface: LockedSurface,
        budget: AttackBudget,
        rng: np.random.Generator,
    ) -> AttackOutcome:
        cap = self.max_candidates
        if budget.max_candidates is not None:
            cap = min(cap, budget.max_candidates)
        guesses: list[FeatureGuess] = []
        candidates = 0
        locked_out = False
        notes = ""
        for feature in budget.features(surface):
            if not budget.allows_queries(surface.oracle, 2 * self.probes):
                notes = "query budget exhausted"
                break
            try:
                votes = self._probe_feature(surface, feature, rng)
            except OracleLockoutError:
                locked_out = True
                break
            if int(np.abs(votes).sum()) < self.min_evidence:
                # Too little flip evidence to separate the candidate
                # space — committing here would be guessing on noise.
                guesses.append(FeatureGuess(feature, None, CHANCE_SCORE))
                continue
            subkey, score, scored = self._best_candidate(
                surface, votes, cap, rng
            )
            candidates += scored
            if score <= self.accept_threshold:
                guesses.append(FeatureGuess(feature, subkey, score))
            else:
                guesses.append(FeatureGuess(feature, None, score))
        return AttackOutcome(
            attacker=self.name,
            guesses=tuple(guesses),
            queries=surface.oracle.n_queries,
            candidates_scored=candidates,
            locked_out=locked_out,
            notes=notes,
        )


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
