"""Adaptive attack on *single-layer* HDLock keys.

The paper's complexity argument makes ``L`` the security exponent: a
one-layer key offers ``D * P`` states per feature — "only" ``6.15e9``
guesses total for MNIST. That is expensive but not cryptographic, and at
moderate ``D * P`` it is outright practical. This module implements the
full ``L = 1`` key-recovery attack by exhaustive sweep over (base index,
rotation) pairs: one FFT cross-correlation per feature scores all
``D * P`` guesses exactly, so a reduced-scale key falls in seconds.

Two roles in the reproduction:

* it *validates* the complexity model — measured per-guess cost times
  ``(D * P)^L`` extrapolates the infeasibility of deeper keys
  (:func:`extrapolate_multi_layer_seconds`);
* it substantiates the paper's implicit design guidance that real
  deployments want ``L >= 2``: one free-latency layer is only as strong
  as the attacker's patience.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.hdlock_attack import (
    DifferenceObservation,
    observe_difference,
    rotation_correlation,
)
from repro.attack.threat_model import LockedSurface
from repro.errors import AttackError, ConfigurationError, NotBipolarError
from repro.hv.similarity import is_bipolar
from repro.memory.key import LockKey, SubKey
from repro.utils.timer import Timer

#: Score below which a single-layer guess is accepted as the key
#: (correct guesses score ~0 Hamming / ~0 "1 - cosine"; wrong ~0.5).
ACCEPT_THRESHOLD = 0.12


@dataclass(frozen=True)
class SingleLayerAttackResult:
    """Outcome of the exhaustive L = 1 key recovery."""

    recovered: LockKey
    guesses: int
    seconds: float
    scores: np.ndarray

    @property
    def per_guess_seconds(self) -> float:
        """Average cost of one key guess (feeds the extrapolation)."""
        return self.seconds / max(self.guesses, 1)


def score_rotations(
    surface: LockedSurface,
    observation: DifferenceObservation,
    *,
    rotations: np.ndarray | None = None,
) -> np.ndarray:
    """Score every single-layer guess ``(index, r)`` against one observation.

    Returns the ``(P, R)`` score matrix: row ``index`` is base-pool row
    ``index``, column ``j`` is rotation ``rotations[j]`` (all ``D``
    rotations by default). Scores are uniformly *lower is better*:
    normalized Hamming distance on binary surfaces, ``1 - cosine`` on
    non-binary ones — so arena strategies compare and threshold them
    without branching on the oracle flavor.

    A guess predicts ``v_delta * rho^r(B_index)`` on the support ``I``.
    With a bipolar pool every prediction is one
    :func:`~repro.attack.hdlock_attack.rotation_correlation` entry away:

    * binary: ``sign(prediction) = sign(v_delta) * rho^r(B_index)`` and
      the target is ±1, so mismatches are ``(|I| - corr) / 2`` with
      weights ``sign(v_delta) * target`` on ``I``;
    * non-binary: the dot product with the target is ``corr`` with
      weights ``v_delta * target``, and every prediction has the norm
      ``||v_delta||``.

    Those preconditions (bipolar pool, ``v_delta != 0`` on ``I``, a ±1
    binary target) hold for every :func:`observe_difference` result and
    are checked rather than assumed.
    """
    pool = surface.base_pool
    if not is_bipolar(pool):
        raise NotBipolarError("rotation scoring needs a bipolar base pool")
    support = observation.support
    target = observation.target
    v_delta = (
        surface.value_matrix[0].astype(np.int64)
        - surface.value_matrix[-1].astype(np.int64)
    )[support]
    if not v_delta.all():
        raise AttackError(
            "observation support leaves the value support (ValHV_1 == ValHV_M)"
        )
    weights = np.zeros(surface.dim, dtype=np.int64)
    if surface.binary:
        if not (np.abs(target) == 1).all():
            raise AttackError("binary difference target must be +-1")
        weights[support] = np.sign(v_delta) * target
        corr = rotation_correlation(pool, weights).astype(np.int64)
        scores = (support.size - corr) // 2 / support.size
    else:
        target_norm = float(np.linalg.norm(target.astype(np.float64)))
        if target_norm == 0.0:
            raise AttackError("difference observation carries no signal")
        weights[support] = v_delta * target
        prediction_norm = float(np.linalg.norm(v_delta.astype(np.float64)))
        cosines = rotation_correlation(pool, weights) / (prediction_norm * target_norm)
        scores = 1.0 - cosines
    return scores if rotations is None else scores[:, rotations]


def best_single_layer_guess(
    surface: LockedSurface,
    feature: int,
    observation: DifferenceObservation | None = None,
    max_candidates: int | None = None,
) -> tuple[SubKey, float, int]:
    """Sweep all (index, rotation) pairs for one feature's subkey.

    Scores every pair on the difference support in one
    :func:`score_rotations` pass; returns the best guess (ties go to the
    first index, then the first rotation), its (lower-is-better) score,
    and the number of guesses evaluated. Callers that already hold the
    feature's observation pass it to avoid spending two more oracle
    queries; ``max_candidates`` caps the total evaluations by evenly
    striding the rotation space (a budgeted sweep may then miss the true
    rotation — the caller's accept threshold decides).
    """
    if observation is None:
        observation = observe_difference(surface, feature)
    dim = surface.dim
    rotations = None
    if max_candidates is not None and max_candidates < dim * surface.pool_size:
        per_index = max(1, max_candidates // surface.pool_size)
        stride = dim / per_index
        rotations = np.unique((np.arange(per_index) * stride).astype(np.int64))
    scores = score_rotations(surface, observation, rotations=rotations)
    index, column = divmod(int(np.argmin(scores)), scores.shape[1])
    rotation = column if rotations is None else int(rotations[column])
    return (
        SubKey((index,), (rotation,)),
        float(scores[index, column]),
        int(scores.size),
    )


def attack_single_layer(surface: LockedSurface) -> SingleLayerAttackResult:
    """Recover a complete single-layer key by exhaustive sweep.

    Raises :class:`AttackError` when the best guess of any feature does
    not separate (e.g. the deployment actually uses ``L >= 2``) — the
    attack reports failure instead of returning a junk key.
    """
    with Timer() as timer:
        subkeys: list[SubKey] = []
        scores = np.empty(surface.n_features)
        guesses = 0
        for feature in range(surface.n_features):
            subkey, score, spent = best_single_layer_guess(surface, feature)
            if score > ACCEPT_THRESHOLD:
                raise AttackError(
                    f"no single-layer key explains feature {feature} "
                    f"(best score {score:.3f}); the deployment is not L=1"
                )
            subkeys.append(subkey)
            scores[feature] = score
            guesses += spent
    recovered = LockKey(
        subkeys, pool_size=surface.pool_size, dim=surface.dim
    )
    return SingleLayerAttackResult(
        recovered=recovered,
        guesses=guesses,
        seconds=timer.elapsed,
        scores=scores,
    )


def extrapolate_multi_layer_seconds(
    result: SingleLayerAttackResult,
    surface: LockedSurface,
    layers: int,
) -> float:
    """Project the measured per-guess cost to an ``L``-layer search.

    ``N * (D * P)^L * per_guess_seconds`` — the paper's "aligns with the
    time consumption if each guess costs approximately equal time"
    argument, grounded in this machine's measured guess rate.
    """
    if layers < 1:
        raise ConfigurationError(f"layers must be >= 1, got {layers}")
    total = surface.n_features * (surface.dim * surface.pool_size) ** layers
    return total * result.per_guess_seconds
