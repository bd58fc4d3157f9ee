"""Tests for the exhaustive single-layer key sweep and its L = 2 projection.

The sweep is the arena's :class:`BruteForceSweeper`; the measured sweep
and its projection to deeper keys are
:func:`repro.experiments.ablations.single_layer_breakability`.
"""

import numpy as np
import pytest

from repro.arena.attackers import ACCEPT_THRESHOLD, BruteForceSweeper
from repro.attack.complexity import hdlock_total_guesses, reasoning_seconds_estimate
from repro.attack.protocol import AttackBudget
from repro.attack.threat_model import expose_locked_model
from repro.experiments.ablations import single_layer_breakability
from repro.hdlock.lock import create_locked_encoder
from repro.memory.key import LockKey

N, M, D, P = 12, 6, 512, 8


def sweep(binary: bool, seed: int = 0):
    system = create_locked_encoder(
        n_features=N, levels=M, dim=D, layers=1, pool_size=P, rng=seed
    )
    surface, _ = expose_locked_model(system.encoder, binary=binary)
    outcome = BruteForceSweeper().run(
        surface, AttackBudget(max_features=N), np.random.default_rng(seed)
    )
    return system, surface, outcome


@pytest.fixture(scope="module")
def breakability():
    return single_layer_breakability(
        n_features=N, levels=M, dim=D, pool_size=P, seed=3
    )


class TestAttackSingleLayer:
    @pytest.mark.parametrize("binary", [True, False])
    def test_recovers_the_key(self, binary):
        system, _, outcome = sweep(binary=binary)
        subkeys = [g.subkey for g in outcome.guesses]
        assert LockKey(subkeys, pool_size=P, dim=D) == system.key
        assert outcome.candidates_scored == N * P * D
        assert max(g.score for g in outcome.guesses) < ACCEPT_THRESHOLD

    def test_reports_timing(self, breakability):
        assert breakability.key_recovered
        assert breakability.guesses == N * P * D
        assert breakability.measured_seconds > 0
        assert breakability.measured_seconds / breakability.guesses > 0

    def test_oracle_budget_is_two_per_feature(self):
        _, surface, outcome = sweep(binary=True, seed=3)
        assert outcome.queries == surface.oracle.n_queries == 2 * N


class TestExtrapolation:
    def test_scales_with_layers(self, breakability):
        assert breakability.l2_infeasible_factor == pytest.approx(D * P)

    def test_l1_extrapolation_consistent_with_measurement(self, breakability):
        """The L=1 projection must be the measured runtime (same count)."""
        per_guess = breakability.measured_seconds / breakability.guesses
        projected = reasoning_seconds_estimate(
            hdlock_total_guesses(N, D, P, 1), per_guess
        )
        assert projected == pytest.approx(breakability.measured_seconds, rel=0.01)
