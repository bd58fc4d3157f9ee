"""Strategy behavior on the built-in defender configurations.

Each test deploys one registered defender at small scale (N=16, M=8,
D=1024 — every separation the strategies rely on concentrates hard at
this width) and judges the outcome with the arena's own owner-side
evaluation, so these double as end-to-end checks of the duel plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arena import (
    defender_spec,
    deploy_defender,
    duel,
    evaluate_outcome,
    make_attacker,
)
from repro.attack.protocol import AttackBudget

N_FEATURES = 16
LEVELS = 8
DIM = 1024


def arena_cell(attacker_name, defender_name, max_queries=512, seed=91):
    """Deploy a defender, run one duel, judge it. -> (outcome, evaluation)."""
    spec = defender_spec(defender_name)
    system = spec.build_system(N_FEATURES, LEVELS, DIM, seed)
    defense = deploy_defender(spec, system)
    budget = AttackBudget(max_features=4, max_queries=max_queries)
    outcome = duel(
        make_attacker(attacker_name),
        defense,
        budget,
        np.random.default_rng(seed + 1),
    )
    evaluation = evaluate_outcome(
        system.encoder.feature_matrix,
        system.base_pool,
        outcome,
        budget.features(defense.surface),
    )
    return outcome, evaluation


class TestBruteForceSweeper:
    def test_breaks_single_layer(self):
        outcome, evaluation = arena_cell("bruteforce", "shallow-l1")
        assert evaluation.success_rate == 1.0
        assert evaluation.key_distance == 0.0
        assert outcome.candidates_scored > 0

    def test_commits_wrong_on_two_layers(self):
        # the sweep always commits; at L=2 its single-layer guesses land
        # at chance distance and recover nothing
        outcome, evaluation = arena_cell("bruteforce", "baseline-l2")
        assert outcome.abstentions == 0
        assert evaluation.features_recovered == 0
        assert abs(evaluation.key_distance - 0.5) < 0.1

    @pytest.mark.parametrize("attacker", ["bruteforce", "adaptive"])
    def test_locked_out_by_monitor(self, attacker):
        # crafted all-min/all-max probe pairs trip the query monitor; the
        # lockout is an AttackError too, and must not read as a chance
        # guess that lets the sweep carry on
        outcome, evaluation = arena_cell(attacker, "monitored-l1")
        assert outcome.locked_out
        assert evaluation.features_recovered < 4


class TestAdaptiveExtractor:
    def test_breaks_single_layer(self):
        _, evaluation = arena_cell("adaptive", "shallow-l1")
        assert evaluation.success_rate == 1.0

    def test_abstains_on_two_layers(self):
        # no candidate separates below the acceptance threshold at L=2:
        # the honest outcome is abstention, scored as chance
        outcome, evaluation = arena_cell("adaptive", "baseline-l2")
        assert outcome.abstentions == 4
        assert evaluation.features_recovered == 0
        assert evaluation.key_distance == pytest.approx(0.5)

    def test_scores_as_many_candidates_as_bruteforce(self):
        # Both score the whole (P, D) matrix of every feature; the
        # threshold only decides whether to commit.
        adaptive, _ = arena_cell("adaptive", "shallow-l1")
        brute, _ = arena_cell("bruteforce", "shallow-l1")
        assert adaptive.candidates_scored == brute.candidates_scored > 0


class TestDifferentialProber:
    def test_breaks_single_layer(self):
        _, evaluation = arena_cell("differential-prober", "shallow-l1")
        assert evaluation.success_rate == 1.0

    def test_breaks_nonbinary_transmission(self):
        _, evaluation = arena_cell("differential-prober", "nonbinary-l1")
        assert evaluation.success_rate == 1.0

    def test_evades_query_monitor(self):
        # random-looking probe pairs stay under the monitor's
        # concentration threshold: no lockout, full recovery — the
        # monitor's blind spot, on record
        outcome, evaluation = arena_cell(
            "differential-prober", "monitored-l1"
        )
        assert not outcome.locked_out
        assert evaluation.success_rate == 1.0

    def test_sees_through_quantization(self):
        # Quantized coordinates binarize to the fixed sign(0) tie bits,
        # which cancel in the probe differences: the transform hides no
        # per-query noise, so the prober recovers L = 1 features. At this
        # shape one feature stays below the evidence floor and is an
        # honest abstention, never a junk commit.
        outcome, evaluation = arena_cell(
            "differential-prober", "quantized-l1"
        )
        assert not outcome.locked_out
        assert evaluation.features_recovered == 3
        assert outcome.abstentions == 1


class TestPlainReasoningAdapter:
    def test_collapses_against_the_lock(self):
        # Table 2's point: the Sec. 3 reasoning attack cannot even
        # identify ValHV_1 behind the lock
        outcome, evaluation = arena_cell("plain-reasoning", "shallow-l1")
        assert outcome.guesses == ()
        assert "collapsed" in outcome.notes
        assert evaluation.features_recovered == 0
        assert evaluation.key_distance == pytest.approx(0.5)

    def test_locked_out_by_monitor(self):
        outcome, _ = arena_cell("plain-reasoning", "monitored-l1")
        assert outcome.locked_out or "collapsed" in outcome.notes


class TestBudgets:
    def test_query_budget_truncates_the_sweep(self):
        # two queries buy exactly one crafted pair: one feature attacked
        outcome, evaluation = arena_cell(
            "bruteforce", "shallow-l1", max_queries=2
        )
        assert outcome.queries <= 2
        assert len(outcome.guesses) == 1
        assert "budget" in outcome.notes
        assert evaluation.features_attacked == 4  # scope never shrinks

    def test_all_strategies_respect_the_query_budget(self):
        for name in (
            "bruteforce",
            "adaptive",
            "differential-prober",
            "plain-reasoning",
        ):
            outcome, _ = arena_cell(name, "shallow-l1", max_queries=16)
            assert outcome.queries <= 16, name
