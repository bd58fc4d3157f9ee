"""Parity of the whole-matrix attack scoring against per-row specs.

The batched paths (stacked :meth:`CandidateTable.score`, block-batched
oracle sweeps, the FFT rotation-correlation kernel) must reproduce the
per-feature / per-pool-row loops they replaced *bit for bit*: every
score is an exact function of integer counts. The loops live on here as
test-local executable specs.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.arena import (
    DEFAULT_DEFENDERS,
    defender_spec,
    deploy_defender,
    duel,
    make_attacker,
)
from repro.attack import feature_extraction
from repro.attack.bruteforce import score_matrix
from repro.attack.countermeasures import (
    GuardedOracle,
    OracleLockoutError,
    QueryMonitor,
)
from repro.attack.feature_extraction import (
    CandidateTable,
    _crafted_input,
    extract_feature_mapping,
)
from repro.attack.hdlock_attack import (
    DifferenceObservation,
    best_single_layer_guess,
    observe_difference,
    rotation_correlation,
    score_rotations,
)
from repro.attack.protocol import AttackBudget
from repro.attack.threat_model import (
    AttackSurface,
    LockedSurface,
    expose_locked_model,
    expose_model,
)
from repro.attack.value_extraction import extract_value_mapping
from repro.encoding.record import RecordEncoder
from repro.errors import AttackError, NotBipolarError
from repro.hdlock.lock import create_locked_encoder
from repro.hv.packing import hamming_packed, pack_words

N, M, D, P = 12, 6, 512, 8


# -- executable specs of the replaced loops --------------------------------


def gather_scores(surface, observation, index):
    """Per-row gather spec: all rotations of one pool row."""
    support = observation.support
    dim = surface.dim
    rots = np.arange(dim)
    v_delta = (
        surface.value_matrix[0].astype(np.int64)
        - surface.value_matrix[-1].astype(np.int64)
    )[support]
    gather = (support[None, :] + rots[:, None]) % dim
    candidates = surface.base_pool[index][gather].astype(np.int64)
    predicted = v_delta[None, :] * candidates
    if surface.binary:
        return (
            np.count_nonzero(
                np.sign(predicted) != observation.target[None, :], axis=1
            )
            / support.size
        )
    target_vec = observation.target.astype(np.float64)
    target_norm = float(np.linalg.norm(target_vec))
    norms = np.linalg.norm(predicted.astype(np.float64), axis=1)
    return 1.0 - (predicted @ target_vec) / (norms * target_norm)


def loop_best_guess(surface, observation):
    """Per-row sweep spec: strict improvement, first index then rotation."""
    best_score = np.inf
    best_pair = (0, 0)
    for index in range(surface.pool_size):
        scores = gather_scores(surface, observation, index)
        local = int(np.argmin(scores))
        if scores[local] < best_score:
            best_score = float(scores[local])
            best_pair = (index, local)
    return best_pair, best_score


def single_score_spec(table, observed, available, full_dim=False):
    """Per-response spec of :meth:`CandidateTable.score` (one gather each)."""
    if table.binary:
        support_distance = np.asarray(
            hamming_packed(
                table._packed_predictions[available],
                pack_words(observed[table.support]),
                table.support.size,
            )
        )
        if not full_dim:
            return support_distance
        off = int(
            np.count_nonzero(observed[table.off_support] != table._off_support_signs)
        )
        return (support_distance * table.support.size + off) / table.dim
    residual = observed[table.support].astype(np.float64) - table.total_on_support
    residual_norm = float(np.linalg.norm(residual))
    cosines = (table._contributions[available] @ residual) / (
        table._norms[available] * residual_norm
    )
    return 1.0 - cosines


def sequential_sweep(surface, level_order):
    """One-query-per-feature spec of the divide-and-conquer sweep."""
    n = surface.n_features
    order = np.asarray(level_order)
    table = CandidateTable(
        surface.feature_pool,
        surface.value_pool[order[0]],
        surface.value_pool[order[-1]],
        binary=surface.binary,
    )
    assignment = np.full(n, -1, dtype=np.int64)
    margins = np.zeros(n, dtype=np.float64)
    available = np.arange(n)
    guesses = 0
    rows = []
    for feature in range(n):
        observed = np.asarray(
            surface.oracle.query(_crafted_input(n, feature, surface.levels))
        )
        rows.append(table.score(observed, np.arange(n)))
        scores = table.score(observed, available)
        guesses += int(available.size)
        best_pos = int(np.argmin(scores))
        assignment[feature] = available[best_pos]
        if available.size > 1:
            runner_up = float(np.partition(scores, 1)[1])
            margins[feature] = runner_up - float(scores[best_pos])
        else:
            margins[feature] = float("inf")
        available = np.delete(available, best_pos)
    return assignment, margins, guesses, np.stack(rows)


# -- deployments ------------------------------------------------------------


def locked(binary: bool, layers: int = 1, seed: int = 0) -> LockedSurface:
    system = create_locked_encoder(
        n_features=N, levels=M, dim=D, layers=layers, pool_size=P, rng=seed
    )
    surface, _ = expose_locked_model(system.encoder, binary=binary)
    return surface


def plain(binary: bool, n: int = 32, dim: int = 1024, seed: int = 0):
    """A fresh unprotected deployment with its value mapping extracted."""
    encoder = RecordEncoder.random(n, M, dim, rng=seed)
    surface, _ = expose_model(encoder, binary=binary, rng=seed + 1)
    value = extract_value_mapping(surface)
    return surface, value.level_order


def tied_surface(binary: bool):
    """A tiny surface whose best score is tied four ways.

    Row 0 is periodic with period ``dim / 2`` and row 2 is row 0 rotated
    by one, so guesses ``(0, 3)``, ``(0, 11)``, ``(2, 2)`` and
    ``(2, 10)`` all explain the target equally well. Index-first order
    picks ``(0, 3)``; rotation-first order would pick ``(2, 2)``.
    """
    dim, gen = 16, np.random.default_rng(7)
    half = np.where(gen.random(dim // 2) < 0.5, -1, 1)
    pool = np.where(gen.random((4, dim)) < 0.5, -1, 1).astype(np.int8)
    pool[0] = np.tile(half, 2)
    pool[2] = np.roll(pool[0], -1)
    value_matrix = np.where(gen.random((3, dim)) < 0.5, -1, 1).astype(np.int8)
    value_matrix[-1, :10] = -value_matrix[0, :10]
    value_matrix[-1, 10:] = value_matrix[0, 10:]
    support = np.arange(10)
    v_delta = value_matrix[0, support].astype(np.int64) * 2
    truth = np.roll(pool[0], -3)[support].astype(np.int64)
    target = np.sign(v_delta) * truth if binary else v_delta * truth
    surface = LockedSurface(
        base_pool=pool,
        value_matrix=value_matrix,
        oracle=SimpleNamespace(dim=dim, binary=binary),
    )
    observation = DifferenceObservation(
        feature=0, support=support, target=target, queries=2
    )
    return surface, observation


# -- the rotation-correlation kernel ---------------------------------------


class TestRotationKernel:
    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_gather_spec(self, binary, layers):
        surface = locked(binary, layers=layers, seed=layers)
        observation = observe_difference(surface, feature=3)
        scores = score_rotations(surface, observation)
        assert scores.shape == (P, D)
        for index in range(P):
            np.testing.assert_array_equal(
                scores[index], gather_scores(surface, observation, index)
            )

    @pytest.mark.parametrize("binary", [True, False])
    def test_best_guess_matches_loop(self, binary):
        surface = locked(binary, seed=5)
        observation = observe_difference(surface, feature=2)
        subkey, score = best_single_layer_guess(
            score_rotations(surface, observation)
        )
        pair, expected = loop_best_guess(surface, observation)
        assert (subkey.indices[0], subkey.rotations[0]) == pair
        assert score == expected

    @pytest.mark.parametrize("binary", [True, False])
    def test_tie_goes_to_first_index_then_first_rotation(self, binary):
        surface, observation = tied_surface(binary)
        scores = score_rotations(surface, observation)
        best = scores.min()
        assert scores[0, 3] == scores[0, 11] == scores[2, 2] == scores[2, 10] == best
        subkey, score = best_single_layer_guess(scores)
        assert (subkey.indices[0], subkey.rotations[0]) == (0, 3)
        assert ((0, 3), score) == loop_best_guess(surface, observation)

    def test_correlation_is_exact_integers(self):
        gen = np.random.default_rng(3)
        pool = np.where(gen.random((5, 64)) < 0.5, -1, 1)
        weights = gen.integers(-20, 21, size=64)
        corr = rotation_correlation(pool, weights)
        spec = np.array(
            [[weights @ np.roll(row, -r) for r in range(64)] for row in pool]
        )
        np.testing.assert_array_equal(corr, spec)

    def test_rejects_non_integer_weights(self):
        pool = np.ones((2, 8), dtype=np.int8)
        with pytest.raises(AttackError):
            rotation_correlation(pool, np.full(8, 0.0625))

    def test_rejects_non_bipolar_pool(self):
        surface = locked(True, seed=6)
        observation = observe_difference(surface)
        zeroed = LockedSurface(
            base_pool=np.zeros_like(surface.base_pool),
            value_matrix=surface.value_matrix,
            oracle=surface.oracle,
        )
        with pytest.raises(NotBipolarError):
            score_rotations(zeroed, observation)


# -- the batched score matrix -------------------------------------------


class TestBatchedCandidateScore:
    @pytest.mark.parametrize(
        "binary, full_dim", [(True, False), (True, True), (False, False)]
    )
    def test_rows_equal_single_calls(self, binary, full_dim):
        surface, order = plain(binary, seed=11)
        table = CandidateTable(
            surface.feature_pool,
            surface.value_pool[order[0]],
            surface.value_pool[order[-1]],
            binary=binary,
        )
        n = surface.n_features
        responses = surface.oracle.query_batch(
            np.stack([_crafted_input(n, f, M) for f in range(n)])
        )
        available = np.array([0, 3, 4, 9, 20, 31])
        batched = table.score(responses, available, full_dim=full_dim)
        assert batched.shape == (n, available.size)
        for row, observed in zip(batched, responses):
            np.testing.assert_array_equal(
                row, table.score(observed, available, full_dim=full_dim)
            )
            np.testing.assert_array_equal(
                row, single_score_spec(table, observed, available, full_dim)
            )


# -- the block-batched oracle sweep -------------------------------------


class TestBatchedSweep:
    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("block_rows", [5, 128])
    def test_extraction_equals_sequential(self, binary, block_rows, monkeypatch):
        monkeypatch.setattr(feature_extraction, "QUERY_BLOCK_ROWS", block_rows)
        surface, order = plain(binary, seed=21)
        reference, _ = plain(binary, seed=21)
        result = extract_feature_mapping(surface, order)
        assignment, margins, guesses, _ = sequential_sweep(reference, order)
        np.testing.assert_array_equal(result.assignment, assignment)
        np.testing.assert_array_equal(result.margins, margins)
        assert result.guesses == guesses
        assert result.queries == surface.n_features
        assert surface.oracle.n_queries == surface.n_features + 1
        assert reference.oracle.n_queries == surface.n_features + 1

    def test_extraction_spans_several_default_blocks(self):
        n = feature_extraction.QUERY_BLOCK_ROWS * 2 + 7
        surface, order = plain(True, n=n, seed=31)
        reference, _ = plain(True, n=n, seed=31)
        result = extract_feature_mapping(surface, order)
        assignment, margins, guesses, _ = sequential_sweep(reference, order)
        np.testing.assert_array_equal(result.assignment, assignment)
        np.testing.assert_array_equal(result.margins, margins)
        assert result.guesses == guesses == n * (n + 1) // 2
        assert surface.oracle.n_queries == n + 1

    @pytest.mark.parametrize("binary", [True, False])
    def test_score_matrix_equals_sequential(self, binary, monkeypatch):
        monkeypatch.setattr(feature_extraction, "QUERY_BLOCK_ROWS", 7)
        surface, order = plain(binary, seed=41)
        reference, _ = plain(binary, seed=41)
        _, _, _, expected = sequential_sweep(reference, order)
        np.testing.assert_array_equal(score_matrix(surface, order), expected)
        assert surface.oracle.n_queries == surface.n_features + 1


# -- lockout semantics of the batched sweep ---------------------------------


def guarded(n: int = 32, budget: int = 6, seed: int = 51):
    """An unprotected model behind a monitor that trips on the
    ``budget + 1``-th attack-shaped query (the value probe counts)."""
    encoder = RecordEncoder.random(n, M, 1024, rng=seed)
    surface, _ = expose_model(encoder, binary=True, rng=seed + 1)
    monitor = QueryMonitor(n_features=n, levels=M, budget=budget)
    guarded_surface = AttackSurface(
        feature_pool=surface.feature_pool,
        value_pool=surface.value_pool,
        oracle=GuardedOracle(encoder, monitor, binary=True),
    )
    value = extract_value_mapping(guarded_surface)
    return guarded_surface, value.level_order, monitor


class TestLockoutMidSweep:
    def test_tripping_block_is_refused_whole(self, monkeypatch):
        # Blocks of 4: features 0-3 are served (5 suspicious queries with
        # the value probe); feature 5 is the 7th and trips the monitor,
        # so the whole second block is refused.
        monkeypatch.setattr(feature_extraction, "QUERY_BLOCK_ROWS", 4)
        surface, order, monitor = guarded(budget=6)
        with pytest.raises(OracleLockoutError):
            extract_feature_mapping(surface, order)
        assert surface.oracle.n_queries == 1 + 4
        assert monitor.seen == 1 + 4 + 2
        assert monitor.alerted

    def test_default_block_refused_before_any_feature_is_served(self):
        surface, order, monitor = guarded(budget=6)
        with pytest.raises(OracleLockoutError):
            extract_feature_mapping(surface, order)
        assert surface.oracle.n_queries == 1
        assert monitor.seen == 1 + 6

    @pytest.mark.parametrize("defender", DEFAULT_DEFENDERS)
    def test_plain_reasoning_cells_stop_at_value_extraction(self, defender):
        # No arena cell reaches the lockout path above: against every
        # built-in defender the plain pipeline collapses after its one
        # value-extraction query.
        spec = defender_spec(defender)
        defense = deploy_defender(spec, spec.build_system(16, 8, 1024, 91))
        outcome = duel(
            make_attacker("plain-reasoning"),
            defense,
            AttackBudget(max_features=4, max_queries=512),
            np.random.default_rng(92),
        )
        assert outcome.queries == 1
        assert not outcome.locked_out
        assert outcome.notes.startswith("collapsed")
