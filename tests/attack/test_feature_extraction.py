"""Tests for Step 2 of the reasoning attack (feature-HV extraction)."""

import numpy as np
import pytest

from repro.attack.feature_extraction import (
    CandidateTable,
    extract_feature_mapping,
    guess_distance_series,
)
from repro.attack.threat_model import expose_model
from repro.attack.value_extraction import extract_value_mapping
from repro.encoding.record import RecordEncoder
from repro.errors import AttackError

N, M, D = 32, 8, 2048


def deploy(binary: bool, seed: int = 0):
    encoder = RecordEncoder.random(N, M, D, rng=seed)
    surface, truth = expose_model(encoder, binary=binary, rng=seed + 1)
    value = extract_value_mapping(surface)
    return surface, truth, value


class TestExtractFeatureMapping:
    @pytest.mark.parametrize("binary", [True, False])
    def test_recovers_full_mapping(self, binary):
        surface, truth, value = deploy(binary)
        result = extract_feature_mapping(surface, value.level_order)
        np.testing.assert_array_equal(result.assignment, truth.feature_assignment)

    def test_query_count_is_n(self):
        surface, _, value = deploy(binary=True, seed=10)
        before = surface.oracle.n_queries
        result = extract_feature_mapping(surface, value.level_order)
        assert result.queries == N
        assert surface.oracle.n_queries - before == N

    def test_guess_count_is_triangular(self):
        """Divide and conquer: N + (N-1) + ... + 1 candidate evaluations."""
        surface, _, value = deploy(binary=True, seed=20)
        result = extract_feature_mapping(surface, value.level_order)
        assert result.guesses == N * (N + 1) // 2

    def test_margins_positive(self):
        surface, _, value = deploy(binary=True, seed=30)
        result = extract_feature_mapping(surface, value.level_order)
        finite = result.margins[np.isfinite(result.margins)]
        assert (finite > 0).all()

    def test_assignment_is_permutation(self):
        surface, _, value = deploy(binary=False, seed=40)
        result = extract_feature_mapping(surface, value.level_order)
        assert sorted(result.assignment) == list(range(N))

    def test_nonbinary_margins_near_one(self):
        """Non-binary: correct cosine == 1, wrong ~0 -> margin near 1."""
        surface, _, value = deploy(binary=False, seed=50)
        result = extract_feature_mapping(surface, value.level_order)
        finite = result.margins[np.isfinite(result.margins)]
        assert finite.min() > 0.7


class TestCandidateTable:
    def test_rejects_identical_extremes(self):
        surface, _, _ = deploy(binary=True, seed=60)
        v = surface.value_pool[0]
        with pytest.raises(AttackError):
            CandidateTable(surface.feature_pool, v, v, binary=True)

    def test_support_is_where_extremes_differ(self):
        surface, truth, value = deploy(binary=True, seed=70)
        v1 = surface.value_pool[value.level_order[0]]
        vm = surface.value_pool[value.level_order[-1]]
        table = CandidateTable(surface.feature_pool, v1, vm, binary=True)
        np.testing.assert_array_equal(table.support, np.flatnonzero(v1 != vm))
        assert table.support.size + table.off_support.size == D

    def test_full_dim_scores_scale_down(self):
        """Support-restricted and full-D scores rank candidates the same;
        full-D values are roughly halved (support is ~D/2)."""
        surface, _, value = deploy(binary=True, seed=80)
        restricted = guess_distance_series(
            surface, value.level_order, feature=0, full_dim=False
        )
        full = guess_distance_series(
            surface, value.level_order, feature=0, full_dim=True
        )
        assert int(np.argmin(restricted)) == int(np.argmin(full))
        assert full.mean() < restricted.mean()


class TestGuessDistanceSeries:
    @pytest.mark.parametrize("binary", [True, False])
    def test_correct_guess_is_global_minimum(self, binary):
        surface, truth, value = deploy(binary, seed=90)
        series = guess_distance_series(surface, value.level_order, feature=3)
        assert int(np.argmin(series)) == truth.feature_assignment[3]

    def test_nonbinary_correct_cosine_is_one(self):
        """Paper Sec. 3.2: non-binary correct guess has cosine exactly 1."""
        surface, truth, value = deploy(binary=False, seed=100)
        series = guess_distance_series(surface, value.level_order, feature=0)
        assert series[truth.feature_assignment[0]] == pytest.approx(0.0, abs=1e-12)

    def test_wrong_guesses_well_separated(self):
        surface, truth, value = deploy(binary=True, seed=110)
        series = guess_distance_series(surface, value.level_order, feature=0)
        correct = series[truth.feature_assignment[0]]
        wrong = np.delete(series, truth.feature_assignment[0])
        assert wrong.min() > 2 * correct
