"""Tests for Step 1 of the reasoning attack (value-HV extraction)."""

import numpy as np
import pytest

from repro.attack.threat_model import expose_model
from repro.attack.value_extraction import (
    estimate_min_value_hv,
    extract_value_mapping,
    find_extreme_pair,
)
from repro.encoding.record import RecordEncoder
from repro.errors import AttackError
from repro.hv.level import level_hvs
from repro.hv.random import random_pool
from repro.hv.similarity import hamming

N, M, D = 32, 8, 2048


@pytest.fixture
def deployment():
    encoder = RecordEncoder.random(N, M, D, rng=0)
    return expose_model(encoder, binary=True, rng=1)


class TestFindExtremePair:
    def test_identifies_extremes_of_level_memory(self):
        levels = level_hvs(M, D, rng=2)
        perm = np.random.default_rng(3).permutation(M)
        shuffled = levels[perm]
        i, j = find_extreme_pair(shuffled)
        found = {perm[i], perm[j]}
        assert found == {0, M - 1}

    def test_returns_sorted_pair(self):
        levels = level_hvs(4, D, rng=4)
        i, j = find_extreme_pair(levels)
        assert i < j


class TestEstimateMinValueHV:
    def test_estimate_close_to_true_valhv1(self, deployment):
        surface, truth = deployment
        estimate = estimate_min_value_hv(surface)
        true_row = surface.value_pool[truth.value_assignment[0]]
        # distance limited by sign-tie errors, far below orthogonal 0.5
        assert float(hamming(estimate, true_row)) < 0.15

    def test_estimate_far_from_max_level(self, deployment):
        surface, truth = deployment
        estimate = estimate_min_value_hv(surface)
        max_row = surface.value_pool[truth.value_assignment[-1]]
        assert float(hamming(estimate, max_row)) > 0.35

    def test_costs_one_query(self, deployment):
        surface, _ = deployment
        before = surface.oracle.n_queries
        estimate_min_value_hv(surface)
        assert surface.oracle.n_queries == before + 1


class TestExtractValueMapping:
    @pytest.mark.parametrize("binary", [True, False])
    def test_recovers_full_mapping(self, binary):
        encoder = RecordEncoder.random(N, M, D, rng=8)
        surface, truth = expose_model(encoder, binary=binary, rng=9)
        result = extract_value_mapping(surface)
        np.testing.assert_array_equal(result.level_order, truth.value_assignment)

    def test_confidence_gap_reported(self, deployment):
        surface, _ = deployment
        result = extract_value_mapping(surface)
        chosen, rejected = result.extreme_distances
        assert chosen < 0.15
        assert rejected > 0.35

    def test_single_query(self, deployment):
        surface, _ = deployment
        result = extract_value_mapping(surface)
        assert result.queries == 1

    def test_odd_feature_count(self):
        """Odd N leaves no sign ties at all — the estimate is exact."""
        encoder = RecordEncoder.random(N + 1, M, D, rng=13)
        surface, truth = expose_model(encoder, binary=True, rng=14)
        result = extract_value_mapping(surface)
        np.testing.assert_array_equal(result.level_order, truth.value_assignment)
        assert result.extreme_distances[0] == 0.0

    def test_ambiguous_pool_raises(self, deployment):
        """A non-level pool (random rows) must be rejected, not guessed."""
        surface, _ = deployment
        broken = type(surface)(
            feature_pool=surface.feature_pool,
            value_pool=random_pool(M, D, rng=16),
            oracle=surface.oracle,
        )
        with pytest.raises(AttackError):
            extract_value_mapping(broken)

    def test_many_levels(self):
        encoder = RecordEncoder.random(20, 32, 4096, rng=18)
        surface, truth = expose_model(encoder, binary=True, rng=19)
        result = extract_value_mapping(surface)
        np.testing.assert_array_equal(result.level_order, truth.value_assignment)
