"""Tests for bundling-capacity analysis."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hv.capacity import (
    capacity,
    detection_margin,
    expected_member_distance,
    fleet_collision_log2_probability,
    fleet_key_report,
    key_entropy_bits,
    majority_advantage,
    subkey_space_log2,
)
from repro.hv.ops import bundle, sign
from repro.hv.random import random_pool
from repro.hv.similarity import hamming


def measured_distances(k: int, dim: int, rng: int) -> tuple[float, float]:
    """Hamming distance of a member and of a fresh non-member to the
    binarized bundle of ``k`` random HVs."""
    pool = random_pool(k + 1, dim, rng)
    bundled = sign(bundle(pool[:k]))
    return float(hamming(bundled, pool[0])), float(hamming(bundled, pool[k]))


class TestMajorityAdvantage:
    def test_exact_small_values(self):
        # hand-computed: k=1 trivially matches; k=2 and k=3 give 0.75
        assert majority_advantage(1) == 0.5
        assert majority_advantage(2) == pytest.approx(0.25)
        assert majority_advantage(3) == pytest.approx(0.25)

    def test_monotone_decreasing(self):
        values = [majority_advantage(k) for k in range(2, 100)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:], strict=False))

    def test_asymptotic_rate(self):
        for k in (1001, 10_001):
            assert majority_advantage(k) == pytest.approx(
                1 / math.sqrt(2 * math.pi * k), rel=0.05
            )

    def test_large_k_fast_and_finite(self):
        assert 0 < majority_advantage(1_000_001) < 1e-3

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            majority_advantage(0)


class TestExpectedMemberDistance:
    def test_complements_advantage(self):
        assert expected_member_distance(5) == pytest.approx(
            0.5 - majority_advantage(5)
        )

    def test_approaches_half(self):
        assert expected_member_distance(100_000) == pytest.approx(0.5, abs=0.01)


class TestCapacity:
    def test_scales_linearly_with_dim(self):
        c1 = capacity(2048)
        c2 = capacity(8192)
        assert c2 / c1 == pytest.approx(4.0, rel=0.15)

    def test_matches_closed_form(self):
        dim, sigmas = 10_000, 4.0
        expected = 2 * dim / (math.pi * sigmas**2)
        assert capacity(dim, sigmas) == pytest.approx(expected, rel=0.1)

    def test_margin_positive_at_capacity(self):
        dim = 4096
        k = capacity(dim)
        assert detection_margin(k, dim) > 0

    def test_stricter_sigmas_reduce_capacity(self):
        assert capacity(4096, sigmas=6.0) < capacity(4096, sigmas=3.0)

    def test_invalid_dim(self):
        with pytest.raises(ConfigurationError):
            capacity(0)


class TestEmpiricalCurve:
    def test_matches_prediction(self):
        for k in (3, 9, 33, 101):
            member, non_member = measured_distances(k, dim=8192, rng=k)
            assert member == pytest.approx(expected_member_distance(k), abs=0.03)
            assert non_member == pytest.approx(0.5, abs=0.05)

    def test_members_closer_than_non_members_within_capacity(self):
        dim = 4096
        k = capacity(dim) // 2
        member, non_member = measured_distances(k, dim=dim, rng=1)
        assert member < non_member - 0.01

    def test_encoder_regime_has_signal(self):
        """N=784 bound pairs bundled at D>=2048: members detectable —
        this is why the attack's crafted queries carry signal."""
        member, _ = measured_distances(785, dim=2048, rng=2)
        assert member < 0.49


class TestFleetKeyReport:
    def test_key_entropy_exact_tiny_shape(self):
        # S = C(2*2, 1) = 4 subkeys, N=2 distinct: log2(4) + log2(3)
        expected = math.log2(4) + math.log2(3)
        assert key_entropy_bits(2, 1, 2, 2) == pytest.approx(expected)

    def test_key_entropy_large_shape_near_log_form(self):
        entropy = key_entropy_bits(784, 2, 784, 2048)
        per_feature = subkey_space_log2(784, 2048, 2)
        # distinctness correction is negligible when S >> N
        assert entropy == pytest.approx(784 * per_feature, rel=1e-9)
        # MNIST-shaped keys carry tens of kilobits of entropy
        assert entropy > 30_000

    def test_key_entropy_log_form_when_space_overflows(self):
        # S = C(2**20 * 2**16, 4) far exceeds 2**53: log-form kicks in
        entropy = key_entropy_bits(16, 4, 1 << 20, 1 << 16)
        per_feature = subkey_space_log2(1 << 20, 1 << 16, 4)
        assert entropy == pytest.approx(16 * per_feature)

    def test_subkey_space_matches_comb(self):
        assert subkey_space_log2(4, 4, 2) == pytest.approx(
            math.log2(math.comb(16, 2))
        )

    def test_infeasible_shapes_refused(self):
        with pytest.raises(ConfigurationError):
            key_entropy_bits(20, 3, 2, 2)  # N > C(P*D, L)
        with pytest.raises(ConfigurationError):
            subkey_space_log2(2, 2, 5)  # L > P*D

    def test_collision_single_device_impossible(self):
        assert fleet_collision_log2_probability(1, 8, 2, 8, 64) == -math.inf

    def test_collision_grows_with_fleet_size(self):
        small = fleet_collision_log2_probability(100, 8, 2, 8, 64)
        large = fleet_collision_log2_probability(10_000, 8, 2, 8, 64)
        assert large > small

    def test_collision_probability_is_capped_at_one(self):
        # absurdly tiny key space, huge fleet: bound must clamp to 0.0
        assert fleet_collision_log2_probability(1_000, 1, 1, 2, 2) == 0.0

    def test_report_fields_consistent(self):
        report = fleet_key_report(100_000, 784, 2, 784, 2048)
        assert report.n_devices == 100_000
        assert report.key_entropy_bits > 30_000
        assert report.collision_probability == 0.0  # underflows a float
        assert report.collision_log2_probability < -30_000
        assert report.expected_guesses_log2 == pytest.approx(
            report.key_entropy_bits - 1.0
        )
        # a 100k-device fleet is ~17 bits easier to hit blind than one
        assert report.fleet_guess_log2_probability == pytest.approx(
            math.log2(100_000) - report.key_entropy_bits
        )

    def test_report_roundtrips_to_dict(self):
        report = fleet_key_report(10, 8, 2, 8, 64)
        payload = report.to_dict()
        assert payload["n_devices"] == 10
        assert payload["key_entropy_bits"] == report.key_entropy_bits
        assert set(payload) == {
            "n_devices",
            "n_features",
            "layers",
            "pool_size",
            "dim",
            "key_entropy_bits",
            "collision_log2_probability",
            "collision_probability",
            "expected_guesses_log2",
            "fleet_guess_log2_probability",
        }
