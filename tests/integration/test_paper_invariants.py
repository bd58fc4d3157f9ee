"""Property-based tests of the paper's equations as cross-module invariants.

Each test states one identity from the paper and checks it over
randomized instances (hypothesis drives shapes and seeds). These are the
load-bearing facts the attack and the defense both rest on; if any
refactor breaks one, the reproduction is no longer the paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.threat_model import expose_model
from repro.attack.value_extraction import extract_value_mapping
from repro.encoding.locked import LockedEncoder
from repro.encoding.record import RecordEncoder
from repro.hdlock.feature_factory import derive_feature_matrix
from repro.hdlock.keygen import generate_key
from repro.hv.capacity import expected_member_distance
from repro.hv.ops import bind, bundle, permute, sign
from repro.hv.random import random_pool
from repro.hv.similarity import hamming
from repro.memory.item_memory import LevelMemory

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestEq2Encoding:
    """H_nb = sum_i ValHV[f_i] * FeaHV_i — linearity and symmetry."""

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_feature_order_is_a_relabeling(self, seed):
        """Permuting (FeaHV_i, f_i) pairs together leaves H unchanged —
        the commutativity that lets the attacker treat the pool sum as
        mapping-free (Sec. 3.2)."""
        rng = np.random.default_rng(seed)
        enc = RecordEncoder.random(12, 4, 512, rng=seed)
        sample = rng.integers(0, 4, 12)
        perm = rng.permutation(12)
        permuted = RecordEncoder(
            enc.feature_memory.remapped(perm), enc.level_memory
        )
        np.testing.assert_array_equal(
            enc.encode_nonbinary(sample),
            permuted.encode_nonbinary(sample[perm]),
        )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_single_feature_model_is_pure_bind(self, seed):
        """With N = 1, encoding degenerates to one bind — no bundle
        noise, H = ValHV[f] * FeaHV exactly."""
        rng = np.random.default_rng(seed)
        enc = RecordEncoder.random(1, 4, 256, rng=seed)
        level = int(rng.integers(0, 4))
        out = enc.encode_nonbinary(np.array([level]))
        expected = bind(
            enc.level_memory.vector(level), enc.feature_matrix[0]
        ).astype(np.int64)
        np.testing.assert_array_equal(out, expected)


class TestEq5Factorization:
    """sign(sum FeaHV_i * V) = V * sign(sum FeaHV_i) for bipolar V."""

    @given(seeds, st.integers(min_value=3, max_value=31))
    @settings(max_examples=10, deadline=None)
    def test_constant_value_factors_out(self, seed, n_features):
        if n_features % 2 == 0:
            n_features += 1  # odd N: no sign ties, identity is exact
        enc = RecordEncoder.random(n_features, 3, 512, rng=seed)
        out = enc.encode(np.zeros(n_features, dtype=np.int64), binary=True)
        v1 = enc.level_memory.minimum
        feature_sum_sign = sign(bundle(enc.feature_matrix))
        np.testing.assert_array_equal(out, bind(v1, feature_sum_sign))


class TestEq1bLevels:
    """Hamm(ValHV_v1, ValHV_v2) = 0.5 |v1 - v2| / (M - 1)."""

    @given(seeds, st.integers(min_value=2, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_linearity_at_scale(self, seed, levels):
        memory = LevelMemory.random(levels, 4096, rng=seed)
        v1, v2 = 0, levels - 1
        assert float(
            hamming(memory.vector(v1), memory.vector(v2))
        ) == pytest.approx(0.5, abs=0.02)
        mid = levels // 2
        assert float(
            hamming(memory.vector(0), memory.vector(mid))
        ) == pytest.approx(0.5 * mid / (levels - 1), abs=0.02)


class TestEq9LockedDerivation:
    """FeaHV_i = prod_l rho^{k_il}(B_il) — algebraic structure."""

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_rotation_distributes_over_binding(self, seed):
        """rho_k(a * b) == rho_k(a) * rho_k(b): rotating a derived
        feature HV equals deriving from uniformly shifted rotations —
        the equivalence class structure of the key space."""
        rng = np.random.default_rng(seed)
        a, b = random_pool(2, 512, rng)
        k = int(rng.integers(0, 512))
        np.testing.assert_array_equal(
            permute(bind(a, b), k), bind(permute(a, k), permute(b, k))
        )

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_locked_encoder_equals_plain_with_derived_memory(self, seed):
        """A LockedEncoder is exactly a RecordEncoder over the derived
        matrix — HDLock changes key management, not encoding semantics
        (why Fig. 8 is flat)."""
        rng = np.random.default_rng(seed)
        pool = random_pool(8, 512, rng=seed)
        levels = LevelMemory.random(4, 512, rng=seed + 1)
        key = generate_key(10, 2, 8, 512, rng=seed + 2)
        locked = LockedEncoder(pool, levels, key)
        from repro.memory.item_memory import FeatureMemory

        plain = RecordEncoder(
            FeatureMemory(derive_feature_matrix(pool, key)), levels
        )
        sample = rng.integers(0, 4, 10)
        np.testing.assert_array_equal(
            locked.encode_nonbinary(sample), plain.encode_nonbinary(sample)
        )


class TestAttackInvariance:
    """The attack's output is covariant with the publish shuffle."""

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_value_extraction_tracks_any_shuffle(self, seed):
        enc = RecordEncoder.random(17, 6, 1024, rng=seed)
        for publish_seed in (seed + 1, seed + 2):
            surface, truth = expose_model(enc, binary=True, rng=publish_seed)
            result = extract_value_mapping(surface)
            np.testing.assert_array_equal(
                result.level_order, truth.value_assignment
            )


class TestCapacityExplainsFig3:
    """The Fig. 3 correct-guess floor is the bundle-capacity member
    distance; the encoder's N sets it."""

    @given(st.sampled_from([33, 65, 129, 257]))
    @settings(max_examples=4, deadline=None)
    def test_member_distance_matches_encoding_noise(self, n_features):
        enc = RecordEncoder.random(n_features, 2, 4096, rng=n_features)
        # all-max input: H = sign(sum FeaHV_i * ValHV_M); the bound pair
        # (FeaHV_0 * ValHV_M) is a bundle member.
        sample = np.ones(n_features, dtype=np.int64)
        encoded = enc.encode(sample, binary=True)
        member = bind(enc.feature_matrix[0], enc.level_memory.maximum)
        measured = float(hamming(encoded, member))
        predicted = expected_member_distance(n_features)
        assert measured == pytest.approx(predicted, abs=0.04)
