"""Tests for the public/secure memory threat-model simulation."""

import numpy as np
import pytest

from repro.errors import SecureMemoryError
from repro.hv.random import random_pool
from repro.memory.key import LockKey, SubKey
from repro.memory.secure import OWNER, PublicMemory, SecureMemory


class TestPublicMemory:
    def test_publish_shuffles_consistently(self):
        rows = random_pool(20, 64, rng=0)
        public, placement = PublicMemory.publish(rows, rng=1)
        np.testing.assert_array_equal(public.rows, rows[placement])

    def test_len_and_dim(self):
        public, _ = PublicMemory.publish(random_pool(7, 96, rng=2), rng=3)
        assert len(public) == 7
        assert public.dim == 96

    def test_row_access(self):
        rows = random_pool(4, 64, rng=4)
        public = PublicMemory(rows)
        np.testing.assert_array_equal(public.row(2), rows[2])

    def test_packed_footprint(self):
        public = PublicMemory(random_pool(10, 800, rng=5))
        assert public.nbytes_packed == 10 * 100
        # One bit per element: 801 bits round up to 101 bytes per row.
        odd = PublicMemory(random_pool(10, 801, rng=5))
        assert odd.nbytes_packed == 10 * 101

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            PublicMemory(np.ones(16, dtype=np.int8))

    def test_publish_does_not_mutate_original(self):
        rows = random_pool(6, 64, rng=6)
        copy = rows.copy()
        PublicMemory.publish(rows, rng=7)
        np.testing.assert_array_equal(rows, copy)


class TestSecureMemory:
    def test_owner_roundtrip(self):
        secure = SecureMemory()
        secure.store("mapping", np.array([2, 0, 1]))
        np.testing.assert_array_equal(
            secure.load("mapping"), np.array([2, 0, 1])
        )

    def test_attacker_access_denied_and_logged(self):
        secure = SecureMemory()
        secure.store("key", 123)
        with pytest.raises(SecureMemoryError):
            secure.load("key", actor="attacker")
        assert len(secure.audit_log) == 1
        record = secure.audit_log[0]
        assert record.actor == "attacker"
        assert not record.allowed

    def test_missing_slot(self):
        secure = SecureMemory()
        with pytest.raises(SecureMemoryError):
            secure.load("nothing")

    def test_contains_and_names(self):
        secure = SecureMemory()
        secure.store("b", 1)
        secure.store("a", 2)
        assert "a" in secure and "c" not in secure
        assert secure.names == ["a", "b"]

    def test_owner_access_logged_as_allowed(self):
        secure = SecureMemory()
        secure.store("x", 5)
        secure.load("x", actor=OWNER)
        assert secure.audit_log[-1].allowed

    def test_storage_bits_int(self):
        secure = SecureMemory()
        secure.store("n", 255)
        assert secure.storage_bits() == 8

    def test_storage_bits_array(self):
        secure = SecureMemory()
        secure.store("placement", np.arange(16))  # values 0..15 -> 4 bits
        assert secure.storage_bits() == 16 * 4

    def test_storage_bits_lock_key(self):
        key = LockKey([SubKey((0, 1), (2, 3))], pool_size=16, dim=256)
        secure = SecureMemory()
        secure.store("key", key)
        assert secure.storage_bits() == key.storage_bits()

    def test_storage_bits_unknown_type(self):
        secure = SecureMemory()
        secure.store("weird", object())
        with pytest.raises(TypeError):
            secure.storage_bits()
