"""Tenancy: provision → load round trips and the key lifecycle gate."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hdlock.lock import rotate_system
from repro.model.train import train_model
from repro.serving.errors import KeyAccessError, UnknownTenantError
from repro.serving.registry import (
    CLASS_STATE_FILE,
    MODEL_FILE,
    ModelRegistry,
    load_tenant,
    provision_tenant,
)


class TestProvision:
    def test_artifacts_on_disk(self, tenant_dir):
        assert (tenant_dir / "manifest.json").exists()
        assert (tenant_dir / "base_pool.npy").exists()
        assert (tenant_dir / MODEL_FILE).exists()
        assert (tenant_dir / CLASS_STATE_FILE).exists()
        meta = json.loads((tenant_dir / MODEL_FILE).read_text())
        assert meta["name"] == "alpha"
        assert meta["device_id"] == 0
        assert meta["binary"] is True
        assert meta["generation"] == 0
        assert len(meta["key_digest"]) == 64

    def test_keystore_is_private(self, tenant_dir):
        mode = os.stat(tenant_dir / "keystore").st_mode & 0o777
        assert mode == 0o700

    def test_classifier_encoder_mismatch_refused(
        self, tmp_path, locked_system, tiny_dataset, small_encoder
    ):
        training = train_model(
            small_encoder,
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            n_classes=tiny_dataset.n_classes,
            rng=0,
        )
        with pytest.raises(ConfigurationError, match="different encoder"):
            provision_tenant(
                tmp_path / "bad", "bad", locked_system, training.model
            )


class TestLoadRoundTrip:
    def test_replicas_are_bit_identical(self, tenant_dir, tiny_dataset):
        first = load_tenant(tenant_dir)
        second = load_tenant(tenant_dir)
        rows = tiny_dataset.test_x
        np.testing.assert_array_equal(
            first.encoder.encode_batch_packed(rows),
            second.encoder.encode_batch_packed(rows),
        )
        np.testing.assert_array_equal(
            first.classifier.predict(rows), second.classifier.predict(rows)
        )

    def test_replica_matches_original_class_memory(self, provisioned):
        replica = load_tenant(provisioned.directory)
        # The trained state round-trips exactly: the accumulators are the
        # originals, and the binary class memory is Eq. 3 of them.
        np.testing.assert_array_equal(
            replica.classifier.class_accumulators,
            provisioned.original.class_accumulators,
        )
        np.testing.assert_array_equal(
            replica.classifier.class_matrix,
            provisioned.original.class_matrix,
        )

    def test_name_override(self, tenant_dir):
        tenant = load_tenant(tenant_dir, name="renamed")
        assert tenant.name == "renamed"

    def test_malformed_metadata(self, tenant_dir):
        (tenant_dir / MODEL_FILE).write_text("{not json")
        with pytest.raises(ConfigurationError, match="malformed"):
            load_tenant(tenant_dir)

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no serving metadata"):
            load_tenant(tmp_path / "nowhere")

    def test_future_version_refused(self, tenant_dir):
        meta = json.loads((tenant_dir / MODEL_FILE).read_text())
        meta["version"] = 99
        (tenant_dir / MODEL_FILE).write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="version 99"):
            load_tenant(tenant_dir)

    def test_version_one_tenant_refused(self, tenant_dir):
        # Version 1 tenants carried a binarized class snapshot with rolled
        # sign(0) ties; this build derives the class memory from the
        # accumulators and refuses them rather than serve mixed ties.
        meta = json.loads((tenant_dir / MODEL_FILE).read_text())
        assert meta["version"] == 2
        meta["version"] = 1
        (tenant_dir / MODEL_FILE).write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="version 1 unsupported"):
            load_tenant(tenant_dir)


class TestLifecycleGate:
    def test_fresh_tenant_passes(self, tenant_dir):
        load_tenant(tenant_dir).check_access()

    def test_revoked_device_is_denied_not_crashed(self, tenant_dir):
        tenant = load_tenant(tenant_dir)
        tenant.store.revoke(tenant.device_id)
        with pytest.raises(KeyAccessError) as excinfo:
            tenant.check_access()
        payload = excinfo.value.to_payload()
        assert payload["reason"] == "revoked"
        assert payload["device_id"] == tenant.device_id
        # A revoked tenant still *loads* (403 is a request-time answer).
        reloaded = load_tenant(tenant_dir)
        with pytest.raises(KeyAccessError):
            reloaded.check_access()

    def test_rotated_device_is_denied_with_generations(self, tenant_dir):
        tenant = load_tenant(tenant_dir)
        tenant.store.rotate(tenant.device_id, rng=99)
        with pytest.raises(KeyAccessError) as excinfo:
            tenant.check_access()
        payload = excinfo.value.to_payload()
        assert payload["reason"] == "rotated"
        assert payload["generation"] == 1
        assert payload["provisioned_generation"] == 0

    def test_gate_fast_path_still_sees_rotation(self, tenant_dir):
        # The digest check is cached per store generation; a rotation
        # after a passing check must invalidate that cache, not be
        # masked by it.
        tenant = load_tenant(tenant_dir)
        tenant.check_access()
        tenant.check_access()  # second pass rides the cached digest
        tenant.store.rotate(tenant.device_id, rng=3)
        with pytest.raises(KeyAccessError, match="rotated"):
            tenant.check_access()

    def test_reprovision_after_rotation_restores_access(
        self, provisioned, locked_system, tiny_dataset
    ):
        stale = load_tenant(provisioned.directory)
        stale.store.rotate(stale.device_id, rng=99)
        # Even a *reload* stays denied: the class memory on disk was
        # trained under the retired key, so serving it under the rotated
        # one would silently infer in the wrong feature space.
        with pytest.raises(KeyAccessError):
            load_tenant(provisioned.directory).check_access()
        # The documented recovery: re-lock, retrain, re-provision.
        rotated = rotate_system(locked_system, rng=11)
        training = train_model(
            rotated.encoder,
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            n_classes=tiny_dataset.n_classes,
            retrain_epochs=1,
            rng=12,
        )
        provision_tenant(provisioned.directory, "alpha", rotated, training.model)
        fresh = load_tenant(provisioned.directory)
        fresh.check_access()
        assert fresh.device_id == 1  # the rotated key's store slot
        assert fresh.classifier.predict(tiny_dataset.test_x[:2]).shape == (2,)


class TestRegistry:
    def test_get_unknown_tenant(self, registry):
        with pytest.raises(UnknownTenantError) as excinfo:
            registry.get("ghost")
        assert excinfo.value.to_payload()["tenants"] == ["alpha"]

    def test_duplicate_name_refused(self, registry, tenant_dir):
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.load(tenant_dir)

    def test_load_registers(self, tenant_dir):
        registry = ModelRegistry()
        tenant = registry.load(tenant_dir, name="beta")
        assert registry.names() == ["beta"]
        assert registry.get("beta") is tenant
        assert len(registry) == 1

    def test_descriptor_schema(self, registry):
        payload = registry.get("alpha").descriptor().to_dict()
        assert payload["name"] == "alpha"
        assert payload["dim"] == 1024
        assert payload["n_features"] == 40
        assert payload["revoked"] is False
