"""Tests for deployment provisioning (bundle save/load, key separation)."""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, KeyFormatError
from repro.hdlock import provisioning
from repro.hdlock.keygen import generate_keys
from repro.hdlock.lock import create_locked_encoder
from repro.hdlock.provisioning import (
    KEYSTORE_DIR,
    MANIFEST_FILE,
    POOL_FILE,
    VALUES_FILE,
    BundleManifest,
    load_fleet_key,
    load_public_bundle,
    open_fleet_store,
    restore_device_encoder,
    restore_encoder,
    save_fleet_keys,
    save_public_bundle,
)
from repro.hv.packing import PACKED_WORD_DTYPE, packed_word_width

N, M, D = 16, 5, 512


@pytest.fixture
def system():
    return create_locked_encoder(N, M, D, layers=2, rng=0)


class TestSaveLoadRoundtrip:
    def test_bundle_roundtrip(self, system, tmp_path):
        manifest = save_public_bundle(tmp_path, system.encoder)
        pool, values, loaded_manifest = load_public_bundle(tmp_path)
        np.testing.assert_array_equal(pool, system.base_pool)
        np.testing.assert_array_equal(
            values.matrix, system.encoder.level_memory.matrix
        )
        assert loaded_manifest == manifest

    def test_restore_encoder_is_equivalent(self, system, tmp_path):
        # D = 100 leaves 28 pad bits in each row's last word.
        odd = create_locked_encoder(N, M, 100, layers=2, rng=0)
        for name, locked in (("word-aligned", system), ("padded", odd)):
            save_public_bundle(tmp_path / name, locked.encoder)
            restored = restore_encoder(tmp_path / name, locked.key)
            sample = np.random.default_rng(2).integers(0, M, N)
            np.testing.assert_array_equal(
                restored.encode_nonbinary(sample),
                locked.encoder.encode_nonbinary(sample),
            )

    def test_key_not_in_public_bundle(self, system, tmp_path):
        """The public bundle must never contain key material."""
        save_public_bundle(tmp_path, system.encoder)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {POOL_FILE, VALUES_FILE, MANIFEST_FILE}

    def test_bundle_is_bit_packed(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        stored = np.load(tmp_path / POOL_FILE)
        assert stored.dtype == PACKED_WORD_DTYPE
        assert stored.nbytes == N * packed_word_width(D) * 8


class TestIntegrity:
    def test_tampered_pool_detected(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        packed = np.load(tmp_path / POOL_FILE)
        packed[0, 0] ^= 0xFF
        np.save(tmp_path / POOL_FILE, packed)
        with pytest.raises(ConfigurationError, match="integrity"):
            load_public_bundle(tmp_path)

    def test_tampered_values_detected(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        packed = np.load(tmp_path / "value_memory.npy")
        packed[1, 3] ^= 0x01
        np.save(tmp_path / "value_memory.npy", packed)
        with pytest.raises(ConfigurationError, match="integrity"):
            load_public_bundle(tmp_path)

    def test_malformed_manifest(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        (tmp_path / MANIFEST_FILE).write_text("{\"dim\": 512}")
        with pytest.raises(ConfigurationError):
            load_public_bundle(tmp_path)

    def test_manifest_json_roundtrip(self, system, tmp_path):
        manifest = save_public_bundle(tmp_path, system.encoder)
        parsed = BundleManifest.from_json(manifest.to_json())
        assert parsed == manifest

    def test_wrong_key_shape_rejected(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        from repro.hdlock.keygen import generate_key

        wrong_dim_key = generate_key(N, 2, N, D * 2, rng=3)
        with pytest.raises(KeyFormatError):
            restore_encoder(tmp_path, wrong_dim_key)

    def test_manifest_is_readable_json(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        payload = json.loads((tmp_path / MANIFEST_FILE).read_text())
        assert payload["dim"] == D
        assert payload["pool_size"] == N


class TestErrorContract:
    """Loaders raise repro errors, never raw OSError/ValueError."""

    def test_missing_bundle_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unreadable"):
            load_public_bundle(tmp_path / "nowhere")

    def test_missing_pool_file(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        (tmp_path / POOL_FILE).unlink()
        with pytest.raises(ConfigurationError, match="unreadable"):
            load_public_bundle(tmp_path)

    def test_truncated_pool_file(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        payload = (tmp_path / POOL_FILE).read_bytes()
        (tmp_path / POOL_FILE).write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ConfigurationError):
            load_public_bundle(tmp_path)

    def test_byte_row_bundle_refused(self, system, tmp_path, monkeypatch):
        """A bundle in the earlier uint8 byte-row layout, with digests
        that match its rows, is refused by dtype and never decoded."""
        save_public_bundle(tmp_path, system.encoder)
        manifest = json.loads((tmp_path / MANIFEST_FILE).read_text())
        for name, field in ((POOL_FILE, "pool_sha256"), (VALUES_FILE, "values_sha256")):
            byte_rows = np.ascontiguousarray(np.load(tmp_path / name).view(np.uint8))
            assert byte_rows.shape[1] == D // 8
            np.save(tmp_path / name, byte_rows)
            manifest[field] = hashlib.sha256(byte_rows.tobytes()).hexdigest()
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(manifest))

        def never_decode(*args, **kwargs):
            raise AssertionError("byte rows reached unpack_words")

        monkeypatch.setattr(provisioning, "unpack_words", never_decode)
        with pytest.raises(ConfigurationError, match="uint64"):
            load_public_bundle(tmp_path)

    def test_pool_wrong_dtype_rejected(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        np.save(tmp_path / POOL_FILE, np.zeros((N, D), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="packed"):
            load_public_bundle(tmp_path)


class TestManifestTamperMatrix:
    """Flip each manifest field: the cross-check (or digest) must fire
    with the exact declared error type before any unpacking happens."""

    def _tamper(self, tmp_path, field, value):
        manifest_path = tmp_path / MANIFEST_FILE
        payload = json.loads(manifest_path.read_text())
        payload[field] = value
        manifest_path.write_text(json.dumps(payload))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # dim 512 -> 513 changes the expected packed width (64 -> 65)
            ("dim", D + 1, "inconsistent"),
            ("pool_size", N + 1, "inconsistent"),
            ("levels", M + 1, "inconsistent"),
            ("pool_sha256", "0" * 64, "integrity"),
            ("values_sha256", "0" * 64, "integrity"),
        ],
    )
    def test_each_field_tamper_detected(
        self, system, tmp_path, field, value, message
    ):
        save_public_bundle(tmp_path, system.encoder)
        self._tamper(tmp_path, field, value)
        with pytest.raises(ConfigurationError, match=message):
            load_public_bundle(tmp_path)

    @pytest.mark.parametrize("field", ["dim", "pool_size", "levels"])
    def test_degenerate_shape_rejected(self, system, tmp_path, field):
        save_public_bundle(tmp_path, system.encoder)
        self._tamper(tmp_path, field, 0)
        with pytest.raises(ConfigurationError, match="degenerate"):
            load_public_bundle(tmp_path)

    def test_pad_bit_set_refused(self, tmp_path):
        """A pad bit set past D, with the digest recomputed to match,
        fails as a ConfigurationError like any other corrupt bundle."""
        odd = create_locked_encoder(N, M, 100, layers=2, rng=0)
        save_public_bundle(tmp_path, odd.encoder)
        packed = np.load(tmp_path / POOL_FILE)
        packed.view(np.uint8)[0, 15] |= 0x01  # bit 127 of row 0; D = 100
        np.save(tmp_path / POOL_FILE, packed)
        self._tamper(
            tmp_path, "pool_sha256", hashlib.sha256(packed.tobytes()).hexdigest()
        )
        with pytest.raises(ConfigurationError, match="dim=100"):
            load_public_bundle(tmp_path)

    def test_values_bit_flip_detected(self, system, tmp_path):
        save_public_bundle(tmp_path, system.encoder)
        packed = np.load(tmp_path / VALUES_FILE)
        packed[0, 0] ^= 0x80  # single bit
        np.save(tmp_path / VALUES_FILE, packed)
        with pytest.raises(ConfigurationError, match="integrity"):
            load_public_bundle(tmp_path)


class TestFleetProvisioning:
    DEVICES = 12

    @pytest.fixture
    def batch(self, system):
        return generate_keys(
            self.DEVICES, N, system.key.layers, N, D, rng=1
        )

    def test_fleet_roundtrip(self, tmp_path, batch):
        save_fleet_keys(tmp_path, batch)
        for device in (0, 5, self.DEVICES - 1):
            assert load_fleet_key(tmp_path, device) == batch.key(device)

    def test_store_lives_in_subdirectory(self, tmp_path, batch):
        save_fleet_keys(tmp_path, batch)
        assert (tmp_path / KEYSTORE_DIR).is_dir()

    def test_second_save_appends(self, tmp_path, batch):
        save_fleet_keys(tmp_path, batch)
        store = save_fleet_keys(tmp_path, batch)
        assert len(store) == 2 * self.DEVICES
        assert load_fleet_key(tmp_path, self.DEVICES + 2) == batch.key(2)

    def test_revoked_device_refused(self, tmp_path, batch):
        store = save_fleet_keys(tmp_path, batch)
        store.revoke(3)
        with pytest.raises(KeyFormatError, match="revoked"):
            load_fleet_key(tmp_path, 3)

    def test_restore_device_encoder(self, system, tmp_path, batch):
        save_public_bundle(tmp_path, system.encoder)
        save_fleet_keys(tmp_path, batch)
        encoder = restore_device_encoder(tmp_path, 4)
        sample = np.random.default_rng(3).integers(0, M, N)
        np.testing.assert_array_equal(
            encoder.encode_nonbinary(sample),
            restore_encoder(tmp_path, batch.key(4)).encode_nonbinary(
                sample
            ),
        )

    def test_open_fleet_store_missing(self, tmp_path):
        with pytest.raises(ConfigurationError):
            open_fleet_store(tmp_path)
