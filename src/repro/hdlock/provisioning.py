"""Deployment provisioning: persist the public bundle and the keys apart.

A real HDLock rollout writes two artifacts with different trust levels:

* the **public bundle** — base pool and value memory as
  :func:`~repro.hv.packing.pack_words` rows (``(K, ceil(D/64))``
  uint64) plus a manifest with shapes and SHA-256 checksums. This goes
  to ordinary device flash; per the threat model the adversary can read
  all of it.
* the **key material** — a packed, owner-only
  :class:`~repro.hdlock.keystore.KeyStore` of device keys
  (:func:`save_fleet_keys`), destined for the tamper-proof store and
  never shipped next to the bundle.

Loading verifies the checksums, so a tampered pool (a known class of
attacks against stored models) is detected before the encoder is
reconstructed, and cross-checks the manifest's declared shapes against
the arrays actually on disk, so a manifest inconsistent with its
payload fails loudly instead of unpacking garbage. Every loader honors
the package error contract: missing or truncated files surface as
:class:`ConfigurationError` (bundle) or :class:`KeyFormatError` (key
material), never as raw ``OSError``/``ValueError``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.encoding.locked import LockedEncoder
from repro.errors import ConfigurationError, DimensionMismatchError, KeyFormatError
from repro.hdlock.keystore import HEADER_FILE, KeyStore
from repro.hv.packing import (
    PACKED_WORD_DTYPE,
    pack_words,
    packed_word_width,
    unpack_words,
)
from repro.memory.item_memory import LevelMemory
from repro.memory.key import KeyBatch, LockKey

#: File names inside a bundle directory.
POOL_FILE = "base_pool.npy"
VALUES_FILE = "value_memory.npy"
MANIFEST_FILE = "manifest.json"

#: Subdirectory holding the fleet key store.
KEYSTORE_DIR = "keystore"


@dataclass(frozen=True)
class BundleManifest:
    """Shapes and integrity digests of a public bundle."""

    dim: int
    pool_size: int
    levels: int
    pool_sha256: str
    values_sha256: str

    def to_json(self) -> str:
        """Serialize the manifest."""
        return json.dumps(
            {
                "dim": self.dim,
                "pool_size": self.pool_size,
                "levels": self.levels,
                "pool_sha256": self.pool_sha256,
                "values_sha256": self.values_sha256,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "BundleManifest":
        """Parse a manifest; raises on malformed content."""
        try:
            payload = json.loads(text)
            manifest = cls(
                dim=int(payload["dim"]),
                pool_size=int(payload["pool_size"]),
                levels=int(payload["levels"]),
                pool_sha256=str(payload["pool_sha256"]),
                values_sha256=str(payload["values_sha256"]),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"malformed bundle manifest: {exc}") from exc
        if min(manifest.dim, manifest.pool_size, manifest.levels) < 1:
            raise ConfigurationError(
                f"bundle manifest declares a degenerate shape: dim="
                f"{manifest.dim}, pool_size={manifest.pool_size}, "
                f"levels={manifest.levels}"
            )
        return manifest


def _digest(packed: np.ndarray) -> str:
    return hashlib.sha256(packed.tobytes()).hexdigest()


def save_public_bundle(
    directory: str | Path, encoder: LockedEncoder
) -> BundleManifest:
    """Write the encoder's public memories (bit-packed) plus manifest.

    The key is deliberately *not* written here; see
    :func:`save_fleet_keys`.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    packed_pool = pack_words(encoder.base_pool)
    packed_values = pack_words(encoder.level_memory.matrix)
    np.save(path / POOL_FILE, packed_pool)
    np.save(path / VALUES_FILE, packed_values)
    manifest = BundleManifest(
        dim=encoder.dim,
        pool_size=int(encoder.base_pool.shape[0]),
        levels=encoder.levels,
        pool_sha256=_digest(packed_pool),
        values_sha256=_digest(packed_values),
    )
    (path / MANIFEST_FILE).write_text(manifest.to_json())
    return manifest


def _load_packed(path: Path, what: str) -> np.ndarray:
    """Load one packed ``.npy`` array, normalizing failure modes."""
    try:
        arr = np.load(path)
    except OSError as exc:
        raise ConfigurationError(f"bundle {what} unreadable at {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(
            f"bundle {what} at {path} is corrupt or truncated: {exc}"
        ) from exc
    if arr.ndim != 2 or arr.dtype != PACKED_WORD_DTYPE:
        raise ConfigurationError(
            f"bundle {what} at {path} is not a packed (K, ceil(D/64)) uint64 "
            f"array (got shape {arr.shape}, dtype {arr.dtype})"
        )
    return arr


def load_public_bundle(
    directory: str | Path,
) -> tuple[np.ndarray, LevelMemory, BundleManifest]:
    """Read and integrity-check a public bundle.

    Raises :class:`ConfigurationError` when any piece is missing or
    corrupt, when the manifest's declared shapes disagree with the
    arrays actually loaded, or when a checksum does not match — a
    tampered pool must never silently reach the encoder.
    """
    path = Path(directory)
    try:
        manifest_text = (path / MANIFEST_FILE).read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"bundle manifest unreadable at {path / MANIFEST_FILE}: {exc}"
        ) from exc
    manifest = BundleManifest.from_json(manifest_text)
    packed_pool = _load_packed(path / POOL_FILE, "base pool")
    packed_values = _load_packed(path / VALUES_FILE, "value memory")
    # Cross-check declared shapes against the loaded arrays *before*
    # unpacking: words packed for a different width must never decode.
    packed_width = packed_word_width(manifest.dim)
    if packed_pool.shape != (manifest.pool_size, packed_width):
        raise ConfigurationError(
            f"base pool shape {packed_pool.shape} inconsistent with "
            f"manifest (pool_size={manifest.pool_size}, dim={manifest.dim} "
            f"-> expected {(manifest.pool_size, packed_width)})"
        )
    if packed_values.shape != (manifest.levels, packed_width):
        raise ConfigurationError(
            f"value memory shape {packed_values.shape} inconsistent with "
            f"manifest (levels={manifest.levels}, dim={manifest.dim} "
            f"-> expected {(manifest.levels, packed_width)})"
        )
    if _digest(packed_pool) != manifest.pool_sha256:
        raise ConfigurationError(
            f"base pool in {path} fails its integrity check"
        )
    if _digest(packed_values) != manifest.values_sha256:
        raise ConfigurationError(
            f"value memory in {path} fails its integrity check"
        )
    try:
        pool = unpack_words(packed_pool, manifest.dim)
        values = unpack_words(packed_values, manifest.dim)
    except DimensionMismatchError as exc:
        raise ConfigurationError(
            f"bundle in {path} does not decode at dim={manifest.dim}: {exc}"
        ) from exc
    return pool, LevelMemory(values), manifest


def save_fleet_keys(directory: str | Path, batch: KeyBatch) -> KeyStore:
    """Persist a fleet key batch into the bundle's packed key store.

    Creates ``directory/keystore`` on first use (appends on subsequent
    calls) and bulk-appends the batch. The store lives apart from the
    public bundle trust-wise — callers ship the bundle, not this
    directory.
    """
    store_dir = Path(directory) / KEYSTORE_DIR
    if (store_dir / HEADER_FILE).exists():
        store = KeyStore.open(store_dir)
    else:
        store = KeyStore.create(
            store_dir,
            n_features=batch.n_features,
            layers=batch.layers,
            pool_size=batch.pool_size,
            dim=batch.dim,
        )
    store.append(batch)
    return store


def open_fleet_store(directory: str | Path) -> KeyStore:
    """Open the key store provisioned under ``directory`` by
    :func:`save_fleet_keys`."""
    return KeyStore.open(Path(directory) / KEYSTORE_DIR)


def load_fleet_key(directory: str | Path, device_id: int) -> LockKey:
    """O(1) load of one device's key from the fleet store.

    Refuses revoked devices (:class:`KeyFormatError`), so a service path
    using this helper can never hand out a revoked key.
    """
    return open_fleet_store(directory).key(device_id)


def restore_encoder(directory: str | Path, key: LockKey) -> LockedEncoder:
    """Rebuild the locked encoder from a bundle directory plus its key.

    The key is validated against the bundle's shape (a key for a
    different pool must not quietly derive garbage features).
    """
    pool, values, manifest = load_public_bundle(directory)
    if key.dim != manifest.dim or key.pool_size > manifest.pool_size:
        raise KeyFormatError(
            f"key (P<={key.pool_size}, D={key.dim}) does not fit bundle "
            f"(P={manifest.pool_size}, D={manifest.dim})"
        )
    return LockedEncoder(pool, values, key)


def restore_device_encoder(directory: str | Path, device_id: int) -> LockedEncoder:
    """Rebuild one fleet device's locked encoder: bundle + store key."""
    return restore_encoder(directory, load_fleet_key(directory, device_id))
