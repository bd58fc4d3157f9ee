"""Fleet-scale packed key store: mmap random access over millions of keys.

One JSON file per key (:meth:`~repro.memory.key.LockKey.to_json`)
tops out at thousands of devices — a million-device fleet needs a
store that is compact at rest and O(1) to read. This module provides
it:

* **fixed-stride packed records** — each device's key is its ``N * L``
  (index, rotation) pairs bit-packed at the information-theoretic width
  ``ceil(log2 P) + ceil(log2 D)`` bits per pair (the
  :meth:`~repro.memory.key.LockKey.storage_bits` accounting), rounded up
  to whole bytes per record. Same packed-word discipline as
  :mod:`repro.hv.packing`, applied to key material instead of
  hypervectors: at-rest size stays within a byte of the floor.
* **memory-mapped random access** — records are fixed-stride, so device
  ``i`` lives at byte offset ``i * stride``; :meth:`KeyStore.key` is one
  mmap slice + one vectorized unpack, never a full-file read.
* **bulk append** — a :class:`~repro.memory.key.KeyBatch` lands as one
  packbits pass + one sequential write, which is what makes provisioning
  a fleet I/O-bound instead of Python-bound.
* **lifecycle state in the header** — the revocation list and the
  rotation generation counter persist in ``keystore.json`` next to the
  shape metadata, so reopening a store restores the full lifecycle
  state, not just key bytes.

Key material is secret: the store directory's files are created
``0o600`` (and the directory ``0o700``), so no key is ever
world-readable, even while it transits an owner-side filesystem.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError, KeyFormatError
from repro.memory.key import KeyBatch, LockKey, storage_bits_per_key
from repro.utils.rng import SeedLike

#: File names inside a key store directory.
HEADER_FILE = "keystore.json"
DATA_FILE = "keys.bin"

#: Store format identity and version, checked on open.
MAGIC = "hdlock-keystore"
FORMAT_VERSION = 1

#: Devices packed per vectorized packbits pass during bulk append —
#: bounds the transient bit matrix to a few hundred MB at fleet shape.
APPEND_CHUNK = 8192


def _bits_for(cardinality: int) -> int:
    """Bits needed to address ``cardinality`` values (min 1)."""
    return max(math.ceil(math.log2(cardinality)), 1)


def _secure_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` with owner-only permissions."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)
    os.chmod(path, 0o600)


class KeyStore:
    """Memory-mapped, fixed-stride store of per-device HDLock keys.

    Construct with :meth:`create` (new store) or :meth:`open` (existing
    directory); the constructor itself is internal.
    """

    def __init__(
        self,
        directory: Path,
        n_features: int,
        layers: int,
        pool_size: int,
        dim: int,
        n_devices: int,
        generation: int,
        revoked: set[int],
    ) -> None:
        self.directory = Path(directory)
        self.n_features = int(n_features)
        self.layers = int(layers)
        self.pool_size = int(pool_size)
        self.dim = int(dim)
        self.n_devices = int(n_devices)
        self.generation = int(generation)
        self.revoked = set(int(d) for d in revoked)
        self.index_bits = _bits_for(self.pool_size)
        self.rotation_bits = _bits_for(self.dim)
        self._records: np.memmap | None = None

    # -- lifecycle of the store itself ---------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        n_features: int,
        layers: int,
        pool_size: int,
        dim: int,
    ) -> "KeyStore":
        """Create an empty store for keys of the given shape."""
        if min(n_features, layers, pool_size, dim) < 1:
            raise ConfigurationError(
                f"store shape must be positive, got N={n_features} "
                f"L={layers} P={pool_size} D={dim}"
            )
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        os.chmod(path, 0o700)
        if (path / HEADER_FILE).exists():
            raise ConfigurationError(f"key store already exists at {path}")
        store = cls(
            path, n_features, layers, pool_size, dim,
            n_devices=0, generation=0, revoked=set(),
        )
        _secure_write_bytes(path / DATA_FILE, b"")
        store._write_header()
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "KeyStore":
        """Open an existing store, validating header and data length."""
        path = Path(directory)
        header_path = path / HEADER_FILE
        try:
            payload = json.loads(header_path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"no key store at {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise KeyFormatError(
                f"malformed key store header {header_path}: {exc}"
            ) from exc
        try:
            if payload["magic"] != MAGIC:
                raise KeyFormatError(
                    f"{header_path} is not an hdlock key store "
                    f"(magic {payload['magic']!r})"
                )
            if int(payload["version"]) != FORMAT_VERSION:
                raise KeyFormatError(
                    f"key store version {payload['version']} unsupported "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            store = cls(
                path,
                n_features=int(payload["n_features"]),
                layers=int(payload["layers"]),
                pool_size=int(payload["pool_size"]),
                dim=int(payload["dim"]),
                n_devices=int(payload["n_devices"]),
                generation=int(payload["generation"]),
                revoked=set(int(d) for d in payload["revoked"]),
            )
            declared_stride = int(payload["stride_bytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise KeyFormatError(
                f"malformed key store header {header_path}: {exc}"
            ) from exc
        if declared_stride != store.stride_bytes:
            raise KeyFormatError(
                f"header stride {declared_stride} inconsistent with shape "
                f"(expected {store.stride_bytes} bytes/key)"
            )
        data_path = path / DATA_FILE
        try:
            actual = data_path.stat().st_size
        except OSError as exc:
            raise ConfigurationError(
                f"key store data file missing at {data_path}: {exc}"
            ) from exc
        expected = store.n_devices * store.stride_bytes
        if actual != expected:
            raise KeyFormatError(
                f"key store data is {actual} bytes but header declares "
                f"{store.n_devices} devices x {store.stride_bytes} bytes"
            )
        bad_revoked = [d for d in store.revoked if not 0 <= d < store.n_devices]
        if bad_revoked:
            raise KeyFormatError(
                f"revocation list names unknown devices {sorted(bad_revoked)}"
            )
        return store

    def _write_header(self) -> None:
        payload = {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            "n_features": self.n_features,
            "layers": self.layers,
            "pool_size": self.pool_size,
            "dim": self.dim,
            "n_devices": self.n_devices,
            "stride_bytes": self.stride_bytes,
            "generation": self.generation,
            "revoked": sorted(self.revoked),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _secure_write_bytes(self.directory / HEADER_FILE, text.encode())

    def close(self) -> None:
        """Drop the data mmap (header state is already on disk)."""
        self._records = None

    # -- geometry ------------------------------------------------------

    @property
    def pair_bits(self) -> int:
        """Packed width of one (index, rotation) pair in bits."""
        return self.index_bits + self.rotation_bits

    @property
    def stride_bytes(self) -> int:
        """Fixed on-disk record size of one device's key."""
        return -(-(self.n_features * self.layers * self.pair_bits) // 8)

    def storage_floor_bits(self) -> int:
        """Information-theoretic bits per key (the 1.0x reference)."""
        return storage_bits_per_key(
            self.n_features, self.layers, self.pool_size, self.dim
        )

    def __len__(self) -> int:
        return self.n_devices

    # -- record packing ------------------------------------------------

    def _pack_records(
        self, indices: np.ndarray, rotations: np.ndarray
    ) -> np.ndarray:
        """Bit-pack ``(B, N, L)`` key arrays into ``(B, stride)`` bytes."""
        batch = indices.shape[0]
        codes = (
            indices.astype(np.uint64) << np.uint64(self.rotation_bits)
        ) | rotations.astype(np.uint64)
        shifts = np.arange(
            self.pair_bits - 1, -1, -1, dtype=np.uint64
        )
        bits = (
            (codes.reshape(batch, -1)[:, :, None] >> shifts) & np.uint64(1)
        ).astype(np.uint8)
        return np.packbits(  # reprolint: disable=RL002 -- packs key-code records for at-rest storage, not HV bit-planes; never on the inference hot path
            bits.reshape(batch, -1), axis=-1
        )

    def _unpack_records(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`_pack_records`: ``(B, stride)`` bytes to
        ``(B, N, L)`` index/rotation arrays."""
        batch = rows.shape[0]
        n_pairs = self.n_features * self.layers
        bits = np.unpackbits(  # reprolint: disable=RL002 -- unpacks key-code records read from the store, not HV bit-planes; never on the inference hot path
            np.ascontiguousarray(rows), axis=-1, count=n_pairs * self.pair_bits
        ).reshape(batch, n_pairs, self.pair_bits)
        weights = np.uint64(1) << np.arange(
            self.pair_bits - 1, -1, -1, dtype=np.uint64
        )
        codes = (bits.astype(np.uint64) * weights).sum(
            axis=-1, dtype=np.uint64
        )
        shape = (batch, self.n_features, self.layers)
        indices = (codes >> np.uint64(self.rotation_bits)).astype(
            np.int64
        ).reshape(shape)
        rotations = (
            codes & np.uint64((1 << self.rotation_bits) - 1)
        ).astype(np.int64).reshape(shape)
        return indices, rotations

    def _mmap(self) -> np.memmap:
        if self._records is None or self._records.shape[0] != self.n_devices:
            self._records = np.memmap(
                self.directory / DATA_FILE,
                dtype=np.uint8,
                mode="r+",
                shape=(self.n_devices, self.stride_bytes),
            )
        return self._records

    # -- key access ----------------------------------------------------

    def _check_device(self, device_id: int) -> int:
        device = int(device_id)
        if not 0 <= device < self.n_devices:
            raise ConfigurationError(
                f"device id {device} outside store of {self.n_devices} devices"
            )
        return device

    def arrays(self, device_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """O(1) read of one device's ``(N, L)`` index/rotation arrays."""
        device = self._check_device(device_id)
        row = np.asarray(self._mmap()[device])[None, :]
        indices, rotations = self._unpack_records(row)
        return indices[0], rotations[0]

    def key(self, device_id: int, allow_revoked: bool = False) -> LockKey:
        """The :class:`LockKey` of one device.

        Revoked devices refuse to load (a revoked key must never reach a
        service path) unless ``allow_revoked`` is set, e.g. for audits.
        """
        device = self._check_device(device_id)
        if device in self.revoked and not allow_revoked:
            raise KeyFormatError(
                f"device {device} is revoked; its key no longer loads"
            )
        indices, rotations = self.arrays(device)
        return LockKey.from_arrays(
            indices, rotations, self.pool_size, self.dim
        )

    def __iter__(self) -> Iterator[LockKey]:
        for device in range(self.n_devices):
            yield self.key(device, allow_revoked=True)

    # -- provisioning / lifecycle --------------------------------------

    def _check_batch(self, batch: KeyBatch) -> None:
        if (
            batch.n_features != self.n_features
            or batch.layers != self.layers
            or batch.pool_size != self.pool_size
            or batch.dim != self.dim
        ):
            raise KeyFormatError(
                f"batch shape (N={batch.n_features}, L={batch.layers}, "
                f"P={batch.pool_size}, D={batch.dim}) does not match store "
                f"(N={self.n_features}, L={self.layers}, "
                f"P={self.pool_size}, D={self.dim})"
            )

    def append(self, batch: KeyBatch) -> range:
        """Bulk-append a key batch; returns the assigned device id range.

        One packbits pass per :data:`APPEND_CHUNK` devices plus one
        sequential write — no per-device Python work.
        """
        self._check_batch(batch)
        first = self.n_devices
        self._records = None  # invalidate before the file grows
        with open(self.directory / DATA_FILE, "ab") as fh:
            for start in range(0, batch.n_devices, APPEND_CHUNK):
                stop = min(start + APPEND_CHUNK, batch.n_devices)
                fh.write(
                    self._pack_records(
                        batch.indices[start:stop], batch.rotations[start:stop]
                    ).tobytes()
                )
        self.n_devices += batch.n_devices
        self._write_header()
        return range(first, self.n_devices)

    def append_key(self, key: LockKey) -> int:
        """Append a single key; returns its assigned device id."""
        indices, rotations = key.to_arrays()
        batch = KeyBatch(
            indices[None, :, :], rotations[None, :, :], key.pool_size, key.dim
        )
        return self.append(batch)[0]

    def revoke(self, device_id: int) -> None:
        """Persistently revoke a device's key (idempotent)."""
        device = self._check_device(device_id)
        if device not in self.revoked:
            self.revoked.add(device)
            self._write_header()

    def is_revoked(self, device_id: int) -> bool:
        """Whether a device's key is on the revocation list."""
        return self._check_device(device_id) in self.revoked

    def rotate(self, device_id: int, rng: SeedLike = None) -> LockKey:
        """Replace one device's key with a fresh draw, in place.

        Fixed-stride records make rotation O(1): the new key overwrites
        the device's record bytes, the store's rotation ``generation``
        counter bumps, and a prior revocation of the device is lifted
        (the compromised key it named no longer exists). Returns the new
        key; re-locking the deployed encoder with it is
        :func:`repro.hdlock.lock.rotate_system`'s job.
        """
        from repro.hdlock.keygen import generate_keys

        device = self._check_device(device_id)
        fresh = generate_keys(
            1, self.n_features, self.layers, self.pool_size, self.dim, rng
        )
        records = self._mmap()
        records[device] = self._pack_records(
            fresh.indices, fresh.rotations
        )[0]
        records.flush()
        self.generation += 1
        self.revoked.discard(device)
        self._write_header()
        return fresh.key(0)

    def __repr__(self) -> str:
        return (
            f"KeyStore({self.n_devices} devices, N={self.n_features}, "
            f"L={self.layers}, P={self.pool_size}, D={self.dim}, "
            f"{self.stride_bytes} B/key, generation={self.generation}, "
            f"{len(self.revoked)} revoked)"
        )
