"""Tenancy: provision locked systems to disk and serve many at once.

One tenant = one directory holding the three artifacts a served locked
model needs, each with its PR 6 trust level:

* the **public bundle** (``base_pool.npy`` / ``value_memory.npy`` /
  ``manifest.json``) — :func:`repro.hdlock.provisioning.save_public_bundle`,
  integrity-checked on load;
* the **packed key store** (``keystore/``) — the mmap
  :class:`~repro.hdlock.keystore.KeyStore`; the tenant's device key
  lives here, and the store's header carries the revocation list and
  rotation generation that gate every request;
* the **class-memory state** (``class_state.npz`` + ``serving_model.json``)
  — the trained accumulators. Eq. 3 is a pure function of them, so a
  restored replica predicts bit-identically to the system that was
  provisioned.

Key resolution is re-checked per request via :meth:`Tenant.check_access`:
a revoked device answers 403, and a device whose stored key bytes no
longer match the provisioned fingerprint (i.e. the key was rotated
under the serving replica) also answers 403 with both generations in
the payload — a stale encoder must refuse rather than silently infer
under a retired key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.encoding.locked import LockedEncoder
from repro.errors import ConfigurationError
from repro.hdlock.keystore import HEADER_FILE, KeyStore
from repro.hdlock.lock import LockedSystem
from repro.hdlock.provisioning import (
    KEYSTORE_DIR,
    restore_encoder,
    save_public_bundle,
)
from repro.model.classifier import HDClassifier
from repro.serving.errors import KeyAccessError, UnknownTenantError
from repro.serving.schemas import TenantDescriptor

#: Serving-owned artifact names inside a tenant directory.
MODEL_FILE = "serving_model.json"
CLASS_STATE_FILE = "class_state.npz"

#: Tenant serving-metadata schema version. Version 1 tenants also stored
#: a binarized class snapshot with rolled sign(0) ties; version 2 stores
#: only the accumulators, so a version 1 directory is refused.
SERVING_FORMAT_VERSION = 2


def _record_digest(store: KeyStore, device_id: int) -> str:
    """Fingerprint of one device's key material as stored right now."""
    indices, rotations = store.arrays(device_id)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(indices).tobytes())
    digest.update(np.ascontiguousarray(rotations).tobytes())
    return digest.hexdigest()


@dataclass
class Tenant:
    """One served locked system plus the state guarding its key."""

    name: str
    directory: Path
    device_id: int
    encoder: LockedEncoder
    classifier: HDClassifier
    store: KeyStore
    #: Fingerprint of the key this tenant's encoder was derived from.
    key_digest: str
    #: Store rotation generation when the tenant was provisioned/loaded.
    generation: int
    #: Store generation at which :attr:`key_digest` last verified clean.
    #: Key bytes can only change through a rotation, and every rotation
    #: bumps the store-wide generation — so the (expensive) sha256 over
    #: the mmap record reruns exactly when the store state changed, not
    #: on every request.
    _verified_generation: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def check_access(self) -> None:
        """Gate one request on the key's current lifecycle state.

        Steady-state O(1): a header-set lookup plus a generation
        compare; the key-record fingerprint is re-verified whenever the
        store's rotation generation moves. Raises
        :class:`KeyAccessError` (→ 403) for a revoked device or for one
        whose key bytes were rotated after this tenant loaded.
        """
        if self.store.is_revoked(self.device_id):
            raise KeyAccessError(
                f"tenant {self.name!r}: device {self.device_id} is revoked",
                reason="revoked",
                device_id=self.device_id,
                generation=self.store.generation,
            )
        if self._verified_generation == self.store.generation:
            return
        if _record_digest(self.store, self.device_id) != self.key_digest:
            raise KeyAccessError(
                f"tenant {self.name!r}: device {self.device_id} key was "
                f"rotated (store generation {self.store.generation}, "
                f"tenant provisioned at generation {self.generation}); "
                f"re-provision the tenant",
                reason="rotated",
                device_id=self.device_id,
                generation=self.store.generation,
                provisioned_generation=self.generation,
            )
        self._verified_generation = self.store.generation

    def descriptor(self) -> TenantDescriptor:
        """The ``/v1/models`` entry for this tenant."""
        return TenantDescriptor(
            name=self.name,
            dim=self.encoder.dim,
            n_features=self.encoder.n_features,
            levels=self.encoder.levels,
            n_classes=self.classifier.n_classes,
            layers=self.encoder.layers,
            pool_size=self.encoder.pool_size,
            device_id=self.device_id,
            generation=self.store.generation,
            revoked=self.store.is_revoked(self.device_id),
        )


def provision_tenant(
    directory: str | Path,
    name: str,
    system: LockedSystem,
    classifier: HDClassifier,
) -> Tenant:
    """Persist a locked system + trained model as a servable tenant.

    Writes the public bundle, appends the system's key to the tenant's
    packed key store (creating it on first use), and snapshots the
    classifier's trained state. Returns the live :class:`Tenant` so the
    provisioning process can start serving without a reload.
    """
    if classifier.encoder is not system.encoder:
        raise ConfigurationError(
            "classifier was trained under a different encoder than the "
            "system being provisioned"
        )
    path = Path(directory)
    save_public_bundle(path, system.encoder)
    store_dir = path / KEYSTORE_DIR
    if (store_dir / HEADER_FILE).exists():
        store = KeyStore.open(store_dir)
    else:
        store = KeyStore.create(
            store_dir,
            n_features=system.key.n_features,
            layers=system.key.layers,
            pool_size=system.pool_size,
            dim=system.key.dim,
        )
    device_id = store.append_key(system.key)
    np.savez(path / CLASS_STATE_FILE, accumulators=classifier.class_accumulators)
    meta = {
        "version": SERVING_FORMAT_VERSION,
        "name": name,
        "device_id": device_id,
        "n_classes": classifier.n_classes,
        "binary": classifier.binary,
        "generation": store.generation,
        "key_digest": _record_digest(store, device_id),
    }
    (path / MODEL_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    return Tenant(
        name=name,
        directory=path,
        device_id=device_id,
        encoder=system.encoder,
        classifier=classifier,
        store=store,
        key_digest=meta["key_digest"],
        generation=store.generation,
    )


def load_tenant(directory: str | Path, name: str | None = None) -> Tenant:
    """Rebuild a servable tenant from :func:`provision_tenant` output.

    A revoked device still *loads* — requests against it must answer
    403, not crash the registry — so the key is read with
    ``allow_revoked`` and the gate lives in :meth:`Tenant.check_access`.
    """
    path = Path(directory)
    try:
        meta = json.loads((path / MODEL_FILE).read_text())
        version = int(meta["version"])
        device_id = int(meta["device_id"])
        n_classes = int(meta["n_classes"])
        binary = bool(meta["binary"])
        generation = int(meta["generation"])
        key_digest = str(meta["key_digest"])
        tenant_name = str(meta["name"]) if name is None else name
    except OSError as exc:
        raise ConfigurationError(
            f"no serving metadata at {path / MODEL_FILE}: {exc}"
        ) from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"malformed serving metadata {path / MODEL_FILE}: {exc}"
        ) from exc
    if version != SERVING_FORMAT_VERSION:
        raise ConfigurationError(
            f"serving metadata version {version} unsupported (this build "
            f"reads version {SERVING_FORMAT_VERSION})"
        )
    store = KeyStore.open(path / KEYSTORE_DIR)
    key = store.key(device_id, allow_revoked=True)
    encoder = restore_encoder(path, key)
    try:
        with np.load(path / CLASS_STATE_FILE) as state:
            accumulators = np.asarray(state["accumulators"])
    except OSError as exc:
        raise ConfigurationError(
            f"class-memory state unreadable at {path / CLASS_STATE_FILE}: "
            f"{exc}"
        ) from exc
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"class-memory state at {path / CLASS_STATE_FILE} is corrupt: "
            f"{exc}"
        ) from exc
    classifier = HDClassifier(encoder, n_classes=n_classes, binary=binary)
    classifier.load_accumulators(accumulators)
    return Tenant(
        name=tenant_name,
        directory=path,
        device_id=device_id,
        encoder=encoder,
        classifier=classifier,
        store=store,
        key_digest=key_digest,
        generation=generation,
    )


class ModelRegistry:
    """Name → :class:`Tenant` mapping behind the service core."""

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}

    def add(self, tenant: Tenant) -> Tenant:
        """Register a tenant; duplicate names are a configuration bug."""
        if tenant.name in self._tenants:
            raise ConfigurationError(
                f"tenant {tenant.name!r} is already registered"
            )
        self._tenants[tenant.name] = tenant
        return tenant

    def load(
        self, directory: str | Path, name: str | None = None
    ) -> Tenant:
        """Load a provisioned tenant directory and register it."""
        return self.add(load_tenant(directory, name))

    def get(self, name: str) -> Tenant:
        """Resolve a tenant or raise :class:`UnknownTenantError` (→ 404)."""
        try:
            return self._tenants[name]
        except KeyError:
            raise UnknownTenantError(
                f"unknown tenant {name!r}",
                tenants=sorted(self._tenants),
            ) from None

    def names(self) -> list[str]:
        return sorted(self._tenants)

    def status(self) -> dict:
        """Key-lifecycle snapshot per tenant (the ``/statusz`` section).

        Surfaces exactly the state :meth:`Tenant.check_access` gates on:
        the store's *live* rotation generation next to the generation the
        tenant was provisioned at (they diverge when a rotation ran under
        the serving replica) and the device's revocation flag.
        """
        return {
            name: {
                "device_id": tenant.device_id,
                "generation": tenant.store.generation,
                "provisioned_generation": tenant.generation,
                "revoked": tenant.store.is_revoked(tenant.device_id),
            }
            for name, tenant in sorted(self._tenants.items())
        }

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())


__all__ = [
    "CLASS_STATE_FILE",
    "MODEL_FILE",
    "ModelRegistry",
    "Tenant",
    "load_tenant",
    "provision_tenant",
]
