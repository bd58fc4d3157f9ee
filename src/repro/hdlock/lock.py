"""High-level HDLock API: build or retrofit a locked encoding module.

Two entry points:

* :func:`create_locked_encoder` — greenfield deployment: generate a base
  pool, a key, and the locked encoder in one call;
* :func:`lock_encoder` — retrofit: take an existing unprotected
  :class:`~repro.encoding.record.RecordEncoder` and produce a locked
  replacement sharing its level memory. The derived feature HVs differ
  from the original ones, so any trained class hypervectors must be
  retrained — :func:`lock_model` bundles that step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encoding.locked import LockedEncoder
from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError
from repro.hdlock.keygen import generate_key
from repro.hv.random import random_pool
from repro.memory.key import LockKey
from repro.memory.secure import SecureMemory
from repro.model.train import TrainingResult, train_model
from repro.utils.rng import SeedLike, spawn_rngs


@dataclass(frozen=True)
class LockedSystem:
    """A deployed HDLock encoding module and its secret."""

    encoder: LockedEncoder
    key: LockKey
    base_pool: np.ndarray
    secure_memory: SecureMemory

    @property
    def layers(self) -> int:
        """Key depth ``L``."""
        return self.key.layers

    @property
    def pool_size(self) -> int:
        """Base pool size ``P``."""
        return self.key.pool_size


def create_locked_encoder(
    n_features: int,
    levels: int,
    dim: int,
    layers: int,
    pool_size: int | None = None,
    rng: SeedLike = None,
) -> LockedSystem:
    """Generate pool, key, level memory and the locked encoder.

    ``pool_size`` defaults to ``n_features`` — the paper's evaluation
    setting (``P = N``), under which the base pool is exactly as large
    as an unprotected feature memory, i.e. zero extra public storage.
    See :meth:`~repro.encoding.locked.LockedEncoder.random`.
    """
    if layers < 1:
        raise ConfigurationError(f"layers must be >= 1, got {layers}")
    encoder = LockedEncoder.random(
        n_features, levels, dim, rng, layers=layers, pool_size=pool_size
    )
    secure = SecureMemory()
    secure.store("lock_key", encoder.key)
    return LockedSystem(
        encoder=encoder,
        key=encoder.key,
        base_pool=encoder.base_pool,
        secure_memory=secure,
    )


def lock_encoder(
    encoder: RecordEncoder,
    layers: int,
    pool_size: int | None = None,
    rng: SeedLike = None,
) -> LockedSystem:
    """Retrofit HDLock onto an existing unprotected encoder.

    The level memory is reused (value HVs stay unprotected by design,
    Sec. 4.1 "Why Not Represent the Value Hypervectors?"); a fresh base
    pool and key replace the feature memory.
    """
    if layers < 1:
        raise ConfigurationError(f"layers must be >= 1, got {layers}")
    p = encoder.n_features if pool_size is None else pool_size
    pool_rng, key_rng = spawn_rngs(rng, 2)
    pool = random_pool(p, encoder.dim, pool_rng)
    key = generate_key(encoder.n_features, layers, p, encoder.dim, key_rng)
    locked = LockedEncoder(pool, encoder.level_memory, key)
    secure = SecureMemory()
    secure.store("lock_key", key)
    return LockedSystem(
        encoder=locked, key=key, base_pool=pool, secure_memory=secure
    )


def rotate_system(system: LockedSystem, rng: SeedLike = None) -> LockedSystem:
    """Re-lock a deployed system under a fresh key (key rotation).

    The bounded-cost property of HDLock rotation: the public artifacts —
    base pool and level memory — are untouched, so nothing redeploys to
    device flash. Only the secret changes: one key draw plus one
    derived-feature-matrix rebuild (:mod:`repro.hdlock.feature_factory`
    inside the new encoder), independent of fleet size and of any
    training data. Trained class hypervectors were accumulated under the
    old feature HVs and must be retrained, exactly as after
    :meth:`~repro.encoding.locked.LockedEncoder.rekey`.
    """
    (key_rng,) = spawn_rngs(rng, 1)
    key = generate_key(
        system.key.n_features,
        system.key.layers,
        system.pool_size,
        system.key.dim,
        key_rng,
    )
    encoder = system.encoder.rekey(key)
    secure = SecureMemory()
    secure.store("lock_key", key)
    return LockedSystem(
        encoder=encoder, key=key, base_pool=system.base_pool, secure_memory=secure
    )


def lock_model(
    encoder: RecordEncoder,
    train_x: np.ndarray,
    train_y: np.ndarray,
    n_classes: int,
    layers: int,
    binary: bool = True,
    pool_size: int | None = None,
    retrain_epochs: int = 3,
    rng: SeedLike = None,
) -> tuple[LockedSystem, TrainingResult]:
    """Retrofit the lock and retrain class hypervectors under it.

    Returns the locked system plus the retrained model — the paper's
    Fig. 8 workflow (accuracy under HDLock at a given ``L``).
    """
    (lock_rng,) = spawn_rngs(rng, 1)
    system = lock_encoder(encoder, layers, pool_size, lock_rng)
    training = train_model(
        system.encoder,
        train_x,
        train_y,
        n_classes=n_classes,
        binary=binary,
        retrain_epochs=retrain_epochs,
    )
    return system, training
