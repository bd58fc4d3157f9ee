"""The HDLock encoder (paper Sec. 4, Fig. 4).

Instead of reading ``FeaHV_i`` from an indexed memory, the locked encoder
*derives* it on the fly from the public base pool and the secret key
(Eq. 9), then performs the ordinary record encoding (Eq. 10). The derived
matrix is cached in the encoder's feature memory: deriving it is a pure
function of (pool, key), and the hardware pipelines the derivation
anyway, so caching changes nothing observable while keeping software
encoding fast.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.record import RecordEncoder
from repro.errors import DimensionMismatchError
from repro.hv.random import random_pool
from repro.memory.item_memory import FeatureMemory, LevelMemory
from repro.memory.key import LockKey
from repro.utils.rng import SeedLike, spawn_rngs


class LockedEncoder(RecordEncoder):
    """Record encoder whose feature HVs come from ``(base pool, key)``."""

    def __init__(
        self,
        base_pool: np.ndarray,
        level_memory: LevelMemory,
        key: LockKey,
    ) -> None:
        pool = np.asarray(base_pool)
        if pool.ndim != 2 or pool.shape[1] != level_memory.dim:
            raise DimensionMismatchError(
                f"base pool shape {pool.shape} incompatible with level "
                f"memory D={level_memory.dim}"
            )
        # Imported here, not at module scope: repro.hdlock's package
        # initializer imports this module (its high-level API constructs
        # LockedEncoders), so a top-level import would be circular.
        from repro.hdlock.feature_factory import derive_feature_matrix

        derived = FeatureMemory(derive_feature_matrix(pool, key))
        super().__init__(derived, level_memory)
        self.base_pool = pool
        self.key = key

    @classmethod
    def random(
        cls,
        n_features: int,
        levels: int,
        dim: int,
        rng: SeedLike = None,
        *,
        layers: int,
        pool_size: int | None = None,
    ) -> "LockedEncoder":
        """Build a locked encoder over a fresh pool, level memory and key.

        ``pool_size`` defaults to ``n_features`` — the paper's evaluation
        setting (``P = N``), under which the base pool is exactly as
        large as an unprotected feature memory. One seed drives three
        independent streams (pool, level memory, key).
        """
        from repro.hdlock.keygen import generate_key

        p = n_features if pool_size is None else pool_size
        pool_rng, level_rng, key_rng = spawn_rngs(rng, 3)
        pool = random_pool(p, dim, pool_rng)
        level_memory = LevelMemory.random(levels, dim, level_rng)
        key = generate_key(n_features, layers, p, dim, key_rng)
        return cls(pool, level_memory, key)

    @property
    def layers(self) -> int:
        """Key depth ``L`` of this encoder."""
        return self.key.layers

    @property
    def pool_size(self) -> int:
        """Base pool size ``P``."""
        return self.key.pool_size

    def rekey(self, key: LockKey) -> "LockedEncoder":
        """Return a new encoder over the same pool with a different key.

        Re-keying invalidates any trained class hypervectors (they were
        accumulated under the old feature HVs); callers are expected to
        retrain, see :func:`repro.hdlock.lock.lock_model`.
        """
        return LockedEncoder(self.base_pool, self.level_memory, key)
