"""HDLock: the paper's defense — privileged (keyed) feature encoding.

Beyond the single-model lock/analysis API, this package carries the
fleet key lifecycle: vectorized bulk keygen (:func:`generate_keys`),
the packed memory-mapped :class:`~repro.hdlock.keystore.KeyStore` with
persistent revocation and in-place rotation, and the provisioning
helpers that keep public bundles and key material apart.
"""

from repro.hdlock.analysis import (
    TradeoffRow,
    render_tradeoff_table,
    security_level_bits,
    tradeoff_table,
)
from repro.hdlock.feature_factory import derive_feature_hv, derive_feature_matrix
from repro.hdlock.keygen import generate_key, generate_keys, identity_like_key
from repro.hdlock.keystore import KeyStore
from repro.hdlock.lock import (
    LockedSystem,
    create_locked_encoder,
    lock_encoder,
    lock_model,
    rotate_system,
)
from repro.hdlock.provisioning import (
    BundleManifest,
    load_fleet_key,
    load_public_bundle,
    open_fleet_store,
    restore_device_encoder,
    restore_encoder,
    save_fleet_keys,
    save_public_bundle,
)

__all__ = [
    "generate_key",
    "generate_keys",
    "identity_like_key",
    "derive_feature_hv",
    "derive_feature_matrix",
    "LockedSystem",
    "create_locked_encoder",
    "lock_encoder",
    "lock_model",
    "rotate_system",
    "security_level_bits",
    "TradeoffRow",
    "tradeoff_table",
    "render_tradeoff_table",
    "BundleManifest",
    "KeyStore",
    "save_public_bundle",
    "save_fleet_keys",
    "load_public_bundle",
    "load_fleet_key",
    "open_fleet_store",
    "restore_encoder",
    "restore_device_encoder",
]
