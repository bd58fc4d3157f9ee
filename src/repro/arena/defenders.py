"""Defender configurations: what deployment the attacker faces.

A :class:`DefenderSpec` is a frozen record of every owner-side knob the
arena varies: key depth ``L`` (the paper's security exponent), base-pool
size ``P``, binary vs non-binary transmission, Prive-HD-style
quantized/sparsified encoders (:mod:`repro.encoding.privacy`), and the
query-monitor lockout (:class:`repro.attack.countermeasures.GuardedOracle`).

Building a defense is split in two on purpose:

* :meth:`DefenderSpec.build_system` is the expensive, deterministic part
  (pool, level memory, key, encoder) — a pure function of
  ``(spec, shape, seed)`` that the experiment layer content-caches. Its
  RNG stream order mirrors :func:`repro.hdlock.lock.create_locked_encoder`
  exactly, so the ``plain`` variant deploys the very system that
  function would create;
* :func:`deploy_defender` is the cheap, per-cell part: a **fresh** oracle
  (query counter at zero) and a fresh monitor. Cells must never share a
  live oracle — its query counter and monitor advance as queries are
  served, so a shared instance would make cell results depend on
  execution order. The encoder itself is a pure function, so the
  system can be shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arena.registry import register_defender
from repro.attack.countermeasures import GuardedOracle, QueryMonitor
from repro.attack.threat_model import LockedSurface
from repro.encoding.locked import LockedEncoder
from repro.encoding.oracle import EncodingOracle
from repro.encoding.privacy import (
    QuantizedLockedEncoder,
    SparsifiedLockedEncoder,
)
from repro.errors import ConfigurationError
from repro.hdlock.keygen import generate_key
from repro.hdlock.lock import LockedSystem
from repro.hv.random import random_pool
from repro.memory.item_memory import LevelMemory
from repro.memory.secure import SecureMemory
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = [
    "DEFAULT_DEFENDERS",
    "DefenderSpec",
    "DeployedDefense",
    "deploy_defender",
]

#: Encoder variants a spec may name.
_VARIANTS = ("plain", "quantized", "sparsified")


@dataclass(frozen=True)
class DefenderSpec:
    """One deployable defender configuration."""

    name: str
    #: Key depth ``L`` — the security exponent of ``(D * P)^L``.
    layers: int = 2
    #: Base-pool size ``P``.
    pool_size: int = 16
    #: Whether the deployment transmits binarized encodings.
    binary: bool = True
    #: Encoder variant: plain | quantized | sparsified.
    variant: str = "plain"
    #: Quantization levels for the ``quantized`` variant (odd, >= 3).
    quant_levels: int = 3
    #: Surviving-coordinate fraction for the ``sparsified`` variant.
    keep_fraction: float = 0.05
    #: Whether a query monitor guards the oracle (lockout on alert).
    monitor: bool = False
    #: Monitor sliding-window length (queries).
    monitor_window: int = 64
    #: Suspicious-query budget within one window before lockout.
    monitor_budget: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("defender spec needs a non-empty name")
        if self.layers < 1:
            raise ConfigurationError(f"layers must be >= 1, got {self.layers}")
        if self.pool_size < 2:
            raise ConfigurationError(
                f"pool_size must be >= 2, got {self.pool_size}"
            )
        if self.variant not in _VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
            )

    def build_system(
        self, n_features: int, levels: int, dim: int, seed: SeedLike
    ) -> LockedSystem:
        """Generate pool, key and encoder for this configuration.

        Deterministic in ``seed``; the three child streams are spawned in
        the same order as :func:`repro.hdlock.lock.create_locked_encoder`
        (pool, level memory, key), so ``plain`` specs build
        bit-identical systems to that function at equal parameters.
        """
        pool_rng, level_rng, key_rng = spawn_rngs(seed, 3)
        pool = random_pool(self.pool_size, dim, pool_rng)
        level_memory = LevelMemory.random(levels, dim, level_rng)
        key = generate_key(n_features, self.layers, self.pool_size, dim, key_rng)
        if self.variant == "quantized":
            encoder: LockedEncoder = QuantizedLockedEncoder(
                pool,
                level_memory,
                key,
                quant_levels=self.quant_levels,
            )
        elif self.variant == "sparsified":
            encoder = SparsifiedLockedEncoder(
                pool,
                level_memory,
                key,
                keep_fraction=self.keep_fraction,
            )
        else:
            encoder = LockedEncoder(pool, level_memory, key)
        secure = SecureMemory()
        secure.store("lock_key", key)
        return LockedSystem(
            encoder=encoder, key=key, base_pool=pool, secure_memory=secure
        )


@dataclass(frozen=True)
class DeployedDefense:
    """A built system wired to a fresh attacker-facing surface."""

    spec: DefenderSpec
    system: LockedSystem
    surface: LockedSurface
    monitor: QueryMonitor | None

    @property
    def detected(self) -> bool:
        """True when the monitor (if any) alerted during the cell."""
        return self.monitor is not None and self.monitor.alerted


def deploy_defender(spec: DefenderSpec, system: LockedSystem) -> DeployedDefense:
    """Wire a built system to a fresh oracle (and monitor, if guarded)."""
    encoder = system.encoder
    if spec.monitor:
        monitor: QueryMonitor | None = QueryMonitor(
            n_features=encoder.n_features,
            levels=encoder.levels,
            window=spec.monitor_window,
            budget=spec.monitor_budget,
        )
        oracle: EncodingOracle = GuardedOracle(
            encoder, monitor, binary=spec.binary
        )
    else:
        monitor = None
        oracle = EncodingOracle(encoder, binary=spec.binary)
    surface = LockedSurface(
        base_pool=encoder.base_pool,
        value_matrix=encoder.level_memory.matrix,
        oracle=oracle,
    )
    return DeployedDefense(
        spec=spec, system=system, surface=surface, monitor=monitor
    )


#: The built-in roster, in canonical matrix-row order. An explicit tuple
#: (not the registry) so later registrations never reorder artifacts.
DEFAULT_DEFENDERS: tuple[str, ...] = (
    "baseline-l2",
    "shallow-l1",
    "nonbinary-l1",
    "monitored-l1",
    "quantized-l1",
    "sparsified-l1",
)

register_defender(DefenderSpec("baseline-l2", layers=2))
register_defender(DefenderSpec("shallow-l1", layers=1))
register_defender(DefenderSpec("nonbinary-l1", layers=1, binary=False))
register_defender(DefenderSpec("monitored-l1", layers=1, monitor=True))
register_defender(DefenderSpec("quantized-l1", layers=1, variant="quantized"))
register_defender(DefenderSpec("sparsified-l1", layers=1, variant="sparsified"))
