"""The public / secure memory split of the paper's threat model.

Sec. 3.1: lightweight HDC targets (IoT nodes, FPGAs, in-memory-computing
arrays) have only a tiny tamper-proof region — far too small for the
hypervector memory itself (megabytes) but enough for the *index mapping*
(kilobits). The owner therefore

* publishes the raw hypervector rows **shuffled** (:class:`PublicMemory`
  — the attacker reads these freely), and
* keeps the mapping / HDLock key in :class:`SecureMemory`, which this
  library simulates as a store that only the owner principal may read;
  any other access raises :class:`~repro.errors.SecureMemoryError` and is
  recorded in an audit log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import SecureMemoryError
from repro.hv.random import shuffled_copy
from repro.utils.rng import SeedLike

#: The principal allowed to read secure memory.
OWNER = "owner"


class PublicMemory:
    """Unindexed hypervector rows in ordinary (attacker-readable) memory.

    ``rows[j]`` is a hypervector, but *which* feature/level/base it
    belongs to is not derivable from the position: rows were shuffled at
    deployment time. The permutation used is owner-side knowledge.
    """

    def __init__(self, rows: np.ndarray, label: str = "pool") -> None:
        arr = np.asarray(rows)
        if arr.ndim != 2:
            raise ValueError(f"public memory needs a (K, D) matrix, got {arr.shape}")
        self.rows = arr
        self.label = label

    @classmethod
    def publish(
        cls, indexed_rows: np.ndarray, rng: SeedLike = None, label: str = "pool"
    ) -> Tuple["PublicMemory", np.ndarray]:
        """Shuffle ``indexed_rows`` and publish them.

        Returns ``(public, placement)`` where ``placement[j]`` is the
        true index of published row ``j``. ``placement`` belongs in
        secure memory; the :class:`PublicMemory` is what the attacker
        sees.
        """
        shuffled, placement = shuffled_copy(indexed_rows, rng)
        return cls(shuffled, label=label), placement

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        """Hypervector dimensionality of the stored rows."""
        return int(self.rows.shape[1])

    @property
    def nbytes_packed(self) -> int:
        """Footprint of this pool in deployed (bit-packed) form.

        One bit per element: ``ceil(D / 8)`` bytes per row.
        """
        return len(self) * -(-self.dim // 8)

    def row(self, j: int) -> np.ndarray:
        """Read one published row (attacker-permitted operation)."""
        return self.rows[j]


@dataclass
class AccessRecord:
    """One audited access to secure memory."""

    actor: str
    name: str
    allowed: bool


@dataclass
class SecureMemory:
    """Simulated tamper-proof key store with an access audit log.

    Only reads by the :data:`OWNER` principal succeed; anything else
    raises :class:`SecureMemoryError` (modeling the probing resistance of
    the tamper-proof memory suggested by [15] in the paper) and is still
    recorded, so tests can assert that attack code never touched secrets.
    """

    _store: Dict[str, Any] = field(default_factory=dict)
    audit_log: List[AccessRecord] = field(default_factory=list)

    def store(self, name: str, value: Any) -> None:
        """Write a secret under ``name`` (owner-side provisioning)."""
        self._store[name] = value

    def load(self, name: str, actor: str = OWNER) -> Any:
        """Read a secret; non-owner actors are refused and logged."""
        allowed = actor == OWNER and name in self._store
        self.audit_log.append(AccessRecord(actor=actor, name=name, allowed=allowed))
        if actor != OWNER:
            raise SecureMemoryError(
                f"actor {actor!r} attempted to read secure slot {name!r}"
            )
        if name not in self._store:
            raise SecureMemoryError(f"secure slot {name!r} is empty")
        return self._store[name]

    def __contains__(self, name: str) -> bool:
        return name in self._store

    @property
    def names(self) -> list[str]:
        """Names of provisioned slots (slot *names* are not secret)."""
        return sorted(self._store)

    def storage_bits(self) -> int:
        """Total bits of secret payload currently stored.

        Supports ints (bit length), numpy arrays (packed integer width)
        and objects exposing ``storage_bits()`` such as
        :class:`repro.memory.key.LockKey`. Used to demonstrate the
        paper's memory argument: the key is orders of magnitude smaller
        than the hypervector memory.
        """
        total = 0
        for value in self._store.values():
            if hasattr(value, "storage_bits"):
                total += int(value.storage_bits())
            elif isinstance(value, (int, np.integer)):
                total += max(int(value).bit_length(), 1)
            elif isinstance(value, np.ndarray):
                span = int(value.max()) + 1 if value.size else 1
                total += value.size * max(span - 1, 1).bit_length()
            else:
                raise TypeError(
                    f"cannot account storage for secure value of type {type(value)!r}"
                )
        return total
