"""N-gram (sequence) encoding — an extension beyond the paper's record
encoder.

HDC commonly encodes sequences (text, DNA, sensor streams) by binding
``n`` consecutive symbol hypervectors, each rotated by its position, and
bundling all n-grams::

    H = sum_t  prod_{j=0..n-1} rho^j( ItemHV[s_{t+j}] )

The paper's attack surface (an item memory whose index mapping is
secret) exists here too, and HDLock applies unchanged: replace the item
memory lookup with a key-derived product. :class:`NGramEncoder` supports
both modes so the examples can demonstrate locking a sequence model.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import Encoder
from repro.encoding.engine import resolve_chunk_size
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.hv.ops import ACCUM_DTYPE, BIPOLAR_DTYPE, permute
from repro.memory.key import LockKey


class NGramEncoder(Encoder):
    """Encode symbol sequences with rotated n-gram binding.

    ``item_memory`` is an ``(A, D)`` matrix with one hypervector per
    alphabet symbol. When ``key`` (plus ``base_pool``) is given the item
    hypervectors are HDLock-derived instead of stored, locking the
    alphabet mapping exactly like the record encoder's feature mapping.
    """

    def __init__(
        self,
        item_memory: np.ndarray | None = None,
        n: int = 3,
        base_pool: np.ndarray | None = None,
        key: LockKey | None = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n-gram size must be >= 1, got {n}")
        if (key is None) != (base_pool is None):
            raise ConfigurationError("base_pool and key must be given together")
        if key is not None:
            # Deferred import: repro.hdlock's initializer imports the
            # encoding package, so a module-scope import would cycle.
            from repro.hdlock.feature_factory import derive_feature_matrix

            self._items = derive_feature_matrix(np.asarray(base_pool), key)
        elif item_memory is not None:
            self._items = np.asarray(item_memory)
        else:
            raise ConfigurationError("need either item_memory or (base_pool, key)")
        if self._items.ndim != 2:
            raise DimensionMismatchError(
                f"item memory must be (A, D), got {self._items.shape}"
            )
        self.n = n
        self.locked = key is not None
        # Position-rotated copies of the item matrix, built on first
        # use and shared by every encode call.
        self._rotated: list[np.ndarray] | None = None

    @property
    def alphabet_size(self) -> int:
        """Number of symbols ``A`` in the item memory."""
        return int(self._items.shape[0])

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``D``."""
        return int(self._items.shape[1])

    @property
    def item_matrix(self) -> np.ndarray:
        """The (possibly key-derived) ``(A, D)`` item hypervectors."""
        return self._items

    def _validate(self, batch: np.ndarray) -> None:
        if batch.shape[1] < self.n:
            raise ConfigurationError(
                f"sequences of length {batch.shape[1]} shorter than n={self.n}"
            )
        if not np.issubdtype(batch.dtype, np.integer):
            raise ConfigurationError("sequences must contain integer symbol ids")
        if batch.size and (batch.min() < 0 or batch.max() >= self.alphabet_size):
            raise ConfigurationError(
                f"symbol ids must lie in [0, {self.alphabet_size})"
            )

    def _rotated_items(self) -> list[np.ndarray]:
        if self._rotated is None:
            self._rotated = [permute(self._items, j) for j in range(self.n)]
        return self._rotated

    def invalidate_caches(self) -> None:
        """Drop cached rotations (after in-place item-matrix mutation)."""
        self._rotated = None

    def _accumulate(self, batch: np.ndarray) -> np.ndarray:
        """Bundle the rotated n-gram bindings of each ``(B, T)`` row.

        Vectorized across the batch: one ``(chunk, n_grams, D)`` bipolar
        product tile per chunk, gathered from the cached rotated item
        matrices, summed over the gram axis. Chunks are sized like the
        record engine's, to a
        :data:`~repro.encoding.engine.DEFAULT_MEMORY_BUDGET`-bounded
        working set.
        """
        n_rows = int(batch.shape[0])
        n_grams = int(batch.shape[1]) - self.n + 1
        accums = np.empty((n_rows, self.dim), dtype=ACCUM_DTYPE)
        if n_rows:
            rotated = self._rotated_items()
            # Per row: the grams tile plus the same-shaped gather
            # temporary of each bind step, plus the int64 sum row.
            row_bytes = 2 * n_grams * self.dim + self.dim * 8
            chunk = resolve_chunk_size(row_bytes, n_rows)
            for start in range(0, n_rows, chunk):
                block = batch[start : min(start + chunk, n_rows)]
                grams = np.ones(
                    (block.shape[0], n_grams, self.dim), dtype=BIPOLAR_DTYPE
                )
                for j in range(self.n):
                    np.multiply(
                        grams,
                        rotated[j][block[:, j : j + n_grams]],
                        out=grams,
                        dtype=BIPOLAR_DTYPE,
                    )
                accums[start : start + block.shape[0]] = grams.sum(
                    axis=1, dtype=ACCUM_DTYPE
                )
        return accums
