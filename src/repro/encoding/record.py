"""The standard (unprotected) record-based encoder of paper Sec. 2.

Feature hypervectors are read directly from an indexed
:class:`~repro.memory.item_memory.FeatureMemory` — precisely the design
whose index mapping the reasoning attack of Sec. 3 recovers. The
multiply-accumulate of Eq. 2 is compiled once per encoder into an
:class:`~repro.encoding.engine.EncodingPlan` — a level-major BLAS
decomposition with chunked batches, the engine's one kernel for any
level memory — bit-exact with the per-sample reference loop.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import Encoder
from repro.encoding.engine import EncodingPlan
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.memory.item_memory import FeatureMemory, LevelMemory
from repro.utils.rng import SeedLike, spawn_rngs


class RecordEncoder(Encoder):
    """Record-based encoding with explicit feature and level memories.

    ``encode`` computes Eq. 2 (and Eq. 3 when ``binary=True``) using
    ``feature_memory.matrix`` row ``i`` as ``FeaHV_{i+1}``.
    """

    def __init__(
        self,
        feature_memory: FeatureMemory,
        level_memory: LevelMemory,
    ) -> None:
        if feature_memory.dim != level_memory.dim:
            raise DimensionMismatchError(
                f"feature memory D={feature_memory.dim} but level memory "
                f"D={level_memory.dim}"
            )
        self.feature_memory = feature_memory
        self.level_memory = level_memory
        self._plan: EncodingPlan | None = None

    @classmethod
    def random(
        cls,
        n_features: int,
        levels: int,
        dim: int,
        rng: SeedLike = None,
    ) -> "RecordEncoder":
        """Build an encoder with freshly generated memories.

        One seed argument drives two independent streams (feature
        memory, level memory) so results are reproducible.
        """
        feat_rng, level_rng = spawn_rngs(rng, 2)
        return cls(
            FeatureMemory.random(n_features, dim, feat_rng),
            LevelMemory.random(levels, dim, level_rng),
        )

    @property
    def feature_matrix(self) -> np.ndarray:
        """The ``(N, D)`` feature hypervector matrix."""
        return self.feature_memory.matrix

    @property
    def n_features(self) -> int:
        """Number of input features ``N``."""
        return int(self.feature_matrix.shape[0])

    @property
    def levels(self) -> int:
        """Number of discretized value levels ``M``."""
        return self.level_memory.levels

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``D``."""
        return self.level_memory.dim

    @property
    def plan(self) -> EncodingPlan:
        """The compiled batch-encoding plan for this encoder's matrices.

        Built lazily on first use and cached: both operand matrices are
        immutable by convention (re-keying builds a new encoder). Call
        :meth:`invalidate_caches` after mutating either matrix in place.
        """
        if self._plan is None:
            self._plan = EncodingPlan(self.level_memory.matrix, self.feature_matrix)
        return self._plan

    def invalidate_caches(self) -> None:
        """Drop the compiled plan (after in-place matrix mutation)."""
        self._plan = None

    def _validate(self, batch: np.ndarray) -> None:
        if batch.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"sample has {batch.shape[1]} features, encoder expects "
                f"{self.n_features}"
            )
        if not np.issubdtype(batch.dtype, np.integer):
            raise ConfigurationError(
                "samples must be integer level indices; quantize raw values "
                "with repro.data.quantize first"
            )
        if batch.size and (batch.min() < 0 or batch.max() >= self.levels):
            raise ConfigurationError(
                f"level indices must lie in [0, {self.levels}), got range "
                f"[{batch.min()}, {batch.max()}]"
            )

    def _accumulate(self, batch: np.ndarray) -> np.ndarray:
        return self.plan.accumulate(batch)

    def _accumulate_packed(self, batch: np.ndarray) -> np.ndarray:
        return self.plan.accumulate_packed(batch)
