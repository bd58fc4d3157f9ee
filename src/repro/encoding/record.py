"""The standard (unprotected) record-based encoder of paper Sec. 2.

Feature hypervectors are read directly from an indexed
:class:`~repro.memory.item_memory.FeatureMemory` — precisely the design
whose index mapping the reasoning attack of Sec. 3 recovers. The
encoder maps a record of ``N`` value levels to a ``D``-dimensional
hypervector in two stages, the shape of a hardware encoder pipeline::

    H_nb = accumulate(sample)                   (non-binary, Eq. 2)
    H_b  = sign(H_nb)                           (binary, Eq. 3)

The multiply-accumulate of Eq. 2 is compiled once per encoder into an
:class:`~repro.encoding.engine.EncodingPlan` — a level-major BLAS
decomposition with chunked batches, the engine's one kernel for any
level memory — bit-exact with the per-sample reference loop. Eq. 3
breaks sign(0) ties with the fixed vector :func:`repro.hv.ops.tie_bits`,
so an encoder keeps no tie state and every entry point is a pure
function per row: a sample encodes to the same bits alone, inside any
batch, in any chunking, and on any replica. ``encode_batch_packed`` is
the binary hot path, returning uint64 bit-planes so downstream Hamming
consumers (classifier inference, attack scoring) never unpack; it is
fused into the engine's chunk loop
(:meth:`~repro.encoding.engine.EncodingPlan.accumulate_packed`).

Samples are validated to be in range; quantization of raw real-valued
data to levels is :mod:`repro.data.quantize`'s job.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.engine import EncodingPlan, binarize_batch
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.memory.item_memory import FeatureMemory, LevelMemory
from repro.utils.rng import SeedLike, spawn_rngs


class RecordEncoder:
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

    def _checked(self, samples: np.ndarray, ndim: int) -> np.ndarray:
        """``samples`` as a validated ``(B, N)`` batch (one row if 1-D)."""
        arr = np.asarray(samples)
        if arr.ndim != ndim:
            raise DimensionMismatchError(
                f"expected a {ndim}-D input, got shape {arr.shape}"
            )
        batch = arr[None, :] if ndim == 1 else arr
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
        return batch

    def _accumulate(self, batch: np.ndarray) -> np.ndarray:
        """``(B, D)`` integer accumulations (Eq. 2) of a validated batch."""
        return self.plan.accumulate(batch)

    def _accumulate_packed(self, batch: np.ndarray) -> np.ndarray:
        """Binarized, word-packed accumulations of a validated batch."""
        return self.plan.accumulate_packed(batch)

    def _encode(self, batch: np.ndarray, binary: bool) -> np.ndarray:
        accums = self._accumulate(batch)
        if not binary:
            return accums
        return binarize_batch(accums)

    def encode(self, sample: np.ndarray, binary: bool = True) -> np.ndarray:
        """Encode one sample; binarize (Eq. 3) if ``binary``."""
        return self._encode(self._checked(sample, 1), binary)[0]

    def encode_nonbinary(self, sample: np.ndarray) -> np.ndarray:
        """Encode one sample to its integer accumulation ``H_nb``."""
        return self._encode(self._checked(sample, 1), False)[0]

    def encode_batch(self, samples: np.ndarray, binary: bool = True) -> np.ndarray:
        """Encode a ``(B, N)`` batch into a ``(B, D)`` matrix.

        Row ``b`` is bit-identical to ``encode(samples[b], binary)``.
        """
        return self._encode(self._checked(samples, 2), binary)

    def encode_batch_packed(self, samples: np.ndarray) -> np.ndarray:
        """Encode a ``(B, N)`` batch straight into packed bit-planes.

        Returns ``(B, ceil(D/64))`` uint64 rows, bit-identical to
        ``pack_words(self.encode_batch(samples, binary=True))`` without
        the dense sign matrix. Feed the result to
        :func:`repro.hv.packing.hamming_packed` /
        :func:`~repro.hv.packing.pairwise_hamming_packed` (or any
        word-packed consumer) directly.
        """
        return self._accumulate_packed(self._checked(samples, 2))

    def encode_packed(self, sample: np.ndarray) -> np.ndarray:
        """Encode one sample to a ``(ceil(D/64),)`` uint64 packed HV."""
        return self._accumulate_packed(self._checked(sample, 1))[0]
