"""Privacy-preserving locked encoders (Prive-HD-style transmission).

Prive-HD (PAPERS.md) observes that the hypervector a device *transmits*
need not be the full-precision accumulation: quantizing or sparsifying
the encoding before it leaves the device both shrinks the payload and
disturbs exactly the fine-grained structure an inference adversary
exploits. Here that idea becomes a defender axis for the attack arena:
the subclasses below post-process the Eq. 2 accumulation ``H_nb``
*before* binarization, so every zeroed coordinate binarizes to the fixed
``sign(0)`` tie bit of :func:`repro.hv.ops.tie_bits`. That hides the
coordinate's magnitude from a single response, but it is not noise: the
encoder is a pure function, so the same query always gets the same
answer, and an attacker that differences two crafted queries sees the
tie bits cancel. At ``L = 1`` the arena's exhaustive attacker recovers
every feature through either transform, so they add nothing to the
key-space bound that protects ``L >= 2``. The transforms leave the
key, the pool, and trained class hypervectors' compatibility untouched
(the transform is applied consistently at train and serve time since it
lives in the encoder).

Both transforms are scale-free for every downstream consumer in this
repo: binary outputs only keep the sign, and the non-binary cosine
criterion is invariant to per-row positive scaling, so the quantizer
returns unscaled integer bucket indices rather than reconstructed
magnitudes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.encoding.locked import LockedEncoder
from repro.errors import ConfigurationError
from repro.hv.packing import pack_signs
from repro.memory.item_memory import LevelMemory
from repro.memory.key import LockKey

__all__ = [
    "QuantizedLockedEncoder",
    "SparsifiedLockedEncoder",
    "TransmissionLockedEncoder",
]


class TransmissionLockedEncoder(LockedEncoder):
    """Locked encoder that transforms accumulations before transmission.

    Subclasses implement :meth:`_transform_rows` over a ``(B, D)`` batch
    of integer accumulations. The transform is this encoder's whole
    accumulate stage, so every encode path — single, batch, packed —
    routes through it, and the attacker-facing oracle and the
    owner-side training loop observe the same privatized encodings.

    The engine's fused packed kernel binarizes raw accumulations in its
    chunk loop, so the packed paths here binarize and pack the
    transformed rows with :func:`~repro.hv.packing.pack_signs` instead.
    """

    def _transform_rows(self, accums: np.ndarray) -> np.ndarray:
        """Map raw ``(B, D)`` accumulations to transmitted values."""
        raise NotImplementedError

    def _accumulate(self, batch: np.ndarray) -> np.ndarray:
        return self._transform_rows(super()._accumulate(batch))

    def _accumulate_packed(self, batch: np.ndarray) -> np.ndarray:
        return pack_signs(self._accumulate(batch))


class QuantizedLockedEncoder(TransmissionLockedEncoder):
    """Locked encoder transmitting coarsely quantized accumulations.

    The accumulation of ``N`` independent ±1 products is approximately
    ``N(0, N)`` per coordinate; the quantizer buckets it into
    ``quant_levels`` symmetric integer levels spanning
    ``±clip_sigmas * sqrt(N)``. With the default 3 levels everything
    inside ±1.5σ collapses to 0 — the majority of coordinates — and each
    of those binarizes to its fixed ``sign(0)`` tie bit, so one
    response carries only the coarse buckets' signs.
    """

    def __init__(
        self,
        base_pool: np.ndarray,
        level_memory: LevelMemory,
        key: LockKey,
        quant_levels: int = 3,
        clip_sigmas: float = 3.0,
    ) -> None:
        if quant_levels < 3 or quant_levels % 2 == 0:
            raise ConfigurationError(
                "quant_levels must be an odd integer >= 3 (a symmetric "
                f"grid including zero), got {quant_levels}"
            )
        if clip_sigmas <= 0:
            raise ConfigurationError(
                f"clip_sigmas must be positive, got {clip_sigmas}"
            )
        super().__init__(base_pool, level_memory, key)
        self.quant_levels = int(quant_levels)
        self.clip_sigmas = float(clip_sigmas)

    def _transform_rows(self, accums: np.ndarray) -> np.ndarray:
        half = (self.quant_levels - 1) // 2
        step = self.clip_sigmas * math.sqrt(self.n_features) / half
        buckets = np.rint(np.asarray(accums, dtype=np.float64) / step)
        return np.clip(buckets, -half, half).astype(np.int64)

    def rekey(self, key: LockKey) -> "QuantizedLockedEncoder":
        """Re-key, preserving the quantization parameters."""
        return QuantizedLockedEncoder(
            self.base_pool,
            self.level_memory,
            key,
            quant_levels=self.quant_levels,
            clip_sigmas=self.clip_sigmas,
        )


class SparsifiedLockedEncoder(TransmissionLockedEncoder):
    """Locked encoder transmitting only the top-magnitude coordinates.

    Per row, the ``keep_fraction`` largest-``|H|`` coordinates survive
    unchanged and the rest transmit as zero — Prive-HD's sparsification.
    The surviving coordinates are exactly the high-confidence ones, so
    classification accuracy degrades gently while the rest of each
    response reads the fixed tie bits.
    """

    def __init__(
        self,
        base_pool: np.ndarray,
        level_memory: LevelMemory,
        key: LockKey,
        keep_fraction: float = 0.05,
    ) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ConfigurationError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        super().__init__(base_pool, level_memory, key)
        self.keep_fraction = float(keep_fraction)

    def _transform_rows(self, accums: np.ndarray) -> np.ndarray:
        rows = np.asarray(accums, dtype=np.int64)
        dim = rows.shape[1]
        keep = max(1, int(round(self.keep_fraction * dim)))
        if keep >= dim:
            return rows
        out = np.zeros_like(rows)
        # argpartition breaks magnitude ties by position — deterministic,
        # no RNG involved, so the transform itself is a pure function.
        top = np.argpartition(np.abs(rows), dim - keep, axis=1)[:, dim - keep :]
        np.put_along_axis(out, top, np.take_along_axis(rows, top, axis=1), axis=1)
        return out

    def rekey(self, key: LockKey) -> "SparsifiedLockedEncoder":
        """Re-key, preserving the sparsification parameter."""
        return SparsifiedLockedEncoder(
            self.base_pool,
            self.level_memory,
            key,
            keep_fraction=self.keep_fraction,
        )
