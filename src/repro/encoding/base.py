"""Encoder interface: one accumulate stage, one binarize-and-pack stage.

Every encoder in this library maps an integer input row — a record of
``N`` value levels, or a sequence of symbol ids — to a ``D``-dimensional
hypervector in two stages, the shape of a hardware encoder pipeline::

    H_nb = accumulate(sample)                   (non-binary, e.g. Eq. 2)
    H_b  = sign(H_nb)                           (binary, Eq. 3)

Subclasses supply only the first stage (:meth:`Encoder._accumulate`,
over a validated ``(B, W)`` batch) and their input checks
(:meth:`Encoder._validate`). This class owns everything else, once:
the ``ndim`` check, Eq. 3 binarization and word-packing. Eq. 3 breaks
sign(0) ties with the fixed vector :func:`repro.hv.ops.tie_bits`, so
an encoder keeps no tie state and every entry point is a pure
function per row: a sample encodes to the same bits alone, inside any
batch, in any chunking, and on any replica. ``encode_batch_packed`` is
the binary hot path, returning uint64 bit-planes so downstream Hamming
consumers (classifier inference, attack scoring) never unpack; the
record family fuses it into the
engine's chunk loop (:meth:`repro.encoding.engine.EncodingPlan.accumulate_packed`).

Samples are validated to be in range; quantization of raw real-valued
data to levels is :mod:`repro.data.quantize`'s job.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.encoding.engine import binarize_batch
from repro.errors import DimensionMismatchError
from repro.hv.packing import pack_signs


class Encoder(abc.ABC):
    """Base class of every encoder: shape check, Eq. 3 and packing.

    Subclasses implement :meth:`_validate` and :meth:`_accumulate`; the
    record family also overrides :meth:`_accumulate_packed` with its
    fused kernel.
    """

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Hypervector dimensionality ``D``."""

    @abc.abstractmethod
    def _validate(self, batch: np.ndarray) -> None:
        """Reject a ``(B, W)`` input batch this encoder cannot encode."""

    @abc.abstractmethod
    def _accumulate(self, batch: np.ndarray) -> np.ndarray:
        """``(B, D)`` integer accumulations of a validated batch."""

    def _accumulate_packed(self, batch: np.ndarray) -> np.ndarray:
        """Binarized, word-packed accumulations of a validated batch."""
        return pack_signs(self._accumulate(batch))

    def _checked(self, samples: np.ndarray, ndim: int) -> np.ndarray:
        """``samples`` as a validated ``(B, W)`` batch (one row if 1-D)."""
        arr = np.asarray(samples)
        if arr.ndim != ndim:
            raise DimensionMismatchError(
                f"expected a {ndim}-D input, got shape {arr.shape}"
            )
        batch = arr[None, :] if ndim == 1 else arr
        self._validate(batch)
        return batch

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
        """Encode a ``(B, W)`` batch into a ``(B, D)`` matrix.

        Row ``b`` is bit-identical to ``encode(samples[b], binary)``.
        """
        return self._encode(self._checked(samples, 2), binary)

    def encode_batch_packed(self, samples: np.ndarray) -> np.ndarray:
        """Encode a ``(B, W)`` batch straight into packed bit-planes.

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
