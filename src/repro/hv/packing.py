"""Bit-packed representation of bipolar hypervectors.

A ``D``-dimensional bipolar HV stores one of two symbols per coordinate,
so it packs into ``ceil(D / 8)`` bytes (``+1 -> bit 1``, ``-1 -> bit 0``).
Packing matters twice in this reproduction:

* **fidelity** — the threat model (Sec. 3.1) is about hypervectors
  living in plain device memory; packed binary storage is how real
  FPGA / in-memory deployments hold them, and the public-memory size
  accounting in :mod:`repro.memory` uses the packed size.
* **speed** — the divide-and-conquer attack is dominated by Hamming
  distance computations over large candidate pools; XOR + popcount over
  packed words is ~8x less memory traffic than byte-per-element
  comparison.

Two packed layouts coexist:

* **byte rows** (:func:`pack` / :func:`unpack`) — exactly
  ``ceil(D / 8)`` uint8 bytes per HV. This is the storage layout: the
  public-memory footprint accounting depends on its exact size.
* **word bit-planes** (:func:`pack_words` / :func:`unpack_words`) —
  ``ceil(D / 64)`` uint64 words per HV, the byte layout zero-padded up
  to a word boundary. This is the compute layout of the hot path: the
  encoding engine binarizes straight into it (:func:`pack_signs`), the
  classifier and the attack scorers XOR-popcount it word-at-a-time, and
  :mod:`repro.hv.bitslice` runs its carry-save accumulation over it.

The Hamming kernels accept either layout (both operands must agree —
widths and dtypes are checked, never coerced across layouts). Trailing
pad bits are identical on both sides by construction, so they never
contribute to a distance.

numpy >= 2.0 provides :func:`numpy.bitwise_count`; a portable fallback
based on an 8-bit lookup table is used otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError
from repro.hv.ops import BIPOLAR_DTYPE
from repro.utils.rng import SeedLike, resolve_rng

#: dtype of the word bit-plane layout (the engine's native output).
PACKED_WORD_DTYPE = np.uint64

#: Bits per packed word.
WORD_BITS = 64

_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)

_PM_ONE = np.array([-1, 1], dtype=BIPOLAR_DTYPE)


def packed_word_width(dim: int) -> int:
    """Number of uint64 words in a word-packed HV of dimension ``dim``."""
    return -(-int(dim) // WORD_BITS)


def _popcount_bytes(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount (uint8 or uint64), summed along the last axis."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).sum(axis=-1, dtype=np.int64)
    if arr.dtype != np.uint8:
        arr = np.ascontiguousarray(arr).view(np.uint8)
    return _POPCOUNT_LUT[arr].sum(axis=-1, dtype=np.int64)


def _as_packed(arr: np.ndarray) -> np.ndarray:
    """Normalize a packed operand, preserving the word layout's dtype."""
    a = np.asarray(arr)
    if a.dtype == PACKED_WORD_DTYPE:
        return a
    return np.asarray(a, dtype=np.uint8)


def _check_layouts(a: np.ndarray, b: np.ndarray) -> None:
    if a.dtype != b.dtype:
        raise DimensionMismatchError(
            f"mixed packed layouts: {a.dtype} vs {b.dtype} (pack both "
            f"operands with pack() or both with pack_words())"
        )


def pack(hvs: np.ndarray) -> np.ndarray:
    """Pack bipolar HVs into uint8 bit rows (``+1 -> 1``, ``-1 -> 0``).

    Accepts ``(D,)`` or ``(K, D)``; returns ``(ceil(D/8),)`` or
    ``(K, ceil(D/8))``. The original dimension is needed to unpack (store
    it alongside, as :class:`PackedPool` does).
    """
    bits = (np.asarray(hvs) > 0).astype(np.uint8)
    return np.packbits(bits, axis=-1)


def _bits_to_bipolar(bits: np.ndarray) -> np.ndarray:
    """Map a fresh ``unpackbits`` buffer to ``+-1`` in place, as int8."""
    signs = bits.view(BIPOLAR_DTYPE)
    signs *= 2
    signs -= 1
    return signs


def unpack(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack` for hypervectors of dimension ``dim``."""
    bits = np.unpackbits(np.asarray(packed, dtype=np.uint8), axis=-1, count=dim)
    return _bits_to_bipolar(bits)


def pack_words(hvs: np.ndarray) -> np.ndarray:
    """Pack bipolar HVs into uint64 bit-plane words (``+1 -> bit 1``).

    Accepts ``(D,)`` or ``(K, D)``; returns ``(ceil(D/64),)`` or
    ``(K, ceil(D/64))`` uint64 rows — the :func:`pack` byte layout
    zero-padded to a word boundary and viewed 64 bits at a time. This is
    the compute layout of the packed hot path: XOR + popcount runs one
    machine word per operation instead of one byte.
    """
    arr = np.asarray(hvs)
    byte_rows = np.packbits(arr > 0, axis=-1)
    width = packed_word_width(arr.shape[-1])
    out_bytes = np.zeros(arr.shape[:-1] + (width * 8,), dtype=np.uint8)
    out_bytes[..., : byte_rows.shape[-1]] = byte_rows
    return out_bytes.view(PACKED_WORD_DTYPE)


def unpack_words(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_words` for hypervectors of dimension ``dim``.

    Accepts only the uint64 word layout: value-casting a :func:`pack`
    byte row would interleave seven zero bytes per real byte and decode
    to garbage, so the mix-up raises instead (same no-coercion rule as
    the Hamming kernels).
    """
    arr = np.asarray(packed)
    if arr.dtype != PACKED_WORD_DTYPE:
        raise DimensionMismatchError(
            f"unpack_words takes the {np.dtype(PACKED_WORD_DTYPE)} word "
            f"layout, got {arr.dtype} (byte rows unpack with unpack())"
        )
    bits = np.unpackbits(np.ascontiguousarray(arr).view(np.uint8), axis=-1, count=dim)
    return _bits_to_bipolar(bits)


def sign_bits(accums: np.ndarray, rng: SeedLike = None) -> np.ndarray:
    """Eq. 3 sign bits of a ``(B, D)`` accumulator batch (``+1 -> True``).

    The single owner of the randomized sign(0) tie-break contract: rows
    are visited first-to-last and each row with ties draws one
    ``choice`` of that row's tie count, so a seeded generator produces
    the same stream whether the caller materializes dense signs
    (:func:`repro.encoding.engine.binarize_batch`) or packs bits
    directly (:func:`pack_signs`) — which is exactly why both funnel
    through here.
    """
    arr = np.asarray(accums)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"sign_bits takes a (B, D) accumulator batch, got {arr.shape}"
        )
    bits = arr > 0
    zeros = arr == 0
    tie_rows = np.flatnonzero(zeros.any(axis=-1))
    if tie_rows.size:
        gen = resolve_rng(rng)
        for row in tie_rows:
            mask = zeros[row]
            draws = gen.choice(_PM_ONE, size=int(np.count_nonzero(mask)))
            bits[row, mask] = draws > 0
    return bits


def pack_signs(
    accums: np.ndarray,
    rng: SeedLike = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fused Eq. 3 binarize + word-pack of a ``(B, D)`` accumulator batch.

    Bit-exact with ``pack_words(binarize_batch(accums, rng))`` — both
    share :func:`sign_bits`, so the tie stream is identical by
    construction — but the ``(B, D)`` int8 intermediate is never
    materialized: signs go straight into uint64 bit-planes. This is the
    final fused stage of the packed encoding path.

    ``out`` may supply a preallocated ``(B, ceil(D/64))`` uint64 buffer
    (e.g. a chunk slice of the full batch output) to write into.
    """
    arr = np.asarray(accums)
    bits = sign_bits(arr, rng)
    width = packed_word_width(arr.shape[1])
    if out is None:
        out = np.zeros((arr.shape[0], width), dtype=PACKED_WORD_DTYPE)
    else:
        if out.shape != (arr.shape[0], width) or out.dtype != PACKED_WORD_DTYPE:
            raise DimensionMismatchError(
                f"out buffer must be ({arr.shape[0]}, {width}) "
                f"{PACKED_WORD_DTYPE().dtype}, got {out.shape} {out.dtype}"
            )
        out[:] = 0
    byte_rows = np.packbits(bits, axis=-1)
    out.view(np.uint8)[:, : byte_rows.shape[1]] = byte_rows
    return out


def hamming_packed(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray | float:
    """Normalized Hamming distance between packed HVs, broadcasting.

    ``a`` may be a ``(K, W)`` stack and ``b`` a ``(W,)`` row (or vice
    versa, or any mutually broadcastable stack shapes); the XOR
    broadcasts. Operands may use either packed layout (uint8 byte rows
    or uint64 bit-planes) but must agree. ``dim`` is the unpacked
    dimension used for normalization (trailing pad bits are identical
    after packing, so they never contribute to the XOR).
    """
    a_arr = _as_packed(a)
    b_arr = _as_packed(b)
    _check_layouts(a_arr, b_arr)
    if a_arr.shape[-1] != b_arr.shape[-1]:
        raise DimensionMismatchError(
            f"packed widths differ: {a_arr.shape[-1]} vs {b_arr.shape[-1]}"
        )
    diff = np.bitwise_xor(a_arr, b_arr)
    result = _popcount_bytes(diff) / dim
    return float(result) if np.ndim(result) == 0 else result


#: Backward-compatible alias of :func:`hamming_packed` (pre-batch name).
packed_hamming = hamming_packed


def pairwise_hamming_packed(
    a: np.ndarray,
    b: np.ndarray | None = None,
    dim: int | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """All-pairs normalized Hamming distances of packed stacks.

    ``a`` is a ``(Ka, W)`` packed stack, ``b`` a ``(Kb, W)`` one (``a``
    itself when omitted); the result is ``(Ka, Kb)``. Both layouts
    (uint8 byte rows, uint64 bit-planes) are accepted as long as the two
    stacks agree. Work is tiled in row blocks of ``a`` (``chunk_size``
    rows, default 256) so the ``(chunk, Kb, W)`` XOR tile stays
    cache-sized however large the pools get — this is the kernel behind
    large candidate-pool scoring in the reasoning attack and behind
    packed classifier inference.
    """
    a_arr = _as_packed(a)
    b_arr = a_arr if b is None else _as_packed(b)
    _check_layouts(a_arr, b_arr)
    if a_arr.ndim != 2 or b_arr.ndim != 2:
        raise DimensionMismatchError(
            f"expected packed (K, W) stacks, got {a_arr.shape} and {b_arr.shape}"
        )
    if a_arr.shape[1] != b_arr.shape[1]:
        raise DimensionMismatchError(
            f"packed widths differ: {a_arr.shape[1]} vs {b_arr.shape[1]}"
        )
    if dim is None:
        # Same contract as every sibling kernel: shape/metadata problems
        # surface as DimensionMismatchError, never a bare ValueError.
        raise DimensionMismatchError("dim (unpacked dimension) is required")
    chunk = max(1, 256 if chunk_size is None else int(chunk_size))
    out = np.empty((a_arr.shape[0], b_arr.shape[0]), dtype=np.float64)
    for start in range(0, a_arr.shape[0], chunk):
        stop = min(start + chunk, a_arr.shape[0])
        diff = np.bitwise_xor(a_arr[start:stop, None, :], b_arr[None, :, :])
        out[start:stop] = _popcount_bytes(diff) / dim
    return out


class PackedPool:
    """A pool of bipolar HVs stored packed, remembering its dimension.

    Thin convenience wrapper used by the memory model: keeps the packed
    rows, answers Hamming queries, and reports its storage footprint.
    """

    def __init__(self, hvs: np.ndarray) -> None:
        arr = np.asarray(hvs)
        if arr.ndim != 2:
            raise ValueError(f"expected a (K, D) pool, got shape {arr.shape}")
        self.dim = int(arr.shape[1])
        self.rows = pack(arr)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def nbytes(self) -> int:
        """Packed storage footprint in bytes."""
        return int(self.rows.nbytes)

    def unpack_row(self, index: int) -> np.ndarray:
        """Return row ``index`` as a bipolar ``(D,)`` vector."""
        return unpack(self.rows[index], self.dim)

    def unpack_all(self) -> np.ndarray:
        """Return the whole pool as a bipolar ``(K, D)`` matrix."""
        return unpack(self.rows, self.dim)

    def hamming_to(self, hv: np.ndarray) -> np.ndarray:
        """Normalized Hamming distance of every row to a bipolar ``hv``."""
        return hamming_packed(self.rows, pack(hv), self.dim)

    def hamming_to_many(
        self, hvs: np.ndarray, chunk_size: int | None = None
    ) -> np.ndarray:
        """Distances of every row to each of ``(B, D)`` bipolar HVs.

        Returns a ``(K, B)`` matrix via the chunked pairwise kernel.
        """
        return pairwise_hamming_packed(
            self.rows, pack(np.atleast_2d(hvs)), self.dim, chunk_size
        )

    def nearest(self, hv: np.ndarray) -> int:
        """Index of the pool row closest to a bipolar ``hv``."""
        return int(np.argmin(self.hamming_to(hv)))
