"""Bit-packed representation of bipolar hypervectors.

A ``D``-dimensional bipolar HV stores one of two symbols per coordinate,
so it packs into ``ceil(D / 64)`` uint64 words (``+1 -> bit 1``,
``-1 -> bit 0``, bits in :func:`numpy.packbits` order, zero-padded to a
word boundary). That word layout is the only packed representation.
Packing matters twice in this reproduction:

* **fidelity** — the threat model (Sec. 3.1) is about hypervectors
  living in plain device memory; packed binary storage is how real
  FPGA / in-memory deployments hold them. The provisioning bundle
  stores :func:`pack_words` rows, and the public-memory footprint in
  :mod:`repro.memory` counts one bit per element.
* **speed** — the encoding engine binarizes straight into words
  (:func:`pack_signs`), and the classifier and the attack scorers
  XOR-popcount them one machine word per operation.

Every kernel that takes packed operands raises
:class:`~repro.errors.DimensionMismatchError` unless they are ``uint64``
words, exactly ``packed_word_width(dim)`` per row, with no bit set past
``dim``; so pad bits are zero on both sides and never contribute to a
distance. Popcounts use :func:`numpy.bitwise_count` (NumPy >= 2.0).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import DimensionMismatchError
from repro.hv.ops import BIPOLAR_DTYPE, sign_bits

#: dtype of the packed layout (uint64 bit-plane words).
PACKED_WORD_DTYPE = np.uint64

#: Bits per packed word.
WORD_BITS = 64


def packed_word_width(dim: int) -> int:
    """Number of uint64 words in a word-packed HV of dimension ``dim``."""
    return -(-int(dim) // WORD_BITS)


def pack_words(hvs: np.ndarray) -> np.ndarray:
    """Pack bipolar HVs into uint64 bit-plane words (``+1 -> bit 1``).

    Accepts ``(D,)`` or ``(K, D)``; returns ``(ceil(D/64),)`` or
    ``(K, ceil(D/64))`` uint64 rows: :func:`numpy.packbits` bytes
    zero-padded to a word boundary and viewed 64 bits at a time, so
    XOR + popcount runs one machine word per operation.
    """
    return pack_bits(np.asarray(hvs) > 0)


def pack_bits(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pack bool bits of shape ``(..., D)`` into the uint64 word layout.

    The one writer of the layout: :func:`numpy.packbits` bytes along the
    last axis, zero-padded to a word boundary. ``out`` may supply the
    ``(..., ceil(D/64))`` uint64 destination, e.g. a chunk of rows of a
    larger batch output.
    """
    arr = np.asarray(bits)
    shape = arr.shape[:-1] + (packed_word_width(arr.shape[-1]),)
    if out is None:
        out = np.empty(shape, dtype=PACKED_WORD_DTYPE)
    elif out.shape != shape or out.dtype != PACKED_WORD_DTYPE:
        raise DimensionMismatchError(
            f"out buffer must be {shape} {np.dtype(PACKED_WORD_DTYPE)}, "
            f"got {out.shape} {out.dtype}"
        )
    byte_rows = np.packbits(arr, axis=-1)
    out_bytes = out.view(np.uint8)
    out_bytes[..., : byte_rows.shape[-1]] = byte_rows
    out_bytes[..., byte_rows.shape[-1] :] = 0
    return out


@functools.lru_cache(maxsize=WORD_BITS)
def _pad_bits(tail: int) -> np.uint64:
    """Bits of a packed word past its first ``tail`` (none when ``tail`` is 0)."""
    return ~pack_words(np.ones(tail or WORD_BITS, dtype=BIPOLAR_DTYPE))[0]


def _check_words(dim: int | None, *operands: np.ndarray) -> None:
    """Refuse anything but ``dim``-bit :func:`pack_words` rows.

    Each operand must be uint64 with ``packed_word_width(dim)`` words per
    row and zero pad bits: a wrong ``dim`` would otherwise decode made-up
    coordinates or normalize a distance past 1.
    """
    if dim is None or int(dim) < 1:
        raise DimensionMismatchError(f"dim must be a positive integer, got {dim}")
    width = packed_word_width(dim)
    # The last word's bits past ``dim``; pack_words leaves them zero.
    pad = _pad_bits(int(dim) % WORD_BITS)
    for operand in operands:
        if operand.dtype != PACKED_WORD_DTYPE:
            raise DimensionMismatchError(
                f"packed operands must be {np.dtype(PACKED_WORD_DTYPE)} words "
                f"from pack_words(), got {operand.dtype}"
            )
        if operand.ndim == 0 or operand.shape[-1] != width:
            raise DimensionMismatchError(
                f"packed width {operand.shape[-1:]} does not match dim={dim} "
                f"({width} words)"
            )
        if pad and np.bitwise_and(operand[..., -1], pad).any():
            raise DimensionMismatchError(f"packed operand has bits set past dim={dim}")


def unpack_words(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_words` for hypervectors of dimension ``dim``.

    Returns ``+-1`` as int8, mapped in place inside the fresh
    ``unpackbits`` buffer. ``packed`` must hold ``dim``-bit
    :func:`pack_words` rows.
    """
    arr = np.asarray(packed)
    _check_words(dim, arr)
    bits = np.unpackbits(np.ascontiguousarray(arr).view(np.uint8), axis=-1, count=dim)
    signs = bits.view(BIPOLAR_DTYPE)
    signs *= 2
    signs -= 1
    return signs


def pack_signs(accums: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fused Eq. 3 binarize + word-pack of a ``(B, D)`` accumulator batch.

    Bit-exact with ``pack_words(binarize_batch(accums))`` — both share
    :func:`~repro.hv.ops.sign_bits`, so ties break identically by
    construction — but the ``(B, D)`` int8 intermediate is never
    materialized: signs go straight into uint64 bit-planes. This is the
    final fused stage of the packed encoding path.

    ``out`` may supply a preallocated ``(B, ceil(D/64))`` uint64 buffer
    (e.g. a chunk slice of the full batch output) to write into.
    """
    arr = np.asarray(accums)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"pack_signs takes a (B, D) accumulator batch, got {arr.shape}"
        )
    return pack_bits(sign_bits(arr), out)


def hamming_packed(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray | float:
    """Normalized Hamming distance between word-packed HVs, broadcasting.

    ``a`` may be a ``(K, W)`` stack and ``b`` a ``(W,)`` row (or vice
    versa, or any mutually broadcastable stack shapes); the XOR
    broadcasts. ``dim`` is the unpacked dimension used for
    normalization; both operands must be :func:`pack_words` rows of
    ``dim`` bits.
    """
    a_arr = np.asarray(a)
    b_arr = np.asarray(b)
    _check_words(dim, a_arr, b_arr)
    diff = np.bitwise_xor(a_arr, b_arr)
    result = np.bitwise_count(diff).sum(axis=-1, dtype=np.int64) / dim
    return float(result) if np.ndim(result) == 0 else result


def pairwise_hamming_packed(
    a: np.ndarray,
    b: np.ndarray | None = None,
    dim: int | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """All-pairs normalized Hamming distances of word-packed stacks.

    ``a`` is a ``(Ka, W)`` packed stack, ``b`` a ``(Kb, W)`` one (``a``
    itself when omitted); the result is ``(Ka, Kb)``. ``dim`` is
    required and must match ``W`` (see :func:`hamming_packed`). Work is
    tiled in row blocks of ``a`` (``chunk_size`` rows, default 256) so
    the ``(chunk, Kb, W)`` XOR tile stays cache-sized however large the
    pools get — this is the kernel behind large candidate-pool scoring
    in the reasoning attack and behind packed classifier inference.
    """
    a_arr = np.asarray(a)
    b_arr = a_arr if b is None else np.asarray(b)
    if a_arr.ndim != 2 or b_arr.ndim != 2:
        raise DimensionMismatchError(
            f"expected packed (K, W) stacks, got {a_arr.shape} and {b_arr.shape}"
        )
    _check_words(dim, a_arr, b_arr)
    chunk = max(1, 256 if chunk_size is None else int(chunk_size))
    out = np.empty((a_arr.shape[0], b_arr.shape[0]), dtype=np.float64)
    for start in range(0, a_arr.shape[0], chunk):
        stop = min(start + chunk, a_arr.shape[0])
        diff = np.bitwise_xor(a_arr[start:stop, None, :], b_arr[None, :, :])
        out[start:stop] = np.bitwise_count(diff).sum(axis=-1, dtype=np.int64) / dim
    return out
