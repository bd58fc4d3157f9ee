"""Core Multiplication-Addition-Permutation (MAP) operations on bipolar
hypervectors.

A hypervector (HV) is a 1-D :class:`numpy.ndarray` with entries in
``{-1, +1}`` (paper Sec. 2, ``HV in {1, -1}^D``). The three MAP operators
are:

* **bind** — element-wise multiplication ``HV1 * HV2``. Binding two
  quasi-orthogonal HVs yields an HV quasi-orthogonal to both; binding is
  its own inverse (``bind(bind(a, b), b) == a``).
* **bundle** — element-wise integer addition. The bundle of a set is
  similar to each member; it is the non-binary encoding accumulator of
  Eq. 2 and the class-HV accumulator of Eq. 4.
* **permute** — coordinate permutation. The paper (and this library) uses
  circular rotation: ``rho_k(HV) = {HV[k : D-1], HV[0 : k-1]}``, i.e. a
  left rotation by ``k`` positions.

Binarization (Eq. 3) uses :func:`sign`. The paper assigns sign(0)
"randomly to -1 or 1"; here a tie at coordinate ``d`` takes bit ``d`` of
one fixed random vector, :func:`tie_bits`, as a hardware encoder would
use a constant or an LFSR. So Eq. 3 is a pure function of the
accumulation: the same input binarizes to the same bits in any batch,
chunk or process.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DimensionMismatchError

#: Hypervector dimensionality used throughout the paper's experiments.
DEFAULT_DIM = 10_000

#: dtype used for bipolar hypervectors. int8 keeps a D=10,000 HV in 10 KB.
BIPOLAR_DTYPE = np.int8

#: dtype used for non-binary accumulations (bundles of up to ~2^31 HVs).
ACCUM_DTYPE = np.int64

#: Seed of the sign(0) tie vector of every dimension (:func:`tie_bits`).
TIE_SEED = 0x71E5


def check_same_dim(*hvs: np.ndarray) -> int:
    """Return the shared last-axis dimension of ``hvs`` or raise.

    Raises :class:`DimensionMismatchError` when the hypervectors disagree
    on ``D``.
    """
    dims = {np.asarray(hv).shape[-1] for hv in hvs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed hypervector dimensions: {sorted(dims)}")
    return dims.pop()


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise multiplication of two (stacks of) bipolar HVs.

    Accepts broadcasting shapes, e.g. a ``(P, D)`` pool against a ``(D,)``
    value hypervector. The result keeps the bipolar dtype.
    """
    check_same_dim(a, b)
    return np.multiply(a, b, dtype=BIPOLAR_DTYPE)


def bind_many(hvs: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Bind an arbitrary number of bipolar HVs together.

    ``hvs`` may be a sequence of ``(D,)`` vectors or a ``(K, D)`` matrix;
    the result is the element-wise product over the first axis. This is
    the ``prod_{l=1..L}`` operator of the HDLock feature construction
    (Eq. 9).
    """
    mat = np.asarray(hvs)
    if mat.ndim == 1:
        return mat.astype(BIPOLAR_DTYPE, copy=True)
    if mat.shape[0] == 0:
        raise ValueError("bind_many needs at least one hypervector")
    return np.prod(mat, axis=0, dtype=BIPOLAR_DTYPE)


def bundle(hvs: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Element-wise integer sum of a stack of HVs (non-binary bundle).

    Returns an :data:`ACCUM_DTYPE` vector; use :func:`sign` to binarize.
    """
    mat = np.asarray(hvs)
    if mat.ndim == 1:
        return mat.astype(ACCUM_DTYPE, copy=True)
    return mat.sum(axis=0, dtype=ACCUM_DTYPE)


def permute(hv: np.ndarray, k: int) -> np.ndarray:
    """Circularly rotate ``hv`` left by ``k`` positions (the paper's rho_k).

    ``rho_k(HV) = {HV[k:], HV[:k]}``. ``k`` is reduced modulo ``D`` so any
    integer (including negatives, which rotate right) is accepted. Works
    on a single ``(D,)`` vector or a ``(..., D)`` stack, rotating the last
    axis.
    """
    arr = np.asarray(hv)
    d = arr.shape[-1]
    return np.roll(arr, -(k % d), axis=-1)


def rotation_windows(hvs: np.ndarray) -> np.ndarray:
    """Every left rotation of every row of a ``(K, D)`` matrix, as a view.

    The rows are concatenated with themselves once; the result is a
    read-only ``(K, D + 1, D)`` sliding-window view of that doubled copy
    with ``windows[i, k] == permute(hvs[i], k)`` for ``0 <= k < D``. Each
    rotated row is one contiguous ``D``-element slice, so a fancy index
    ``windows[rows, shifts]`` copies out rotated rows without building an
    index matrix — the software form of a hardware shifter.
    """
    mat = np.asarray(hvs)
    if mat.ndim != 2:
        raise ValueError(f"expected a (K, D) matrix, got shape {mat.shape}")
    doubled = np.concatenate((mat, mat), axis=1)
    return np.lib.stride_tricks.sliding_window_view(doubled, mat.shape[1], axis=1)


def permute_rows(hvs: np.ndarray, shifts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Rotate each row ``i`` of a ``(K, D)`` matrix left by ``shifts[i]``.

    Reads row ``i``'s window at ``shifts[i] % D`` from
    :func:`rotation_windows`, so each output row is one contiguous copy.
    Shift values are taken modulo ``D`` (negatives rotate right). The
    result is a fresh, writable array with the input's dtype.
    """
    windows = rotation_windows(hvs)
    shift_arr = np.asarray(shifts, dtype=np.int64)
    if shift_arr.shape != (windows.shape[0],):
        raise DimensionMismatchError(
            f"got {shift_arr.shape[0] if shift_arr.ndim else 'scalar'} shifts "
            f"for {windows.shape[0]} rows"
        )
    return windows[np.arange(windows.shape[0]), shift_arr % windows.shape[2]]


@functools.lru_cache(maxsize=16)
def tie_bits(dim: int) -> np.ndarray:
    """The read-only ``(dim,)`` bool vector that breaks Eq. 3's sign(0) ties.

    Drawn once per ``dim`` from :data:`TIE_SEED`: each coordinate ties
    to ``+1`` or ``-1`` with equal odds, and every encoder, class memory
    and attacker of that dimension uses the same vector.
    """
    bits = np.random.default_rng(TIE_SEED).integers(0, 2, int(dim), dtype=bool)
    bits.flags.writeable = False
    return bits


def sign_bits(accums: np.ndarray, ties: np.ndarray | None = None) -> np.ndarray:
    """Eq. 3 as bits (``+1 -> True``) of accumulations of shape ``(..., D)``.

    ``bit = acc > 0 | (acc == 0 & tie_bits(D))``: the one owner of the
    binarization rule, shared by :func:`sign`, the encoders' dense
    :func:`~repro.encoding.engine.binarize_batch` and the fused
    :func:`~repro.hv.packing.pack_signs`. ``ties`` replaces
    ``tie_bits(D)`` for accumulations stored in another coordinate
    order: the encoding engine binarizes its permuted buffer against
    ``tie_bits(D)[perm]``.
    """
    arr = np.asarray(accums)
    if arr.ndim == 0:
        raise DimensionMismatchError("sign_bits needs at least one axis, got a scalar")
    bits = arr > 0
    zeros = arr == 0
    zeros &= tie_bits(arr.shape[-1]) if ties is None else ties
    bits |= zeros
    return bits


def sign(accum: np.ndarray) -> np.ndarray:
    """Binarize a non-binary accumulation into a bipolar HV (Eq. 3).

    Entries ``> 0`` map to ``+1``, entries ``< 0`` to ``-1``, and exact
    zeros take the fixed tie bit of their coordinate (:func:`sign_bits`).
    """
    # Map the fresh bool buffer to +-1 in place, as int8.
    signs = sign_bits(accum).view(BIPOLAR_DTYPE)
    signs *= 2
    signs -= 1
    return signs


def stack(hvs: Iterable[np.ndarray]) -> np.ndarray:
    """Stack an iterable of ``(D,)`` hypervectors into a ``(K, D)`` matrix."""
    mat = np.stack(list(hvs))
    check_same_dim(mat)
    return mat
