"""Similarity metrics between hypervectors.

The paper uses two metrics (Sec. 2):

* **normalized Hamming distance** for binary (bipolar) models —
  fraction of positions where two HVs disagree. For bipolar vectors it
  relates to the dot product by ``hamming = (1 - dot/(D)) / 2``.
* **cosine similarity** for non-binary models — the angle between the
  integer-valued encodings.

All functions broadcast a ``(K, D)`` stack against a ``(D,)`` vector so
attack code can score a whole candidate pool in one call.
"""

from __future__ import annotations

import numpy as np

from repro.hv.ops import ACCUM_DTYPE, check_same_dim


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray | np.integer:
    """Integer dot product along the last axis (no normalization)."""
    check_same_dim(a, b)
    return np.sum(
        np.asarray(a, dtype=ACCUM_DTYPE) * np.asarray(b, dtype=ACCUM_DTYPE), axis=-1
    )


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Normalized Hamming distance between bipolar HVs, in ``[0, 1]``.

    Orthogonal HVs score ~0.5 (Eq. 1a); identical HVs score 0. For a
    ``(K, D)`` stack vs a ``(D,)`` vector, returns a length-``K`` array.
    """
    d = check_same_dim(a, b)
    mismatches = np.count_nonzero(np.not_equal(a, b), axis=-1)
    result = mismatches / d
    return float(result) if np.ndim(result) == 0 else result


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Cosine similarity along the last axis, in ``[-1, 1]``.

    A zero vector has undefined angle; it scores 0 against everything
    (this situation only arises for degenerate all-tie accumulations).
    """
    check_same_dim(a, b)
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    num = np.sum(af * bf, axis=-1)
    denom = np.linalg.norm(af, axis=-1) * np.linalg.norm(bf, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.where(denom == 0, 0.0, num / np.where(denom == 0, 1.0, denom))
    return float(result) if np.ndim(result) == 0 else result


def pairwise_hamming(pool: np.ndarray) -> np.ndarray:
    """All-pairs normalized Hamming distance matrix of a ``(K, D)`` pool.

    Computed through the Gram matrix (``hamming = (1 - gram/D) / 2``)
    which is a BLAS ``K x K`` matmul instead of ``K^2`` vector passes —
    exact for bipolar pools since every dot product is an integer well
    inside the float64 mantissa. Rows are processed all at once below
    4096 rows and in 1024-row tiles above, which bounds the per-tile
    gram temporary; note the pool itself is still cast to one full
    ``(K, D)`` float64 copy and the ``(K, K)`` output is dense — for
    pools too large for that, use the bit-packed
    :func:`repro.hv.packing.pairwise_hamming_packed` (8x leaner inputs).
    The attacker uses this on the published value-HV pool to find the
    two extreme levels (Sec. 3.2, "Value Hypervector Extraction").
    """
    mat = np.asarray(pool)
    if mat.ndim != 2:
        raise ValueError(f"expected a (K, D) pool, got shape {mat.shape}")
    k, d = mat.shape
    chunk = k if k <= 4096 else 1024
    mat_f = mat.astype(np.float64, copy=False)
    out = np.empty((k, k), dtype=np.float64)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        gram = mat_f[start:stop] @ mat_f.T
        out[start:stop] = (1.0 - gram / d) / 2.0
    return out


def is_bipolar(arr: np.ndarray) -> bool:
    """True when every entry of an integer array is -1 or +1.

    The gate for routing Hamming work through the packed XOR-popcount
    kernels: packing collapses 0 and all positive magnitudes onto one
    bit, so only genuinely bipolar data may take the packed path.
    """
    return (
        np.issubdtype(np.asarray(arr).dtype, np.integer)
        and np.asarray(arr).size > 0
        and bool((np.abs(arr) == 1).all())
    )


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity of ``(Ka, D)`` against ``(Kb, D)``.

    One BLAS matmul plus two norm passes instead of ``Ka * Kb`` vector
    dots. Rows with zero norm score 0 against everything, matching
    :func:`cosine`'s degenerate-vector convention — classifier
    inference and attack guess scoring both rely on this helper so the
    convention lives in exactly one place.
    """
    a_f = np.asarray(a, dtype=np.float64)
    b_f = np.asarray(b, dtype=np.float64)
    if a_f.ndim != 2 or b_f.ndim != 2:
        raise ValueError(
            f"expected (K, D) stacks, got shapes {a_f.shape} and {b_f.shape}"
        )
    check_same_dim(a_f, b_f)
    num = a_f @ b_f.T
    denom = np.linalg.norm(a_f, axis=1)[:, None] * np.linalg.norm(b_f, axis=1)
    return np.where(denom == 0, 0.0, num / np.where(denom == 0, 1.0, denom))
