"""Derivation of locked feature hypervectors from a base pool and a key.

This implements Eq. 9 of the paper::

    FeaHV_i = prod_{l=1..L} rho^{k_{i,l}}(B_{i,l})

The base pool ``B`` lives in public memory; the per-feature indices and
rotation amounts come from the :class:`~repro.memory.key.LockKey` in
secure memory. Because rotation of a random bipolar HV yields another
(quasi-independent) random bipolar HV, and binding preserves
quasi-orthogonality, the derived feature hypervectors behave statistically
exactly like freshly drawn orthogonal feature HVs — which is why HDLock
costs no accuracy (paper Fig. 8).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError, KeyFormatError
from repro.hv.ops import BIPOLAR_DTYPE, bind_many, permute, rotation_windows
from repro.memory.key import LockKey, SubKey


def derive_feature_hv(pool: np.ndarray, subkey: SubKey) -> np.ndarray:
    """Derive the feature hypervector of a single feature.

    ``pool`` is the ``(P, D)`` base matrix; the result is the bound
    product of the subkey's ``L`` rotated base HVs.
    """
    mat = np.asarray(pool)
    layers = [permute(mat[index], rotation) for index, rotation in subkey.pairs()]
    return bind_many(np.stack(layers))


def derive_feature_matrix(pool: np.ndarray, key: LockKey) -> np.ndarray:
    """Derive all ``N`` locked feature hypervectors at once.

    The pool is doubled once (:func:`~repro.hv.ops.rotation_windows`);
    layer ``l`` is then one fancy index of its windows at
    ``(indices[:, l], rotations[:, l])`` — every selected base row
    already rotated, one contiguous copy per feature — multiplied into
    the running product in place. Returns an ``(N, D)`` bipolar matrix
    laid out exactly like a plain
    :class:`~repro.memory.item_memory.FeatureMemory`.
    """
    mat = np.asarray(pool)
    if mat.ndim != 2:
        raise DimensionMismatchError(f"base pool must be (P, D), got {mat.shape}")
    if mat.shape[0] < key.pool_size or mat.shape[1] != key.dim:
        raise KeyFormatError(
            f"key expects pool >= {key.pool_size} x {key.dim}, got {mat.shape}"
        )
    # Key validation bounds every rotation to [0, D), a valid window.
    indices, rotations = key.to_arrays()
    windows = rotation_windows(mat)
    product = windows[indices[:, 0], rotations[:, 0]].astype(BIPOLAR_DTYPE, copy=False)
    for step in range(1, key.layers):
        np.multiply(product, windows[indices[:, step], rotations[:, step]], out=product)
    return product
