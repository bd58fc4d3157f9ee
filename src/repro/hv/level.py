"""Level (value) hypervector construction.

Feature *values* are discretized to ``M`` levels and each level gets a
hypervector ``ValHV_v``. Unlike feature hypervectors, the value HVs must
be **linearly correlated** (Eq. 1b)::

    Hamm(ValHV_v1, ValHV_v2) ~= 0.5 * |v1 - v2| / (v_max - v_min)

so that nearby values encode to nearby HVs while the extreme levels
``ValHV_1`` and ``ValHV_M`` are orthogonal. The standard construction
(used by QuantHD [4] and most HDC work) starts from a random HV and flips
a fresh batch of ``D / (2 (M-1))`` coordinates per level step; flips
accumulate, so level ``M`` differs from level 1 in ``D/2`` coordinates.

This consecutive structure is exactly the weakness the paper's value-
extraction attack exploits: the two extremes are identifiable as the pair
at maximum pairwise distance (Sec. 3.2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hv.ops import BIPOLAR_DTYPE, DEFAULT_DIM
from repro.hv.random import random_hv
from repro.utils.rng import SeedLike, resolve_rng


def level_hvs(levels: int, dim: int = DEFAULT_DIM, rng: SeedLike = None) -> np.ndarray:
    """Generate an ``(levels, dim)`` matrix of linearly correlated HVs.

    Row ``v`` is the hypervector for discretized value level ``v``
    (0-based). Rows satisfy Eq. 1b: the normalized Hamming distance
    between rows ``v1`` and ``v2`` is ``|v1 - v2| / (2 (levels - 1))`` up
    to integer rounding of the per-step flip count, and rows 0 and
    ``levels - 1`` are (near-)orthogonal.

    ``levels`` must be at least 2 — a single level cannot span a value
    range.
    """
    if levels < 2:
        raise ConfigurationError(f"need at least 2 value levels, got {levels}")
    if dim < 2 * (levels - 1):
        raise ConfigurationError(
            f"dim={dim} too small to spread {levels} levels over D/2 flip positions"
        )
    gen = resolve_rng(rng)
    base = random_hv(dim, gen)

    # Choose D/2 coordinates (without replacement) and split them into
    # levels-1 nearly equal batches; level v flips the first v batches.
    half = dim // 2
    flip_order = gen.permutation(dim)[:half]
    boundaries = np.linspace(0, half, levels, dtype=np.int64)

    out = np.empty((levels, dim), dtype=BIPOLAR_DTYPE)
    out[0] = base
    current = base.copy()
    for v in range(1, levels):
        batch = flip_order[boundaries[v - 1] : boundaries[v]]
        current[batch] = -current[batch]
        out[v] = current
    return out


def level_profile(level_matrix: np.ndarray) -> np.ndarray:
    """Normalized Hamming distance of every level to level 0.

    For a well-formed level memory this is a straight line from 0 to
    ~0.5; the attacker sorts the published (shuffled) value pool along
    this profile to recover the level order.
    """
    mat = np.asarray(level_matrix)
    d = mat.shape[-1]
    mismatch = np.count_nonzero(mat != mat[0], axis=-1)
    return mismatch / d
