"""Min-max discretization of raw feature values to level indices.

The paper (Sec. 2, "Encoding"): feature values are discretized to ``M``
levels based on the minimum and maximum values across the entire dataset.
Encoders in this library consume the resulting integer level vectors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def quantize_minmax(
    values: np.ndarray,
    levels: int,
    vmin: float | None = None,
    vmax: float | None = None,
) -> np.ndarray:
    """Map real values to integer levels ``0..levels-1``.

    ``vmin``/``vmax`` default to the extremes of ``values`` (the paper's
    dataset-wide min/max); out-of-range inputs clip to the boundary
    levels, matching fixed-point hardware front-ends.
    """
    if levels < 2:
        raise ConfigurationError(f"need at least 2 levels, got {levels}")
    arr = np.asarray(values, dtype=np.float64)
    lo = float(arr.min()) if vmin is None else float(vmin)
    hi = float(arr.max()) if vmax is None else float(vmax)
    if hi <= lo:
        # Degenerate range: every value is the same level.
        return np.zeros(arr.shape, dtype=np.int64)
    scaled = (arr - lo) / (hi - lo) * levels
    return np.clip(scaled.astype(np.int64), 0, levels - 1)
