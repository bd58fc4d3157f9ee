"""Step 1 of the reasoning attack: recover the value-HV mapping.

Paper Sec. 3.2, "Value Hypervector Extraction". The published value pool
has a strong geometric fingerprint (Eq. 1b): all ``M`` rows sit on a
line, with only the two extremes ``ValHV_1`` / ``ValHV_M`` mutually
orthogonal. The attack:

1. compute all pairwise Hamming distances of the published pool — the
   arg-max pair are the two extremes;
2. craft a single all-minimum input. By Eq. 5 the encoder output factors
   as ``ValHV_1 * sign(sum_i FeaHV_i)``, and the *sum over the pool*
   equals the sum over the true features regardless of mapping, so the
   attacker can strip the feature part off: Eq. 6 gives an estimate of
   ``ValHV_1``;
3. whichever extreme is closer to the estimate is level 1; the remaining
   levels sort by distance from it.

The only error source is ``sign(0)``: for even ``N``, a fraction
``~sqrt(2 / (pi N))`` of dimensions tie in the response and take the
fixed tie bit of :func:`repro.hv.ops.tie_bits`, which disagrees with
the true product about half the time. That keeps the correct extreme at
distance a few percent while the wrong one stays near 0.5 — an
unambiguous margin. The estimate is deterministic: repeating the query
returns the same bits, so it cannot average the ties away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.threat_model import AttackSurface
from repro.errors import AttackError
from repro.hv.ops import bind, sign
from repro.hv.packing import hamming_packed, pack_words
from repro.hv.similarity import hamming, is_bipolar, pairwise_hamming


@dataclass(frozen=True)
class ValueExtractionResult:
    """Recovered value mapping plus the evidence behind it.

    ``level_order[v]`` is the published-pool row recovered as
    ``ValHV_{v+1}``. ``extreme_distances`` holds the Hamming distance of
    the Eq. 6 estimate to the (chosen, rejected) extreme candidates —
    the attack's confidence gap.
    """

    level_order: np.ndarray
    extreme_distances: tuple[float, float]
    queries: int


def find_extreme_pair(value_pool: np.ndarray) -> tuple[int, int]:
    """Indices of the two most distant rows of the published value pool.

    These are the extreme levels ``ValHV_1`` and ``ValHV_M`` (in unknown
    order) because every other pair is strictly closer under Eq. 1b.
    """
    distances = pairwise_hamming(value_pool)
    flat = int(np.argmax(distances))
    i, j = divmod(flat, distances.shape[1])
    if i == j:
        raise AttackError("value pool has fewer than two distinct rows")
    return (i, j) if i < j else (j, i)


def estimate_min_value_hv(surface: AttackSurface) -> np.ndarray:
    """Estimate ``ValHV_1`` from one all-minimum oracle query (Eq. 5-6)."""
    all_min = np.zeros(surface.n_features, dtype=np.int64)
    response = surface.oracle.query(all_min)
    if not surface.binary:
        response = sign(response)
    # sum over the *published pool* == sum over the true features: the
    # mapping permutes terms of a commutative sum (the paper's key
    # observation enabling Eq. 6 without mapping knowledge).
    feature_sum_sign = sign(surface.feature_pool.sum(axis=0, dtype=np.int64))
    return bind(response, feature_sum_sign)


def extract_value_mapping(
    surface: AttackSurface, min_margin: float = 0.1
) -> ValueExtractionResult:
    """Run the full value-extraction step against ``surface``.

    ``min_margin`` is the smallest acceptable gap between the estimate's
    distances to the two extreme candidates; an ambiguous gap (both near
    0.5, e.g. because the pool is not actually a level memory) raises
    :class:`AttackError` instead of silently returning a guess.
    """
    first, second = find_extreme_pair(surface.value_pool)
    estimate = estimate_min_value_hv(surface)
    d_first = float(hamming(surface.value_pool[first], estimate))
    d_second = float(hamming(surface.value_pool[second], estimate))
    if abs(d_first - d_second) < min_margin:
        raise AttackError(
            f"cannot identify ValHV_1: candidate distances {d_first:.3f} vs "
            f"{d_second:.3f} are within margin {min_margin}"
        )
    minimum_row = first if d_first < d_second else second
    chosen, rejected = min(d_first, d_second), max(d_first, d_second)

    # Levels sort by distance from ValHV_1 (Eq. 1b is monotonic in v).
    # Bipolar pools score through the word-packed XOR-popcount kernel
    # (identical mismatch counts, an eighth of the memory traffic);
    # anything else — packing collapses 0 and positive magnitudes —
    # keeps the dense comparison.
    if is_bipolar(surface.value_pool):
        packed_pool = pack_words(surface.value_pool)
        distances_from_min = np.asarray(
            hamming_packed(
                packed_pool, packed_pool[minimum_row], surface.value_pool.shape[1]
            )
        )
    else:
        distances_from_min = np.asarray(
            hamming(surface.value_pool, surface.value_pool[minimum_row])
        )
    level_order = np.argsort(distances_from_min, kind="stable")
    return ValueExtractionResult(
        level_order=level_order,
        extreme_distances=(chosen, rejected),
        queries=1,
    )
