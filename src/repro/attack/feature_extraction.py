"""Step 2 of the reasoning attack: recover the feature-HV mapping.

Paper Sec. 3.2, "Feature Hypervector Extraction". With the value mapping
known, the attacker isolates one feature at a time: the crafted input
sets feature ``i`` to the maximum level and everything else to the
minimum, so the observed output is (Eq. 7)::

    H_i = sign( FeaHV_i * ValHV_M  +  sum_{j != i} FeaHV_j * ValHV_1 )

Because the candidate pool is the true feature set (just unindexed), the
unknown-mapping sum rewrites against the *pool* total ``T``::

    H_i = sign( T + FeaHV_i * (ValHV_M - ValHV_1) ),
    T   = sum_{pool} FeaHV_j * ValHV_1

and a guess ``n`` predicts ``H'_n = sign(T + FeaHV_n * delta)`` (Eq. 8).
Two structural facts make the sweep cheap:

* ``delta = ValHV_M - ValHV_1`` is zero outside the ``~D/2`` coordinates
  where the extremes disagree, so all candidates agree with ``sign(T)``
  off that support ``I`` — only ``|I|`` coordinates ever need scoring;
* the candidate predictions on ``I`` do not depend on which feature is
  being attacked, so the whole ``(N, |I|)`` prediction table is built
  once, and a block of crafted responses scores against it as one
  matrix pass: tiled XOR-popcount over the bit-packed table for binary
  models, one GEMM against the contribution table for non-binary ones.

The ``N`` crafted inputs go to the oracle in blocks of
:data:`QUERY_BLOCK_ROWS`, in feature order, so the query count matches
one query per feature. Divide and
conquer then runs over the score rows: each matched candidate leaves the
pool, giving the paper's ``O(N^2)`` guess count (``N + (N-1) + ...``,
reported as ``N * N`` worst case).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.attack.threat_model import AttackSurface
from repro.errors import AttackError
from repro.hv.packing import pack_words, pairwise_hamming_packed


@dataclass(frozen=True)
class FeatureExtractionResult:
    """Recovered feature mapping plus per-feature confidence margins.

    ``assignment[i]`` is the published-pool row recovered as
    ``FeaHV_{i+1}``. ``margins[i]`` is the normalized score gap between
    the best and the runner-up candidate — near 0.5 for a healthy attack
    on a binary model, and the quantity plotted in paper Fig. 3.
    """

    assignment: np.ndarray
    margins: np.ndarray
    guesses: int
    queries: int


#: Crafted inputs sent per oracle batch. The block bounds the working set
#: (the oracle's ``(B, D)`` accumulations plus the ``(B, N)`` score rows)
#: so peak memory stays flat in ``N``: one batch of all ``N`` inputs raised
#: Table 1's peak RSS from 134 to 157 MB (D = 2048, 2-core x86 host) and
#: ran no faster.
QUERY_BLOCK_ROWS = 128

#: Responses per packed XOR tile in binary scoring: keeps the
#: ``(tile, N, W)`` XOR intermediate near 4 MB for the widest Table 1
#: model (N = 960, |I| ~ 1024 support bits).
_HAMMING_TILE_ROWS = 32


def _crafted_input(n_features: int, feature: int, levels: int) -> np.ndarray:
    """The Eq. 7 adversarial input: feature ``feature`` at max level."""
    sample = np.zeros(n_features, dtype=np.int64)
    sample[feature] = levels - 1
    return sample


def crafted_responses(surface: AttackSurface) -> Iterator[np.ndarray]:
    """Oracle responses to the ``N`` Eq. 7 inputs, in feature order.

    Yields one ``(B, D)`` block per :data:`QUERY_BLOCK_ROWS` features.
    Each block is one ``query_batch`` call, which encodes its rows in
    order, so outputs equal one ``query`` per feature. A guarded oracle
    refuses a block as a whole when any of its rows trips the monitor;
    the lockout propagates and ``n_queries`` counts served blocks only.
    """
    n = surface.n_features
    for start in range(0, n, QUERY_BLOCK_ROWS):
        features = np.arange(start, min(start + QUERY_BLOCK_ROWS, n))
        samples = np.zeros((features.size, n), dtype=np.int64)
        samples[np.arange(features.size), features] = surface.levels - 1
        yield surface.oracle.query_batch(samples)


class CandidateTable:
    """Precomputed per-candidate predictions on the support ``I``.

    Binary surfaces store the predictions bit-packed for XOR-popcount
    scoring; non-binary surfaces store the exact integer contributions
    ``FeaHV_n * delta`` on ``I`` for cosine scoring (where the correct
    candidate scores exactly 1, paper Sec. 3.2 last paragraph).
    """

    def __init__(
        self,
        feature_pool: np.ndarray,
        value_min: np.ndarray,
        value_max: np.ndarray,
        binary: bool,
    ) -> None:
        pool = np.asarray(feature_pool, dtype=np.int32)
        v1 = np.asarray(value_min, dtype=np.int32)
        v_m = np.asarray(value_max, dtype=np.int32)
        delta = v_m - v1
        self.dim = int(pool.shape[1])
        self.support = np.flatnonzero(delta)
        self.off_support = np.flatnonzero(delta == 0)
        if self.support.size == 0:
            raise AttackError(
                "ValHV_1 and ValHV_M are identical; value extraction must "
                "have failed"
            )
        self.binary = binary
        #: Pool total T = sum_pool FeaHV_j * ValHV_1, full dimension.
        self._total = pool.sum(axis=0, dtype=np.int64) * v1.astype(np.int64)
        self.total_on_support = self._total[self.support]
        contributions = pool[:, self.support] * delta[self.support]
        if binary:
            predictions = np.where(
                self.total_on_support[None, :] + contributions >= 0, 1, -1
            ).astype(np.int8)
            # Word-packed (uint64) prediction table, built once; every
            # scoring pass stays in the packed domain.
            self._packed_predictions = pack_words(predictions)
            self._off_support_signs = np.where(
                self._total[self.off_support] >= 0, 1, -1
            ).astype(np.int8)
        else:
            self._contributions = contributions.astype(np.float64)
            self._norms = np.linalg.norm(self._contributions, axis=1)

    def score(
        self,
        observed: np.ndarray,
        available: np.ndarray,
        full_dim: bool = False,
    ) -> np.ndarray:
        """Score every available candidate against oracle responses.

        ``observed`` is one ``(D,)`` response or a ``(B, D)`` stack; the
        result is aligned with ``available`` — ``(len(available),)`` or
        ``(B, len(available))``, row ``b`` scoring response ``b``. Lower
        is always better (normalized Hamming distance for binary
        surfaces, ``1 - cosine`` for non-binary ones). Every score is an
        exact function of integer counts, so a row of a stacked call is
        bit-identical to scoring that response alone.

        By default binary scores are normalized over the support ``I``
        only — all candidates agree off it, so this changes no decision
        and halves the work. ``full_dim=True`` instead reports the
        distance over all ``D`` coordinates (off-support mismatches are
        candidate-independent sign ties and are added back in), which is
        the exact quantity paper Fig. 3 plots.
        """
        rows = np.atleast_2d(observed)
        if self.binary:
            scores = pairwise_hamming_packed(
                pack_words(rows[:, self.support]),
                self._packed_predictions[available],
                self.support.size,
                chunk_size=_HAMMING_TILE_ROWS,
            )
            if full_dim:
                off_mismatches = np.count_nonzero(
                    rows[:, self.off_support] != self._off_support_signs, axis=1
                )
                support_mismatches = scores * self.support.size
                scores = (support_mismatches + off_mismatches[:, None]) / self.dim
        else:
            # The residual is exactly zero off the support, so
            # support-restricted and full-dimension cosines coincide.
            # Dots and squared norms are integers, exact in float64
            # whatever the summation order of the GEMM.
            residuals = rows[:, self.support].astype(np.float64) - self.total_on_support
            residual_norms = np.linalg.norm(residuals, axis=1)
            if not residual_norms.all():
                raise AttackError("observed response carries no feature signal")
            dots = residuals @ self._contributions[available].T
            scores = 1.0 - dots / (self._norms[available] * residual_norms[:, None])
        return scores[0] if np.ndim(observed) == 1 else scores


def extract_feature_mapping(
    surface: AttackSurface,
    level_order: np.ndarray,
) -> FeatureExtractionResult:
    """Run the divide-and-conquer sweep for every feature index.

    ``level_order`` is the value mapping recovered by
    :func:`repro.attack.value_extraction.extract_value_mapping`. The
    crafted inputs go out in blocks (:func:`crafted_responses`); each
    block is scored against the candidates still available when it
    arrives, and the greedy elimination then walks its score rows in
    feature order. Assignment, margins, guess and query counts equal a
    one-query-per-feature sweep.

    Against a :class:`~repro.attack.countermeasures.GuardedOracle` that
    locks out partway, the block holding the tripping query is refused
    as a whole: :class:`~repro.attack.countermeasures.OracleLockoutError`
    propagates, and ``oracle.n_queries`` counts only the blocks served
    before it.
    """
    n = surface.n_features
    order = np.asarray(level_order)
    table = CandidateTable(
        surface.feature_pool,
        surface.value_pool[order[0]],
        surface.value_pool[order[-1]],
        binary=surface.binary,
    )

    assignment = np.full(n, -1, dtype=np.int64)
    margins = np.zeros(n, dtype=np.float64)
    available = np.arange(n)
    guesses = 0
    feature = 0
    for responses in crafted_responses(surface):
        block_scores = table.score(responses, available)
        alive = np.ones(available.size, dtype=bool)
        for row in block_scores:
            positions = np.flatnonzero(alive)
            scores = row[positions]
            guesses += int(positions.size)
            best_pos = int(np.argmin(scores))
            assignment[feature] = available[positions[best_pos]]
            if positions.size > 1:
                runner_up = float(np.partition(scores, 1)[1])
                margins[feature] = runner_up - float(scores[best_pos])
            else:
                margins[feature] = float("inf")
            alive[positions[best_pos]] = False
            feature += 1
        available = available[alive]
    return FeatureExtractionResult(
        assignment=assignment,
        margins=margins,
        guesses=guesses,
        queries=n,
    )


def guess_distance_series(
    surface: AttackSurface,
    level_order: np.ndarray,
    feature: int = 0,
    full_dim: bool = False,
) -> np.ndarray:
    """Score *all* ``N`` candidates for one feature (no elimination).

    This is exactly the experiment of paper Fig. 3: the Hamming distance
    (binary) or ``1 - cosine`` (non-binary) of every possible guess for
    one attacked feature, where the correct candidate shows a clear dip.
    Index ``j`` of the result scores published-pool row ``j``. Pass
    ``full_dim=True`` to match the paper's full-``D`` Hamming axis.
    """
    order = np.asarray(level_order)
    table = CandidateTable(
        surface.feature_pool,
        surface.value_pool[order[0]],
        surface.value_pool[order[-1]],
        binary=surface.binary,
    )
    observed = surface.oracle.query(
        _crafted_input(surface.n_features, feature, surface.levels)
    )
    return table.score(
        np.asarray(observed), np.arange(surface.n_features), full_dim=full_dim
    )
