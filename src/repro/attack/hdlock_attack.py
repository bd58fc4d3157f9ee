"""Attacking an HDLock-protected encoder (paper Sec. 4.2).

Even against HDLock the adversary can build a *criterion* that separates
a correct key guess from wrong ones — security rests on the size of the
guess space, not on the absence of a distinguisher. The criterion:

1. query two crafted inputs that differ only in feature ``i`` (all-min
   vs feature-``i``-at-max) and subtract the outputs (Eq. 11). The
   constant part ``H_0`` cancels, so the difference is non-zero exactly
   where the first term ``ValHV * prod_l rho^{k_{i,l}}(B_{i,l})``
   changed the sign — the support ``I``;
2. a guessed subkey predicts the difference on ``I`` via Eq. 13; the
   correct guess matches (Hamming ~0 for binary, cosine exactly 1 for
   non-binary) while wrong guesses sit at chance.

Evaluating one guess costs ``O(|I|)``, but there are ``(D * P)^L``
guesses per feature — the quantity Fig. 7 plots and the reason a
two-layer key needs ``4.81e16`` tries on MNIST.

The module provides the single-guess scorer, the restricted sweeps of
Figs. 5/6 (three of four parameters known, sweep the fourth), the exact
FFT rotation-correlation kernel and the single-layer sweep built on it
(:func:`score_rotations` scores every guess ``(index, rotation)`` of one
feature in one pass, :func:`best_single_layer_guess` picks the argmin;
the arena's sweeping strategies in :mod:`repro.arena.attackers` are
their callers), and an adapter showing that the *unprotected* attack of
Sec. 3 collapses against a locked encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attack.threat_model import AttackSurface, LockedSurface
from repro.encoding.engine import resolve_chunk_size
from repro.errors import AttackError, ConfigurationError, NotBipolarError
from repro.hv.packing import hamming_packed, pack_words
from repro.hv.similarity import cosine_matrix, is_bipolar
from repro.memory.key import LockKey, SubKey


@dataclass(frozen=True)
class DifferenceObservation:
    """The attacker's two-query observation for one targeted feature.

    ``support`` is the index set ``I`` (coordinates where the two
    responses differ); ``target`` is the observed difference restricted
    to ``I`` — signs for a binary oracle, exact integers otherwise.
    """

    feature: int
    support: np.ndarray
    target: np.ndarray
    queries: int


def observe_difference(
    surface: LockedSurface, feature: int = 0
) -> DifferenceObservation:
    """Query the Eq. 11 input pair and extract support and target."""
    if not 0 <= feature < surface.n_features:
        raise ConfigurationError(
            f"feature {feature} outside [0, {surface.n_features})"
        )
    base = np.zeros(surface.n_features, dtype=np.int64)
    probe = base.copy()
    probe[feature] = surface.levels - 1
    response_min = surface.oracle.query(base).astype(np.int64)
    response_max = surface.oracle.query(probe).astype(np.int64)
    difference = response_min - response_max
    # The informative coordinates must also lie where ValHV_1 and
    # ValHV_M disagree — elsewhere the Eq. 11 first terms are equal and
    # any observed difference is pure sign(0) tie bits from the
    # binary oracle. The attacker knows the value mapping (strong model),
    # so filtering is free and sharpens the criterion.
    value_support = (
        surface.value_matrix[0].astype(np.int64)
        != surface.value_matrix[-1].astype(np.int64)
    )
    support = np.flatnonzero((difference != 0) & value_support)
    if support.size == 0:
        raise AttackError(
            "crafted input pair produced identical encodings; the oracle "
            "does not expose the targeted feature"
        )
    target = difference[support]
    if surface.binary:
        # difference of two sign vectors on its support is +-2 -> signs.
        target = np.sign(target).astype(np.int64)
    return DifferenceObservation(
        feature=feature, support=support, target=target, queries=2
    )


def _rotated_on_support(
    pool: np.ndarray, index: int, rotation: int, support: np.ndarray
) -> np.ndarray:
    """``rho^rotation(pool[index])`` evaluated only at ``support``.

    Left-rotation by ``k`` places original coordinate ``(d + k) mod D``
    at position ``d``, so a gather replaces materializing the rotation.
    """
    dim = pool.shape[1]
    return pool[index, (support + rotation) % dim]


def _guess_product_on_support(
    pool: np.ndarray, subkey: SubKey, support: np.ndarray
) -> np.ndarray:
    """Eq. 9 product of a guessed subkey, restricted to ``support``."""
    product = np.ones(support.size, dtype=np.int64)
    for index, rotation in subkey.pairs():
        product *= _rotated_on_support(pool, index, rotation, support)
    return product


#: Largest rounding residual :func:`rotation_correlation` accepts. At the
#: attack's shapes (D up to 10,000, weights up to ±16) the FFT lands
#: within ~3e-12 of the exact integers; a residual near 0.5 would mean the
#: result no longer rounds to the truth.
_ROUNDING_TOLERANCE = 0.25


def rotation_correlation(pool: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact circular cross-correlation of every pool row with ``weights``.

    Returns the ``(P, D)`` float64 matrix of exact integers
    ``corr[p, r] = sum_d weights[d] * pool[p, (d + r) mod D]`` — the
    weighted agreement of every rotation ``rho^r(pool[p])`` with one
    dense weight vector, i.e. the score of every single-layer guess
    ``(p, r)`` at once. Computed as ``irfft(conj(rfft(w)) * rfft(pool))``
    and rounded; integer inputs make the true values integers, and the
    rounding residual is checked so an inexact transform raises instead
    of silently shifting a score.
    """
    dim = pool.shape[1]
    spectrum = np.conj(np.fft.rfft(weights)) * np.fft.rfft(pool, axis=1)
    raw = np.fft.irfft(spectrum, n=dim, axis=1)
    exact = np.rint(raw)
    if np.abs(raw - exact).max() >= _ROUNDING_TOLERANCE:
        raise AttackError(
            "rotation correlation is not exact; weights must be integers "
            "small enough for float64 FFT precision"
        )
    return exact


def score_rotations(
    surface: LockedSurface, observation: DifferenceObservation
) -> np.ndarray:
    """Score every single-layer guess ``(index, r)`` against one observation.

    Returns the ``(P, D)`` score matrix: row ``index`` is base-pool row
    ``index``, column ``r`` is rotation ``r``. Scores are uniformly
    *lower is better*: normalized Hamming distance on binary surfaces,
    ``1 - cosine`` on non-binary ones — so arena strategies compare and
    threshold them without branching on the oracle flavor.

    A guess predicts ``v_delta * rho^r(B_index)`` on the support ``I``.
    With a bipolar pool every prediction is one
    :func:`rotation_correlation` entry away:

    * binary: ``sign(prediction) = sign(v_delta) * rho^r(B_index)`` and
      the target is ±1, so mismatches are ``(|I| - corr) / 2`` with
      weights ``sign(v_delta) * target`` on ``I``;
    * non-binary: the dot product with the target is ``corr`` with
      weights ``v_delta * target``, and every prediction has the norm
      ``||v_delta||``.

    Those preconditions (bipolar pool, ``v_delta != 0`` on ``I``, a ±1
    binary target) hold for every :func:`observe_difference` result and
    are checked rather than assumed.
    """
    pool = surface.base_pool
    if not is_bipolar(pool):
        raise NotBipolarError("rotation scoring needs a bipolar base pool")
    support = observation.support
    target = observation.target
    v_delta = (
        surface.value_matrix[0].astype(np.int64)
        - surface.value_matrix[-1].astype(np.int64)
    )[support]
    if not v_delta.all():
        raise AttackError(
            "observation support leaves the value support (ValHV_1 == ValHV_M)"
        )
    weights = np.zeros(surface.dim, dtype=np.int64)
    if surface.binary:
        if not (np.abs(target) == 1).all():
            raise AttackError("binary difference target must be +-1")
        weights[support] = np.sign(v_delta) * target
        corr = rotation_correlation(pool, weights).astype(np.int64)
        return (support.size - corr) // 2 / support.size
    target_norm = float(np.linalg.norm(target.astype(np.float64)))
    if target_norm == 0.0:
        raise AttackError("difference observation carries no signal")
    weights[support] = v_delta * target
    prediction_norm = float(np.linalg.norm(v_delta.astype(np.float64)))
    cosines = rotation_correlation(pool, weights) / (prediction_norm * target_norm)
    return 1.0 - cosines


def best_single_layer_guess(scores: np.ndarray) -> tuple[SubKey, float]:
    """The argmin guess of a ``(P, D)`` single-layer score matrix.

    Ties go to the first index, then the first rotation. Returns the
    guess as a one-layer subkey and its (lower-is-better) score.
    """
    index, rotation = divmod(int(np.argmin(scores)), scores.shape[1])
    return SubKey((index,), (rotation,)), float(scores[index, rotation])


def score_guess(
    surface: LockedSurface,
    observation: DifferenceObservation,
    guess: SubKey,
) -> float:
    """Score one key guess against an observation (Eq. 13).

    Binary surfaces return the normalized Hamming distance on ``I``
    (correct guess ~0, wrong ~0.5 — Fig. 5's y-axis); non-binary surfaces
    return the cosine similarity (correct guess exactly 1, wrong ~0 —
    Fig. 6's y-axis).
    """
    v_delta = (
        surface.value_matrix[0].astype(np.int64)
        - surface.value_matrix[-1].astype(np.int64)
    )[observation.support]
    predicted = v_delta * _guess_product_on_support(
        surface.base_pool, guess, observation.support
    )
    if surface.binary:
        mismatches = np.count_nonzero(np.sign(predicted) != observation.target)
        return mismatches / observation.support.size
    target = observation.target.astype(np.float64)
    pred = predicted.astype(np.float64)
    denom = np.linalg.norm(target) * np.linalg.norm(pred)
    if denom == 0:
        return 0.0
    return float(target @ pred / denom)


def score_guesses(
    surface: LockedSurface,
    observation: DifferenceObservation,
    guesses: Sequence[SubKey],
) -> np.ndarray:
    """Score many key guesses against one observation in one pass.

    The batched form of :func:`score_guess`: all candidate products on
    the support are built with a single ``(chunk, L, |I|)`` gather per
    tile instead of one Python-level product loop per guess — the kernel
    behind the Fig. 5/6 sweeps, where a rotation sweep alone evaluates
    ``D`` candidates. Binary surfaces score in the packed domain: the
    observed target packs to uint64 bit-planes once, each tile's
    predicted signs pack as they are produced, and the mismatch count is
    one XOR-popcount — no dense sign comparison over the support. Tiles
    follow the engine chunking model (a
    :data:`~repro.encoding.engine.DEFAULT_MEMORY_BUDGET`-bounded working
    set). Guesses must share a layer count; scores match
    :func:`score_guess` exactly.
    """
    if not guesses:
        return np.empty(0, dtype=np.float64)
    layer_counts = {g.layers for g in guesses}
    if len(layer_counts) != 1:
        raise ConfigurationError(
            f"guesses must share one layer count, got {sorted(layer_counts)}"
        )
    pool = np.asarray(surface.base_pool)
    dim = pool.shape[1]
    support = observation.support
    indices = np.array([g.indices for g in guesses], dtype=np.int64)
    rotations = np.array([g.rotations for g in guesses], dtype=np.int64)
    layers = indices.shape[1]
    v_delta = (
        surface.value_matrix[0].astype(np.int64)
        - surface.value_matrix[-1].astype(np.int64)
    )[support]
    if surface.binary:
        # v_delta is nonzero everywhere on the support (the observation
        # filtered it), so every predicted entry carries a sign bit.
        target_words = pack_words(observation.target)
    else:
        target_f = observation.target.astype(np.float64)

    scores = np.empty(len(guesses), dtype=np.float64)
    # Per guess: the (L, |I|) column-index array, the gathered int64
    # values of the same shape, and the product/predicted rows.
    row_bytes = support.size * (2 * layers + 2) * 8
    chunk = resolve_chunk_size(row_bytes, len(guesses))
    for start in range(0, len(guesses), chunk):
        stop = min(start + chunk, len(guesses))
        cols = (support[None, None, :] + rotations[start:stop, :, None]) % dim
        gathered = pool[indices[start:stop, :, None], cols].astype(np.int64)
        product = np.multiply.reduce(gathered, axis=1)
        predicted = v_delta[None, :] * product
        if surface.binary:
            scores[start:stop] = np.asarray(
                hamming_packed(pack_words(predicted), target_words, support.size)
            )
        else:
            scores[start:stop] = cosine_matrix(predicted, target_f[None, :])[:, 0]
    return scores


@dataclass(frozen=True)
class SweepResult:
    """A Fig. 5 / Fig. 6 restricted sweep over one key parameter.

    ``scores[0]`` belongs to the correct parameter value; the paper plots
    this point first followed by all wrong guesses. ``metric`` names the
    y-axis ("hamming": lower is better; "cosine": higher is better).
    """

    parameter: str
    layer: int
    metric: str
    candidates: np.ndarray
    scores: np.ndarray

    @property
    def correct_score(self) -> float:
        """Score of the true parameter value."""
        return float(self.scores[0])

    @property
    def separation(self) -> float:
        """Gap between the correct score and the best wrong score.

        Positive means the correct guess is uniquely identifiable —
        which is the paper's point: one remaining unknown parameter is
        *detectable*, there are just astronomically many combinations.
        """
        wrong = self.scores[1:]
        if wrong.size == 0:
            return float("inf")
        if self.metric == "hamming":
            return float(wrong.min() - self.scores[0])
        return float(self.scores[0] - wrong.max())


def sweep_parameter(
    surface: LockedSurface,
    true_key: LockKey,
    parameter: str,
    layer: int,
    feature: int = 0,
    max_wrong: int | None = None,
) -> SweepResult:
    """Reproduce one panel of Fig. 5/6.

    ``parameter`` is ``"rotation"`` (sweep ``k_{feature,layer}`` over all
    ``D`` values) or ``"index"`` (sweep ``index(B_{feature,layer})`` over
    all ``P`` pool rows); the other ``2L - 1`` parameters are set to
    their true values — the paper's worst case where the adversary
    already learned everything else. ``max_wrong`` caps the number of
    wrong candidates evaluated (evenly strided), keeping full-scale runs
    tractable without changing the conclusion.
    """
    if parameter not in ("rotation", "index"):
        raise ConfigurationError(
            f"parameter must be 'rotation' or 'index', got {parameter!r}"
        )
    subkey = true_key.subkeys[feature]
    if not 0 <= layer < subkey.layers:
        raise ConfigurationError(
            f"layer {layer} outside [0, {subkey.layers})"
        )
    observation = observe_difference(surface, feature)

    if parameter == "rotation":
        correct = subkey.rotations[layer]
        space = surface.dim
    else:
        correct = subkey.indices[layer]
        space = surface.pool_size
    wrong_values = [v for v in range(space) if v != correct]
    if max_wrong is not None and len(wrong_values) > max_wrong:
        stride = len(wrong_values) / max_wrong
        wrong_values = [wrong_values[int(i * stride)] for i in range(max_wrong)]
    candidates = np.array([correct] + wrong_values, dtype=np.int64)

    def with_value(value: int) -> SubKey:
        indices = list(subkey.indices)
        rotations = list(subkey.rotations)
        if parameter == "rotation":
            rotations[layer] = value
        else:
            indices[layer] = value
        return SubKey(tuple(indices), tuple(rotations))

    scores = score_guesses(
        surface, observation, [with_value(int(v)) for v in candidates]
    )
    return SweepResult(
        parameter=parameter,
        layer=layer,
        metric="hamming" if surface.binary else "cosine",
        candidates=candidates,
        scores=scores,
    )


def as_attack_surface(surface: LockedSurface) -> AttackSurface:
    """View a locked deployment through the unprotected attack's eyes.

    The Sec. 3 divide-and-conquer attack expects a feature pool; against
    HDLock the only published pool is the base pool, whose rows are *not*
    the feature hypervectors (for ``L >= 2`` — and for ``L = 1`` they are
    rotated). Running the plain attack through this adapter demonstrates
    the lock: no candidate scores better than chance.
    """
    return AttackSurface(
        feature_pool=surface.base_pool,
        value_pool=surface.value_matrix,
        oracle=surface.oracle,
    )
