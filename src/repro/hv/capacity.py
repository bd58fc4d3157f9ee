"""Bundling-capacity analysis for bipolar hypervectors.

How many hypervectors can a bundle hold before its members become
unrecognizable? This classic HDC question underpins both ends of the
paper's pipeline:

* the record encoder bundles ``N`` bound pairs — the expected Hamming
  distance between the binarized bundle and any constituent determines
  how much signal the attacker's crafted queries carry (the Fig. 3
  wrong-guess band is exactly this quantity);
* the class memory bundles hundreds of encodings — its capacity sets the
  one-shot accuracy the retraining loop starts from.

For a binarized bundle of ``k`` random bipolar HVs, each constituent
agrees with the bundle's sign independently per dimension with
probability ``1/2 + c(k)``, where the advantage ``c(k)`` follows the
majority-vote binomial: ``c(k) ~ 1 / sqrt(2 pi k)`` for large odd ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


def majority_advantage(k: int) -> float:
    """Per-dimension agreement advantage of one constituent, exact.

    For a bundle of ``k`` i.i.d. bipolar HVs (ties broken at random for
    even ``k``), the probability that a constituent matches the
    binarized bundle's sign is ``1/2 + majority_advantage(k)``. Computed
    from the central binomial coefficient.
    """
    if k < 1:
        raise ConfigurationError(f"bundle size must be >= 1, got {k}")
    if k == 1:
        return 0.5
    # Condition on the other k-1 terms: the constituent flips the sign
    # only when their partial sum is "near" zero. For even n = k-1 the
    # decisive event is their sum hitting exactly 0 (probability
    # C(n, n/2) / 2^n); for odd n it is hitting -1 given the constituent
    # is +1 (probability C(n, (n-1)/2) / 2^n). Both contribute half.
    n = k - 1
    m = n // 2 if n % 2 == 0 else (n - 1) // 2
    # log-space central binomial: exact enough at any n and O(1), where
    # math.comb would build million-digit integers for large bundles.
    log_p = (
        math.lgamma(n + 1)
        - math.lgamma(m + 1)
        - math.lgamma(n - m + 1)
        - n * math.log(2.0)
    )
    return math.exp(log_p) / 2.0


def expected_member_distance(k: int) -> float:
    """Expected normalized Hamming distance of a constituent to the
    binarized bundle of ``k`` random HVs: ``0.5 - majority_advantage``."""
    return 0.5 - majority_advantage(k)


def detection_margin(k: int, dim: int, sigmas: float = 4.0) -> float:
    """Distance margin separating members from non-members.

    Non-members sit at 0.5 with standard deviation ``1/(2 sqrt(D))``;
    the margin is the member advantage minus ``sigmas`` standard
    deviations of that noise. Positive margin = members recognizable.
    """
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    return majority_advantage(k) - sigmas * 0.5 / math.sqrt(dim)


def capacity(dim: int, sigmas: float = 4.0, max_k: int = 1 << 20) -> int:
    """Largest bundle size whose members remain detectable at ``dim``.

    Uses the asymptotic advantage ``~1/sqrt(2 pi k)``: detectability
    requires ``1/sqrt(2 pi k) > sigmas / (2 sqrt(D))``, i.e.
    ``k < 2 D / (pi sigmas^2)``. The exact advantage is used near the
    boundary so the result is sharp.
    """
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    estimate = int(2 * dim / (math.pi * sigmas**2))
    k = max(min(estimate * 2, max_k), 1)
    while k > 1 and detection_margin(k, dim, sigmas) <= 0:
        k -= max(k // 64, 1)
    return k


def _log2_comb(n: int, k: int) -> float:
    """``log2 C(n, k)`` via lgamma — exact enough at fleet scale, O(1)."""
    if k < 0 or k > n:
        raise ConfigurationError(f"C({n}, {k}) is undefined")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2.0)


def subkey_space_log2(pool_size: int, dim: int, layers: int) -> float:
    """``log2`` of the number of distinct subkeys for one feature.

    A subkey is a size-``L`` subset of the ``P * D`` (index, rotation)
    pair space, so the count is ``C(P * D, L)`` — the per-feature term
    of the paper's Eq. 12 guess-complexity argument.
    """
    if pool_size < 1 or dim < 1:
        raise ConfigurationError(
            f"pool_size and dim must be >= 1, got {pool_size} and {dim}"
        )
    if layers < 1 or layers > pool_size * dim:
        raise ConfigurationError(
            f"layers must be in [1, P * D], got {layers} for "
            f"P={pool_size}, D={dim}"
        )
    return _log2_comb(pool_size * dim, layers)


def key_entropy_bits(
    n_features: int, layers: int, pool_size: int, dim: int
) -> float:
    """``log2`` of the number of distinct whole keys (ordered ``N``-tuples
    of pairwise-distinct subkeys) — the uniform-key entropy in bits.

    The exact count is the falling factorial ``S * (S-1) * ... *
    (S-N+1)`` with ``S = C(P * D, L)``; for fleet-relevant shapes ``S``
    dwarfs ``N`` and the distinctness correction is below float
    resolution, so ``N * log2 S`` is used whenever ``S`` cannot be
    represented exactly, and the exact sum otherwise.
    """
    if n_features < 1:
        raise ConfigurationError(f"n_features must be >= 1, got {n_features}")
    log2_s = subkey_space_log2(pool_size, dim, layers)
    if math.comb(pool_size * dim, layers) < n_features:
        raise ConfigurationError(
            f"only 2**{log2_s:.1f} distinct subkeys exist for P={pool_size}, "
            f"D={dim}, L={layers}; cannot key {n_features} features"
        )
    if log2_s > 53:  # S - i indistinguishable from S in double precision
        return n_features * log2_s
    s = math.comb(pool_size * dim, layers)
    return sum(math.log2(s - i) for i in range(n_features))


def fleet_collision_log2_probability(
    n_devices: int, n_features: int, layers: int, pool_size: int, dim: int
) -> float:
    """``log2`` of the probability that any two fleet devices drew the
    same whole key (birthday bound over uniform independent keys).

    ``p <= C(n, 2) / K`` with ``K = 2**key_entropy_bits``; returned in
    log2 because at fleet scale the probability underflows a float
    (e.g. a million MNIST-shaped devices sit near ``2**-33000``).
    """
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    if n_devices == 1:
        return -math.inf
    pairs_log2 = math.log2(n_devices) + math.log2(n_devices - 1) - 1.0
    return min(
        pairs_log2 - key_entropy_bits(n_features, layers, pool_size, dim),
        0.0,
    )


@dataclass(frozen=True)
class FleetKeyReport:
    """Population-scale collision / guessability profile of a key shape.

    The fleet-provisioning counterpart of the single-model security
    level (:func:`repro.hdlock.analysis.security_level_bits`): what
    happens when *millions* of keys of one shape coexist.
    """

    n_devices: int
    n_features: int
    layers: int
    pool_size: int
    dim: int
    #: bits of entropy of one uniformly drawn key
    key_entropy_bits: float
    #: log2 P[any two devices share a whole key] (birthday bound)
    collision_log2_probability: float
    #: the same probability as a float — 0.0 once it underflows
    collision_probability: float
    #: log2 of the expected number of blind whole-key guesses to hit one
    #: specific device's key
    expected_guesses_log2: float
    #: log2 P[one blind guess hits *some* unrevoked device of the fleet]
    fleet_guess_log2_probability: float

    def to_dict(self) -> dict:
        """JSON-ready payload (bench artifacts, service introspection)."""
        return {
            "n_devices": self.n_devices,
            "n_features": self.n_features,
            "layers": self.layers,
            "pool_size": self.pool_size,
            "dim": self.dim,
            "key_entropy_bits": self.key_entropy_bits,
            "collision_log2_probability": self.collision_log2_probability,
            "collision_probability": self.collision_probability,
            "expected_guesses_log2": self.expected_guesses_log2,
            "fleet_guess_log2_probability": self.fleet_guess_log2_probability,
        }


def fleet_key_report(
    n_devices: int,
    n_features: int,
    layers: int,
    pool_size: int,
    dim: int,
) -> FleetKeyReport:
    """Collision and guessability analysis for a fleet of uniform keys.

    Three questions a provisioning plan must answer before rollout:
    how much entropy one key carries, how likely two devices are to
    collide (birthday bound — the quantity that grows quadratically
    with fleet size), and how much a blind guesser gains from the fleet
    being large (a guess succeeding against *any* of ``n`` devices is
    ``n`` times easier than against one, Prive-HD-style population
    accounting).
    """
    entropy = key_entropy_bits(n_features, layers, pool_size, dim)
    collision_log2 = fleet_collision_log2_probability(
        n_devices, n_features, layers, pool_size, dim
    )
    collision = 2.0**collision_log2 if collision_log2 > -1074 else 0.0
    return FleetKeyReport(
        n_devices=n_devices,
        n_features=n_features,
        layers=layers,
        pool_size=pool_size,
        dim=dim,
        key_entropy_bits=entropy,
        collision_log2_probability=collision_log2,
        collision_probability=collision,
        expected_guesses_log2=entropy - 1.0,
        fleet_guess_log2_probability=min(
            math.log2(n_devices) - entropy, 0.0
        ),
    )

