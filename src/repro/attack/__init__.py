"""The reasoning (model-extraction) attack of paper Sec. 3, the HDLock
guess criterion of Sec. 4.2, and the :class:`~repro.attack.protocol.Attacker`
protocol the attack arena (:mod:`repro.arena`) builds on."""

from repro.attack.bruteforce import (
    MAX_BRUTEFORCE_FEATURES,
    BruteForceResult,
    exhaustive_mapping_attack,
    score_matrix,
)
from repro.attack.complexity import (
    guesses_vs_dim_and_pool,
    guesses_vs_layers,
    hdlock_guesses_per_feature,
    hdlock_total_guesses,
    plain_total_guesses,
    reasoning_seconds_estimate,
    security_improvement,
)
from repro.attack.countermeasures import (
    GuardedOracle,
    OracleLockoutError,
    QueryAssessment,
    QueryMonitor,
)
from repro.attack.feature_extraction import (
    CandidateTable,
    FeatureExtractionResult,
    extract_feature_mapping,
    guess_distance_series,
)
from repro.attack.hdlock_attack import (
    DifferenceObservation,
    SweepResult,
    as_attack_surface,
    best_single_layer_guess,
    observe_difference,
    score_guess,
    score_guesses,
    score_rotations,
    sweep_parameter,
)
from repro.attack.pipeline import (
    MappingVerdict,
    ReasoningResult,
    run_reasoning_attack,
    verify_mapping,
)
from repro.attack.protocol import (
    AttackBudget,
    AttackOutcome,
    Attacker,
    FeatureGuess,
)
from repro.attack.reconstruct import TheftReport, evaluate_theft, reconstruct_encoder
from repro.attack.threat_model import (
    AttackSurface,
    GroundTruth,
    LockedSurface,
    expose_locked_model,
    expose_model,
)
from repro.attack.value_extraction import (
    ValueExtractionResult,
    estimate_min_value_hv,
    extract_value_mapping,
    find_extreme_pair,
)

__all__ = [
    "AttackBudget",
    "AttackOutcome",
    "Attacker",
    "FeatureGuess",
    "QueryMonitor",
    "QueryAssessment",
    "GuardedOracle",
    "OracleLockoutError",
    "AttackSurface",
    "GroundTruth",
    "LockedSurface",
    "expose_model",
    "expose_locked_model",
    "ValueExtractionResult",
    "find_extreme_pair",
    "estimate_min_value_hv",
    "extract_value_mapping",
    "FeatureExtractionResult",
    "CandidateTable",
    "extract_feature_mapping",
    "guess_distance_series",
    "ReasoningResult",
    "MappingVerdict",
    "run_reasoning_attack",
    "verify_mapping",
    "TheftReport",
    "reconstruct_encoder",
    "evaluate_theft",
    "DifferenceObservation",
    "SweepResult",
    "observe_difference",
    "score_guess",
    "score_guesses",
    "score_rotations",
    "best_single_layer_guess",
    "sweep_parameter",
    "as_attack_surface",
    "BruteForceResult",
    "exhaustive_mapping_attack",
    "score_matrix",
    "MAX_BRUTEFORCE_FEATURES",
    "plain_total_guesses",
    "hdlock_guesses_per_feature",
    "hdlock_total_guesses",
    "security_improvement",
    "guesses_vs_dim_and_pool",
    "guesses_vs_layers",
    "reasoning_seconds_estimate",
]
