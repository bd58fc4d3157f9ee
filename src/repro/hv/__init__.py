"""Hypervector substrate: bipolar vectors, MAP operators, similarity.

This package is the mathematical foundation everything else builds on:
:mod:`repro.encoding` composes these operators into the paper's encoding
module, :mod:`repro.attack` inverts them, and :mod:`repro.hdlock` uses
them to derive locked feature hypervectors.
"""

from repro.hv.capacity import (
    FleetKeyReport,
    capacity,
    detection_margin,
    expected_member_distance,
    fleet_collision_log2_probability,
    fleet_key_report,
    key_entropy_bits,
    majority_advantage,
    subkey_space_log2,
)
from repro.hv.level import level_hvs, level_profile
from repro.hv.ops import (
    ACCUM_DTYPE,
    BIPOLAR_DTYPE,
    DEFAULT_DIM,
    bind,
    bind_many,
    bundle,
    check_same_dim,
    permute,
    permute_rows,
    sign,
    sign_bits,
    stack,
    tie_bits,
)
from repro.hv.packing import (
    PACKED_WORD_DTYPE,
    hamming_packed,
    pack_signs,
    pack_words,
    packed_word_width,
    pairwise_hamming_packed,
    unpack_words,
)
from repro.hv.properties import (
    LevelLinearityReport,
    OrthogonalityReport,
    level_linearity_report,
    orthogonality_report,
)
from repro.hv.random import random_hv, random_pool, shuffled_copy
from repro.hv.similarity import (
    cosine,
    cosine_matrix,
    dot,
    hamming,
    is_bipolar,
    pairwise_hamming,
)

__all__ = [
    "ACCUM_DTYPE",
    "BIPOLAR_DTYPE",
    "DEFAULT_DIM",
    "bind",
    "bind_many",
    "bundle",
    "check_same_dim",
    "permute",
    "permute_rows",
    "sign",
    "sign_bits",
    "tie_bits",
    "stack",
    "random_hv",
    "random_pool",
    "shuffled_copy",
    "level_hvs",
    "level_profile",
    "cosine",
    "cosine_matrix",
    "dot",
    "hamming",
    "is_bipolar",
    "pairwise_hamming",
    "pack_words",
    "unpack_words",
    "pack_signs",
    "packed_word_width",
    "PACKED_WORD_DTYPE",
    "hamming_packed",
    "pairwise_hamming_packed",
    "OrthogonalityReport",
    "LevelLinearityReport",
    "orthogonality_report",
    "level_linearity_report",
    "capacity",
    "detection_margin",
    "expected_member_distance",
    "majority_advantage",
    "FleetKeyReport",
    "fleet_key_report",
    "fleet_collision_log2_probability",
    "key_entropy_bits",
    "subkey_space_log2",
]
