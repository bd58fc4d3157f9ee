"""End-to-end inference cost: encoding plus associative search.

Fig. 9 isolates the *encoding* overhead because that is the only stage
HDLock changes. This module extends the cycle model with the remaining
inference stage — similarity search against the ``C`` class
hypervectors — so the model covers a whole classification: the
associative stage is ``C / N`` of the encoding work and does not depend
on HDLock's key depth.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.adder_tree import tree_latency_cycles
from repro.hardware.datapath import DatapathConfig
from repro.hardware.encoder_cost import encoding_cycles


def similarity_cycles(
    n_classes: int,
    dim: int,
    config: DatapathConfig | None = None,
) -> int:
    """Cycles for the associative-memory stage of one query.

    Each class comparison streams the query against one stored class HV
    through the same wide lanes used for accumulation (XOR + popcount
    for the binary model, multiply-accumulate for the non-binary one);
    the ``C`` comparisons pipeline back to back, and the winner-take-all
    compare tree adds its depth once.
    """
    if n_classes < 2:
        raise ConfigurationError(f"need at least 2 classes, got {n_classes}")
    cfg = config or DatapathConfig()
    beats_per_class = cfg.accumulate_beats(dim)
    return n_classes * beats_per_class + tree_latency_cycles(n_classes)


def inference_cycles(
    n_features: int,
    dim: int,
    n_classes: int,
    layers: int,
    config: DatapathConfig | None = None,
) -> int:
    """Total cycles to classify one sample (encode + search)."""
    return encoding_cycles(n_features, dim, layers, config) + similarity_cycles(
        n_classes, dim, config
    )


def throughput_samples_per_second(
    n_features: int,
    dim: int,
    n_classes: int,
    layers: int,
    config: DatapathConfig | None = None,
) -> float:
    """Modeled classification throughput at the configured clock."""
    cfg = config or DatapathConfig()
    cycles = inference_cycles(n_features, dim, n_classes, layers, cfg)
    return 1.0 / (cycles * cfg.cycle_seconds)
