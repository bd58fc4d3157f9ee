"""Security / overhead trade-off analysis for HDLock parameters.

The defender chooses ``L`` (key depth) and ``P`` (pool size) under a
latency budget (Fig. 9) and a security target (Fig. 7). This module
connects the two models: guess-count formulas from
:mod:`repro.attack.complexity` and cycle counts from
:mod:`repro.hardware.encoder_cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.attack.complexity import (
    hdlock_guesses_per_feature,
    hdlock_total_guesses,
    security_improvement,
)
from repro.hardware.datapath import DatapathConfig
from repro.hardware.encoder_cost import relative_encoding_time
from repro.utils.tables import format_quantity, render_table


def security_level_bits(
    n_features: int, dim: int, pool_size: int, layers: int
) -> float:
    """log2 of the total reasoning guesses — a key-strength style metric.

    The paper's MNIST two-layer configuration lands at ~55 bits.
    """
    return math.log2(hdlock_total_guesses(n_features, dim, pool_size, layers))


@dataclass(frozen=True)
class TradeoffRow:
    """One (L, security, latency) point of the design space."""

    layers: int
    guesses_per_feature: int
    total_guesses: int
    security_bits: float
    improvement_over_plain: float
    relative_encoding_time: float


def tradeoff_table(
    n_features: int,
    dim: int,
    pool_size: int,
    layer_range: Iterable[int] = (1, 2, 3, 4, 5),
    config: DatapathConfig | None = None,
) -> list[TradeoffRow]:
    """Enumerate the security/latency trade-off across key depths.

    This is the quantitative version of the paper's Sec. 5.2 discussion
    ("there exists trade-off while choosing the number of layers L").
    """
    rows = []
    for layers in layer_range:
        rows.append(
            TradeoffRow(
                layers=layers,
                guesses_per_feature=hdlock_guesses_per_feature(
                    dim, pool_size, layers
                ),
                total_guesses=hdlock_total_guesses(
                    n_features, dim, pool_size, layers
                ),
                security_bits=security_level_bits(
                    n_features, dim, pool_size, layers
                ),
                improvement_over_plain=security_improvement(
                    n_features, dim, pool_size, layers
                ),
                relative_encoding_time=relative_encoding_time(
                    layers, n_features, dim, config
                ),
            )
        )
    return rows


def render_tradeoff_table(rows: list[TradeoffRow]) -> str:
    """ASCII rendering of :func:`tradeoff_table`."""
    table_rows = [
        (
            r.layers,
            format_quantity(float(r.guesses_per_feature)),
            format_quantity(float(r.total_guesses)),
            f"{r.security_bits:.1f}",
            format_quantity(r.improvement_over_plain),
            f"{r.relative_encoding_time:.2f}x",
        )
        for r in rows
    ]
    return render_table(
        [
            "L",
            "guesses/feature",
            "total guesses",
            "bits",
            "vs plain",
            "rel. time",
        ],
        table_rows,
        title="HDLock security vs latency trade-off",
    )
