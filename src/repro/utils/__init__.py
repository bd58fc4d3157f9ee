"""Small shared utilities: seeded RNG handling, timers, ASCII tables."""

from repro.utils.rng import DEFAULT_SEED, derive_seed, resolve_rng, spawn_rngs
from repro.utils.tables import format_quantity, format_seconds, render_table
from repro.utils.timer import Timer

__all__ = [
    "DEFAULT_SEED",
    "derive_seed",
    "resolve_rng",
    "spawn_rngs",
    "Timer",
    "render_table",
    "format_quantity",
    "format_seconds",
]
