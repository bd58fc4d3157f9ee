"""The arena experiment: the attacker-vs-defender robustness matrix.

Runs every registered-roster attacker against every defender
configuration (:mod:`repro.arena`) and reports one
:class:`ArenaCell` per pairing: recovery rate, recovered-key Hamming
distance, oracle queries spent, candidate evaluations, and whether the
defender locked the attacker out. The matrix is the paper's security
argument made adversarial: HDLock's ``L >= 2`` claim, the monitor
countermeasure's blind spot, and the Prive-HD transmission defenses all
show up as rows and columns of one artifact.

Determinism contract (the PR-3 discipline):

* every cell's seeds derive from :func:`repro.utils.rng.derive_seed` on
  the cell's *names* — independent of registry iteration order, shard
  scheduling and ``--jobs``;
* the defender-system seed ignores the attacker, so all cells in a
  defender row deploy the bit-identical system (and the content cache
  builds it once);
* each cell gets a fresh oracle, because serving queries advances its
  query counter and monitor — sharing a live oracle would make results
  depend on execution order. The encoder is a pure function, so its
  system object needs no such care.

The arena runs at a deliberately reduced shape (``N = 32``, capped
``D``): cells are adversarial interactions, not classification runs, and
the security phenomena are scale-free down to these sizes. The caps are
module constants rather than :class:`ExperimentScale` fields so existing
artifact keys stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.arena import (
    DEFAULT_ATTACKERS,
    DEFAULT_DEFENDERS,
    defender_spec,
    deploy_defender,
    duel,
    evaluate_outcome,
    make_attacker,
)
from repro.attack.protocol import AttackBudget
from repro.experiments.cache import DiskCache, cached
from repro.experiments.config import DEFAULT_SEED, ExperimentScale, active_scale
from repro.utils.rng import derive_seed, resolve_rng
from repro.utils.tables import render_table
from repro.utils.timer import Timer

__all__ = [
    "ARENA_LEVELS",
    "ARENA_MAX_DIM",
    "ARENA_MAX_FEATURES",
    "ARENA_MAX_QUERIES",
    "ARENA_N_FEATURES",
    "ARENA_VOLATILE_FIELDS",
    "ArenaCell",
    "ArenaResult",
    "arena_shards",
    "combine_arena",
    "render_arena",
    "run_arena",
    "run_arena_cell",
    "run_arena_shard",
]

#: Input width ``N`` of every arena deployment.
ARENA_N_FEATURES = 32
#: Value levels ``M`` of every arena deployment.
ARENA_LEVELS = 8
#: Hypervector width cap: ``D = min(scale.dim, ARENA_MAX_DIM)``.
ARENA_MAX_DIM = 2048
#: Features each attacker targets per cell (the scored prefix).
ARENA_MAX_FEATURES = 4
#: Oracle-query budget per cell.
ARENA_MAX_QUERIES = 512

#: Per-cell payload keys measured from wall clock (stripped from
#: artifacts by the runner; see ``split_volatile``).
ARENA_VOLATILE_FIELDS = frozenset({"seconds"})


@dataclass(frozen=True)
class ArenaCell:
    """One attacker-vs-defender pairing, flattened to scalars."""

    attacker: str
    defender: str
    layers: int
    dim: int
    pool_size: int
    binary: bool
    variant: str
    monitored: bool
    features_attacked: int
    features_recovered: int
    success_rate: float
    key_distance: float
    queries: int
    candidates: int
    abstained: int
    locked_out: bool
    seconds: float

    def to_dict(self) -> dict[str, Any]:
        """Stable artifact payload for this cell."""
        return {
            "attacker": self.attacker,
            "defender": self.defender,
            "layers": int(self.layers),
            "dim": int(self.dim),
            "pool_size": int(self.pool_size),
            "binary": bool(self.binary),
            "variant": self.variant,
            "monitored": bool(self.monitored),
            "features_attacked": int(self.features_attacked),
            "features_recovered": int(self.features_recovered),
            "success_rate": float(self.success_rate),
            "key_distance": float(self.key_distance),
            "queries": int(self.queries),
            "candidates": int(self.candidates),
            "abstained": int(self.abstained),
            "locked_out": bool(self.locked_out),
            "seconds": float(self.seconds),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArenaCell":
        """Inverse of :meth:`to_dict` (tolerates stripped volatiles)."""
        return cls(
            attacker=payload["attacker"],
            defender=payload["defender"],
            layers=int(payload["layers"]),
            dim=int(payload["dim"]),
            pool_size=int(payload["pool_size"]),
            binary=bool(payload["binary"]),
            variant=payload["variant"],
            monitored=bool(payload["monitored"]),
            features_attacked=int(payload["features_attacked"]),
            features_recovered=int(payload["features_recovered"]),
            success_rate=float(payload["success_rate"]),
            key_distance=float(payload["key_distance"]),
            queries=int(payload["queries"]),
            candidates=int(payload["candidates"]),
            abstained=int(payload["abstained"]),
            locked_out=bool(payload["locked_out"]),
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class ArenaResult:
    """The full robustness matrix, cells in roster order."""

    cells: tuple[ArenaCell, ...]

    def to_dict(self) -> dict[str, Any]:
        """Stable artifact payload: one entry per matrix cell."""
        return {"cells": [cell.to_dict() for cell in self.cells]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArenaResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            cells=tuple(ArenaCell.from_dict(c) for c in payload["cells"])
        )


def _arena_dim(scale: ExperimentScale) -> int:
    return min(scale.dim, ARENA_MAX_DIM)


def run_arena_cell(
    attacker_name: str,
    defender_name: str,
    scale: ExperimentScale | None = None,
    seed: int = DEFAULT_SEED,
    cache: DiskCache | None = None,
) -> ArenaCell:
    """Run one matrix cell: build, deploy, duel, judge.

    The defender seed depends only on the defender (every attacker faces
    the identical system, and the cache builds it once per row); the
    attacker seed additionally folds in the attacker name, so strategies
    never share randomness. Both derive from names, never from roster
    positions.
    """
    cfg = scale or active_scale()
    dim = _arena_dim(cfg)
    spec = defender_spec(defender_name)
    defender_seed = derive_seed("arena-defender", seed, defender_name, dim)
    attacker_seed = derive_seed(
        "arena-attacker", seed, attacker_name, defender_name, dim
    )
    with Timer() as timer:
        system = cached(
            cache,
            ("arena-system", spec, ARENA_N_FEATURES, ARENA_LEVELS, dim,
             defender_seed),
            lambda: spec.build_system(
                ARENA_N_FEATURES, ARENA_LEVELS, dim, defender_seed
            ),
        )
        defense = deploy_defender(spec, system)
        attacker = make_attacker(attacker_name)
        budget = AttackBudget(
            max_features=ARENA_MAX_FEATURES, max_queries=ARENA_MAX_QUERIES
        )
        outcome = duel(
            attacker, defense, budget, resolve_rng(attacker_seed)
        )
        evaluation = evaluate_outcome(
            system.encoder.feature_matrix,
            system.base_pool,
            outcome,
            budget.features(defense.surface),
        )
    return ArenaCell(
        attacker=attacker_name,
        defender=defender_name,
        layers=spec.layers,
        dim=dim,
        pool_size=spec.pool_size,
        binary=spec.binary,
        variant=spec.variant,
        monitored=spec.monitor,
        features_attacked=evaluation.features_attacked,
        features_recovered=evaluation.features_recovered,
        success_rate=evaluation.success_rate,
        key_distance=evaluation.key_distance,
        queries=outcome.queries,
        candidates=outcome.candidates_scored,
        abstained=outcome.abstentions,
        locked_out=outcome.locked_out,
        seconds=timer.elapsed,
    )


def run_arena(
    scale: ExperimentScale | None = None,
    seed: int = DEFAULT_SEED,
    cache: DiskCache | None = None,
    attackers: Sequence[str] | None = None,
    defenders: Sequence[str] | None = None,
) -> ArenaResult:
    """Run the full cross-product matrix, defender-major cell order."""
    cfg = scale or active_scale()
    attacker_roster = tuple(attackers or DEFAULT_ATTACKERS)
    defender_roster = tuple(defenders or DEFAULT_DEFENDERS)
    cells = tuple(
        run_arena_cell(
            attacker, defender, scale=cfg, seed=seed, cache=cache
        )
        for defender in defender_roster
        for attacker in attacker_roster
    )
    return ArenaResult(cells=cells)


def arena_shards(scale: ExperimentScale) -> list[Any]:
    """One shard per matrix cell, in the canonical defender-major order."""
    del scale
    return [
        (attacker, defender)
        for defender in DEFAULT_DEFENDERS
        for attacker in DEFAULT_ATTACKERS
    ]


def run_arena_shard(
    scale: ExperimentScale, seed: int, cache: DiskCache | None, shard: Any
) -> ArenaCell:
    """Run one cell as a parallel work unit."""
    attacker, defender = shard
    return run_arena_cell(
        attacker, defender, scale=scale, seed=seed, cache=cache
    )


def combine_arena(parts: list[Any]) -> ArenaResult:
    """Reassemble per-cell partials (in shard order) into the matrix."""
    return ArenaResult(cells=tuple(parts))


def render_arena(result: ArenaResult) -> str:
    """The robustness matrix as a paper-style table."""
    rows = []
    for cell in result.cells:
        if cell.locked_out:
            status = "locked out"
        elif cell.features_recovered == cell.features_attacked:
            status = "broken"
        elif cell.features_recovered > 0:
            status = "partial"
        else:
            status = "held"
        rows.append(
            (
                cell.defender,
                cell.attacker,
                f"{cell.features_recovered}/{cell.features_attacked}",
                f"{cell.key_distance:.3f}",
                cell.queries,
                cell.candidates,
                cell.abstained,
                status,
            )
        )
    return render_table(
        [
            "defender",
            "attacker",
            "recovered",
            "key dist",
            "queries",
            "candidates",
            "abstained",
            "status",
        ],
        rows,
        title=(
            "Attack arena — robustness matrix "
            f"(N={ARENA_N_FEATURES}, M={ARENA_LEVELS}, "
            f"{ARENA_MAX_FEATURES} features/cell, "
            f"query budget {ARENA_MAX_QUERIES})"
        ),
    )
