"""The attack arena: pluggable attackers vs defender configurations.

HDLock's security claim is a claim about a *space* of adversaries and
deployments, not one fixed attack script. This package generalizes
:mod:`repro.attack` into that space:

* :mod:`repro.arena.registry` — named registries of attacker strategies
  (anything implementing :class:`repro.attack.protocol.Attacker`) and
  defender configurations (:class:`repro.arena.defenders.DefenderSpec`);
* :mod:`repro.arena.attackers` — the built-in strategies: the exhaustive
  single-layer sweep (its kernels,
  :func:`~repro.attack.hdlock_attack.score_rotations` and
  :func:`~repro.attack.hdlock_attack.best_single_layer_guess`, live in
  :mod:`repro.attack.hdlock_attack`), the threshold-gated adaptive
  variant, an HDXplore-style blackbox differential prober, and the
  paper's Sec. 3 reasoning pipeline run unmodified as a baseline;
* :mod:`repro.arena.defenders` — the built-in deployments: key depth,
  binary/non-binary transmission, Prive-HD-style quantized/sparsified
  encoders (:mod:`repro.encoding.privacy`), and a query-monitor-guarded
  oracle (:class:`repro.attack.countermeasures.GuardedOracle`);
* :mod:`repro.arena.matrix` — one attacker-vs-defense duel plus the
  owner-side evaluation of what the attacker actually recovered.

The cross-product robustness matrix is a first-class experiment:
``python -m repro --only arena`` (see :mod:`repro.experiments.arena`).
Importing this package populates both registries.
"""

from repro.arena import attackers as _attackers  # noqa: F401  (registers)
from repro.arena import defenders as _defenders  # noqa: F401  (registers)
from repro.arena.attackers import (
    DEFAULT_ATTACKERS,
    AdaptiveExtractor,
    BruteForceSweeper,
    DifferentialProber,
    PlainReasoningAdapter,
)
from repro.arena.defenders import (
    DEFAULT_DEFENDERS,
    DefenderSpec,
    DeployedDefense,
    deploy_defender,
)
from repro.arena.matrix import (
    RECOVERY_THRESHOLD,
    CellEvaluation,
    duel,
    evaluate_outcome,
)
from repro.arena.registry import (
    attacker_names,
    defender_names,
    defender_spec,
    make_attacker,
    register_attacker,
    register_defender,
)

__all__ = [
    "DEFAULT_ATTACKERS",
    "DEFAULT_DEFENDERS",
    "RECOVERY_THRESHOLD",
    "AdaptiveExtractor",
    "BruteForceSweeper",
    "CellEvaluation",
    "DefenderSpec",
    "DeployedDefense",
    "DifferentialProber",
    "PlainReasoningAdapter",
    "attacker_names",
    "defender_names",
    "defender_spec",
    "deploy_defender",
    "duel",
    "evaluate_outcome",
    "make_attacker",
    "register_attacker",
    "register_defender",
]
