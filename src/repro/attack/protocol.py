"""The ``Attacker`` protocol: one interface for every arena strategy.

The attack arena (:mod:`repro.arena`) pits attacker *strategies* against
defender *configurations*. A strategy is anything implementing the
:class:`Attacker` protocol below — a named object whose :meth:`~Attacker.run`
drives exactly the blackbox surface of the threat model
(:class:`~repro.attack.threat_model.LockedSurface`: public base pool,
published value matrix, query oracle) under an explicit
:class:`AttackBudget`, and reports what it believes about the key as a
tuple of per-feature :class:`FeatureGuess` records.

The protocol deliberately mirrors the paper's separation of powers: an
attacker never sees the encoder object, the true key, or any owner-side
state — recovery is judged *afterwards* by the arena's owner-side
evaluation (:mod:`repro.arena.matrix`). Abstention is first-class: a
guess with ``subkey=None`` says "this feature did not separate under my
criterion", which is exactly the honest outcome of the paper's
``L >= 2`` argument and scores as chance, not as a lucky hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.attack.threat_model import LockedSurface
from repro.encoding.oracle import EncodingOracle
from repro.errors import ConfigurationError
from repro.memory.key import SubKey

__all__ = [
    "AttackBudget",
    "AttackOutcome",
    "Attacker",
    "FeatureGuess",
]


@dataclass(frozen=True)
class AttackBudget:
    """Resource limits one arena cell grants an attacker.

    ``max_features`` bounds how many features the strategy targets (the
    arena scores exactly those); ``max_queries`` caps oracle calls (None
    = unlimited).
    """

    max_features: int = 4
    max_queries: int | None = None

    def __post_init__(self) -> None:
        if self.max_features < 1:
            raise ConfigurationError(
                f"max_features must be >= 1, got {self.max_features}"
            )
        if self.max_queries is not None and self.max_queries < 1:
            raise ConfigurationError(
                f"max_queries must be >= 1 or None, got {self.max_queries}"
            )

    def features(self, surface: LockedSurface) -> range:
        """The features an attacker targets under this budget.

        The leading ``min(max_features, N)`` features — which features
        are attacked is statistically irrelevant (the key draws are
        i.i.d. across features), so the arena fixes the prefix to keep
        cells comparable across strategies.
        """
        return range(min(self.max_features, surface.n_features))

    def allows_queries(self, oracle: EncodingOracle, needed: int) -> bool:
        """True when ``needed`` more oracle calls fit in the budget."""
        if self.max_queries is None:
            return True
        return oracle.n_queries + needed <= self.max_queries


@dataclass(frozen=True)
class FeatureGuess:
    """What a strategy believes about one feature's subkey.

    ``subkey=None`` is an abstention — the strategy found no candidate
    that met its own acceptance criterion. ``score`` is the strategy's
    internal criterion value for its best candidate (lower is better by
    arena convention; non-binary cosine criteria are reported as
    ``1 - cosine``).
    """

    feature: int
    subkey: SubKey | None
    score: float

    @property
    def abstained(self) -> bool:
        """True when the strategy declined to commit to a subkey."""
        return self.subkey is None


@dataclass(frozen=True)
class AttackOutcome:
    """Everything a strategy hands back from one arena cell.

    ``queries`` is read off the oracle after the run (served queries
    only — a guarded oracle does not count refused calls);
    ``candidates_scored`` counts key-guess evaluations, the unit of the
    paper's ``(D*P)^L`` complexity argument. ``locked_out`` records that
    a defender countermeasure cut oracle access mid-attack.
    """

    attacker: str
    guesses: tuple[FeatureGuess, ...]
    queries: int
    candidates_scored: int
    locked_out: bool = False
    notes: str = ""

    @property
    def abstentions(self) -> int:
        """Number of targeted features the strategy abstained on."""
        return sum(1 for g in self.guesses if g.abstained)


@runtime_checkable
class Attacker(Protocol):
    """A pluggable attack strategy (see :mod:`repro.arena.registry`).

    Implementations must be cheap to construct (the arena instantiates
    one per cell) and must derive all randomness from the ``rng`` they
    are handed — never from global state — so cells stay reproducible
    and independent of execution order.
    """

    name: str

    def run(
        self,
        surface: LockedSurface,
        budget: AttackBudget,
        rng: np.random.Generator,
    ) -> AttackOutcome:
        """Attack ``surface`` within ``budget`` and report the outcome."""
        ...
