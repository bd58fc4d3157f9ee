"""Runtime detection of reasoning-attack query patterns.

HDLock makes the mapping search computationally infeasible; a deployed
device can *additionally* notice that it is being probed. The Sec. 3
attack has a rigid query signature:

* one **constant** query (every feature at the same level — the Eq. 5
  value-extraction probe), then
* a stream of **one-hot** queries (exactly one feature off the common
  level — the Eq. 7 feature probes), typically walking every feature
  once.

Benign inputs are overwhelmingly unlikely to look like this: a real
sample has feature levels spread over many values. :class:`QueryMonitor`
scores each query's *level concentration* and raises an alert once the
observed stream crosses a budget of near-degenerate queries. It is a
rate/shape detector in the spirit of model-extraction monitors for DNNs
(e.g. PRADA), adapted to the HDC input domain.

This is an extension beyond the paper (its conclusion calls for more
attention to protecting the encoding module); it composes with HDLock
rather than replacing it — detection can throttle or re-key long before
the `(D*P)^L` search makes progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.encoding.oracle import EncodingOracle
from repro.encoding.record import RecordEncoder
from repro.errors import AttackError, ConfigurationError, DimensionMismatchError


class OracleLockoutError(AttackError):
    """The deployment's query monitor tripped and cut oracle access.

    Raised *to the attacker* by :class:`GuardedOracle` — from the attack
    code's perspective this is a failed attack (hence the
    :class:`~repro.errors.AttackError` base), from the defender's it is
    the countermeasure working as designed.
    """


@dataclass(frozen=True)
class QueryAssessment:
    """Per-query verdict of the monitor."""

    concentration: float
    suspicious: bool
    alert: bool


@dataclass
class QueryMonitor:
    """Streaming detector for degenerate (attack-shaped) query patterns.

    ``concentration`` of a query is the fraction of features sharing the
    query's modal level; 1.0 for the constant probe, ``(N-1)/N`` for the
    one-hot probes, and far lower for natural inputs over ``M`` levels.
    A query is *suspicious* above ``concentration_threshold``; an
    *alert* fires when more than ``budget`` suspicious queries are seen
    within the last ``window`` queries.
    """

    n_features: int
    levels: int
    #: Concentration above which a single query counts as suspicious.
    concentration_threshold: float = 0.9
    #: Sliding-window length (queries).
    window: int = 64
    #: Suspicious-query budget within one window before alerting.
    budget: int = 8
    _history: list[bool] = field(default_factory=list)
    #: Total queries seen.
    seen: int = 0
    #: Total suspicious queries seen.
    suspicious_total: int = 0
    #: Whether the alert has fired at least once.
    alerted: bool = False

    def __post_init__(self) -> None:
        if self.n_features < 1 or self.levels < 2:
            raise ConfigurationError(
                f"degenerate monitor shape N={self.n_features}, "
                f"M={self.levels}"
            )
        if not 0.0 < self.concentration_threshold <= 1.0:
            raise ConfigurationError(
                "concentration_threshold must be in (0, 1], got "
                f"{self.concentration_threshold}"
            )
        if self.window < 1 or self.budget < 1:
            raise ConfigurationError(
                f"window and budget must be >= 1, got {self.window}, "
                f"{self.budget}"
            )

    def concentration(self, sample: np.ndarray) -> float:
        """Fraction of features at the query's most common level."""
        arr = np.asarray(sample)
        if arr.shape != (self.n_features,):
            raise ConfigurationError(
                f"query shape {arr.shape} != ({self.n_features},)"
            )
        counts = np.bincount(arr.astype(np.int64), minlength=self.levels)
        return float(counts.max()) / self.n_features

    def observe(self, sample: np.ndarray) -> QueryAssessment:
        """Score one query and update the sliding window."""
        conc = self.concentration(sample)
        suspicious = conc >= self.concentration_threshold
        self.seen += 1
        self.suspicious_total += int(suspicious)
        self._history.append(suspicious)
        if len(self._history) > self.window:
            self._history.pop(0)
        alert = sum(self._history) > self.budget
        if alert:
            self.alerted = True
        return QueryAssessment(
            concentration=conc, suspicious=suspicious, alert=alert
        )

    def observe_batch(self, samples: np.ndarray) -> list[QueryAssessment]:
        """Score a batch of queries in arrival order."""
        return [self.observe(row) for row in np.asarray(samples)]

    @property
    def suspicious_rate(self) -> float:
        """Lifetime fraction of suspicious queries."""
        return self.suspicious_total / self.seen if self.seen else 0.0


class GuardedOracle(EncodingOracle):
    """An encoding oracle fronted by a :class:`QueryMonitor`.

    Every query is scored *before* it is served. Once the monitor
    alerts, the triggering query and every later one raise
    :class:`OracleLockoutError` instead of returning an encoding —
    the deployed-device policy of refusing service to an identified
    prober. Refused queries do not count toward ``n_queries`` (nothing
    was served), but the monitor still sees them (``monitor.seen``), so
    the defender-side telemetry stays complete.

    This is the enforcement half the PR-8-era monitor lacked: the arena
    wires it in as a defender configuration knob, composing detection
    with HDLock's search-space hardness rather than replacing it.
    """

    def __init__(
        self,
        encoder: RecordEncoder,
        monitor: QueryMonitor,
        binary: bool = True,
    ) -> None:
        super().__init__(encoder, binary=binary)
        self.monitor = monitor

    def _gate(self, sample: np.ndarray) -> None:
        if self.monitor.alerted:
            raise OracleLockoutError(
                "oracle access revoked: query monitor already alerted"
            )
        assessment = self.monitor.observe(sample)
        if assessment.alert:
            raise OracleLockoutError(
                "oracle access revoked: attack-shaped query stream "
                f"({self.monitor.suspicious_total} suspicious of "
                f"{self.monitor.seen} queries)"
            )

    def query(self, sample: np.ndarray) -> np.ndarray:
        """Serve one query unless the monitor (now) objects."""
        self._gate(np.asarray(sample))
        return super().query(sample)

    def _gate_batch(self, samples: np.ndarray) -> np.ndarray:
        arr = np.asarray(samples)
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"expected a 2-D batch, got shape {arr.shape}"
            )
        for row in arr:
            self._gate(row)
        return arr

    def query_batch(self, samples: np.ndarray) -> np.ndarray:
        """Serve a batch; the whole batch is refused if any row trips."""
        return super().query_batch(self._gate_batch(samples))

    def query_batch_packed(self, samples: np.ndarray) -> np.ndarray:
        """Packed variant of :meth:`query_batch`, same gating policy."""
        return super().query_batch_packed(self._gate_batch(samples))

