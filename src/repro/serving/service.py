"""The use-case core behind the HTTP adapter.

:class:`InferenceService` owns the registry, one pair of micro-batchers
per tenant (encode / classify — rows from different tenants run under
different keys and must never share a batch matrix), and the request
lifecycle: resolve tenant → key access gate → validate → batch →
response dataclass. No HTTP types appear here; the ASGI adapter in
:mod:`repro.serving.app` is a thin translation layer, which is what
keeps the core drivable from tests and the load bench without a socket.
"""

from __future__ import annotations

import time
from typing import Any, Awaitable, Callable, TypeVar

import numpy as np

import repro
from repro.errors import ConfigurationError, DimensionMismatchError
from repro.obs.metrics import (
    BATCH_OCCUPANCY_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    NullMetrics,
)
from repro.obs.trace import SpanRecorder, span
from repro.serving.batcher import MicroBatcher
from repro.serving.errors import KeyAccessError, ServingError, UnknownTenantError
from repro.serving.registry import ModelRegistry, Tenant
from repro.serving.schemas import (
    ClassifyResponse,
    EncodeResponse,
    HealthResponse,
    packed_rows_to_hex,
    parse_samples,
)

#: Default micro-batch row cap. A window holds the rows that reach a
#: batcher in one event-loop turn and flushes on the next turn, or at
#: once when it fills; 64 rows covers a concurrency-16 burst.
DEFAULT_MAX_BATCH = 64

#: Metric label for requests naming a tenant that does not exist.
#: Attacker-supplied URL segments must not mint label values, or the
#: registry's cardinality is client-controlled.
UNKNOWN_TENANT_LABEL = "_unknown"

_T = TypeVar("_T")


class _TenantLane:
    """The two per-tenant batchers (one per operation)."""

    def __init__(
        self,
        tenant: Tenant,
        max_batch: int,
        occupancy: Histogram | None = None,
    ) -> None:
        def _observer(op: str) -> Callable[[int], None] | None:
            if occupancy is None:
                return None
            return occupancy.bind(tenant=tenant.name, op=op).observe

        self.encode = MicroBatcher(
            tenant.encoder.encode_batch_packed,
            max_batch=max_batch,
            name=f"{tenant.name}/encode",
            on_flush=_observer("encode"),
        )
        self.classify = MicroBatcher(
            tenant.classifier.predict,
            max_batch=max_batch,
            name=f"{tenant.name}/classify",
            on_flush=_observer("classify"),
        )


class InferenceService:
    """Multi-tenant locked-inference core over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: Any = None,
        spans: SpanRecorder | None = None,
    ) -> None:
        self.registry = registry
        self.max_batch = int(max_batch)
        self._lanes: dict[str, _TenantLane] = {}
        #: MetricsRegistry or NullMetrics — same surface either way, so
        #: the request path ticks instruments unconditionally.
        self.metrics = metrics if metrics is not None else NullMetrics()
        #: Optional span sink; None keeps span() a single None-check.
        self.spans = spans
        self._started_monotonic: float | None = None
        m = self.metrics
        self._m_requests = m.counter(
            "repro_requests_total",
            "Requests by tenant, operation, and outcome.",
            labels=("tenant", "op", "outcome"),
        )
        self._m_latency = m.histogram(
            "repro_request_latency_seconds",
            "End-to-end service latency per request (seconds).",
            labels=("tenant", "op"),
            buckets=DEFAULT_LATENCY_BUCKETS_S,
        )
        self._m_denials = m.counter(
            "repro_key_gate_denials_total",
            "Requests refused by the per-request key-access gate.",
            labels=("tenant", "reason"),
        )
        self._m_occupancy = m.histogram(
            "repro_batch_occupancy_rows",
            "Rows coalesced into each micro-batch kernel call.",
            labels=("tenant", "op"),
            buckets=BATCH_OCCUPANCY_BUCKETS,
        )
        self._m_tenants = m.gauge(
            "repro_tenants", "Tenants currently registered."
        )
        #: Bound (requests-ok, latency) children per (tenant, op): label
        #: resolution costs ~5x the underlying tick, so the steady-state
        #: path resolves each pair once. Error outcomes are rare and
        #: take the unbound path.
        self._hot: dict[tuple[str, str], tuple[Any, Any]] = {}

    # -- lifecycle (wired to ASGI lifespan) ----------------------------

    async def startup(self) -> None:
        """Build batcher lanes for every registered tenant."""
        self._started_monotonic = time.monotonic()
        for tenant in self.registry:
            self._lane(tenant)
        self._m_tenants.set(len(self.registry))

    async def shutdown(self) -> None:
        """Deterministically drain every lane.

        Rows submitted in the current loop turn are still waiting for
        their next-turn flush; each batcher's ``aclose`` runs them at
        once, so no waiter is stranded.
        """
        for lane in self._lanes.values():
            await lane.encode.aclose()
            await lane.classify.aclose()

    def _lane(self, tenant: Tenant) -> _TenantLane:
        lane = self._lanes.get(tenant.name)
        if lane is None:
            occupancy = (
                self._m_occupancy if self.metrics.enabled else None
            )
            lane = _TenantLane(tenant, self.max_batch, occupancy)
            if self.metrics.enabled:
                # Kernel-level counters (rows per path, scratch reuse)
                # ride the same registry, labelled by tenant.
                tenant.encoder.plan.instrument(
                    self.metrics, scope=tenant.name
                )
            self._lanes[tenant.name] = lane
        return lane

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> HealthResponse:
        return HealthResponse(
            status="ok",
            version=repro.__version__,
            tenants=len(self.registry),
        )

    def models(self) -> dict:
        """The ``/v1/models`` listing: one descriptor per tenant."""
        entries = [tenant.descriptor().to_dict() for tenant in self.registry]
        return {"models": sorted(entries, key=lambda e: e["name"])}

    def _admit(self, tenant_name: str) -> tuple[Tenant, _TenantLane]:
        """Resolve the tenant and run the per-request key gate."""
        tenant = self.registry.get(tenant_name)
        tenant.check_access()
        return tenant, self._lane(tenant)

    @staticmethod
    def _validate_rows(tenant: Tenant, rows: np.ndarray) -> np.ndarray:
        """Per-request shape/range validation, *before* batching.

        The batcher stacks chunks from many requests into one matrix; a
        bad row discovered inside the batch call would fail every
        co-batched request. Rejecting here keeps the blast radius of a
        malformed request to that request (→ 422 via the adapter).
        """
        encoder = tenant.encoder
        if rows.shape[1] != encoder.n_features:
            raise DimensionMismatchError(
                f"sample has {rows.shape[1]} features, tenant "
                f"{tenant.name!r} expects {encoder.n_features}"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= encoder.levels):
            raise ConfigurationError(
                f"level indices must lie in [0, {encoder.levels}), got "
                f"range [{rows.min()}, {rows.max()}]"
            )
        return rows

    async def _instrumented(
        self,
        op: str,
        tenant_name: str,
        serve: Callable[[], Awaitable[_T]],
    ) -> _T:
        """Run one request under a span, a latency sample, and counters.

        The ``tenant`` label is only ever a *registered* tenant name or
        :data:`UNKNOWN_TENANT_LABEL` — URL segments naming nonexistent
        tenants must not mint new label values.
        """
        started = time.perf_counter()
        outcome = "ok"
        label = tenant_name
        try:
            with span(f"{op}/{tenant_name}", self.spans):
                return await serve()
        except UnknownTenantError:
            outcome = "unknown_tenant"
            label = UNKNOWN_TENANT_LABEL
            raise
        except KeyAccessError as exc:
            outcome = "key_access_denied"
            self._m_denials.inc(
                tenant=tenant_name,
                reason=str(exc.extra.get("reason", "unknown")),
            )
            raise
        except ServingError as exc:
            outcome = exc.code
            raise
        except (ConfigurationError, DimensionMismatchError):
            outcome = "invalid_request"
            raise
        except Exception:
            outcome = "internal_error"
            raise
        finally:
            key = (label, op)
            hot = self._hot.get(key)
            if hot is None:
                hot = (
                    self._m_requests.bind(
                        tenant=label, op=op, outcome="ok"
                    ),
                    self._m_latency.bind(tenant=label, op=op),
                )
                self._hot[key] = hot
            if outcome == "ok":
                hot[0].inc()
            else:
                self._m_requests.inc(tenant=label, op=op, outcome=outcome)
            hot[1].observe(time.perf_counter() - started)

    async def classify(self, tenant_name: str, payload: Any) -> ClassifyResponse:
        async def serve() -> ClassifyResponse:
            tenant, lane = self._admit(tenant_name)
            rows = self._validate_rows(tenant, parse_samples(payload))
            labels = await lane.classify.submit(rows)
            return ClassifyResponse(
                tenant=tenant.name,
                labels=tuple(int(label) for label in np.asarray(labels)),
            )

        return await self._instrumented("classify", tenant_name, serve)

    async def encode(self, tenant_name: str, payload: Any) -> EncodeResponse:
        async def serve() -> EncodeResponse:
            tenant, lane = self._admit(tenant_name)
            rows = self._validate_rows(tenant, parse_samples(payload))
            packed = await lane.encode.submit(rows)
            return EncodeResponse(
                tenant=tenant.name,
                dim=tenant.encoder.dim,
                packed_hex=packed_rows_to_hex(np.asarray(packed)),
            )

        return await self._instrumented("encode", tenant_name, serve)

    # -- introspection (/statusz) --------------------------------------

    def uptime_s(self) -> float | None:
        """Seconds since lifespan startup, None before startup."""
        if self._started_monotonic is None:
            return None
        return time.monotonic() - self._started_monotonic

    def statusz(self) -> dict:
        """The ``/statusz`` body: tenants, uptime, metrics.

        Batching numbers live only in ``metrics``: batches and rows are
        the count and sum of ``repro_batch_occupancy_rows`` per
        ``(tenant, op)``, requests are ``repro_requests_total``.
        """
        return {
            "status": "ok",
            "version": repro.__version__,
            "uptime_s": self.uptime_s(),
            "tenants": self.registry.status(),
            "metrics": self.metrics.snapshot(),
        }
