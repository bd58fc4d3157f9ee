"""Multi-tenant locked-inference service (ROADMAP item 1).

HDLock's deployment story is that the *locked* encoder is the artifact
safe to expose while keys stay privileged. This package is that
exposure surface: an ASGI application serving many locked systems at
once, with the packed batch kernels of PRs 1–2 on the hot path.

Layering (thin adapter over a use-case core):

* :mod:`repro.serving.app` — the ASGI adapter: routes ``/healthz``,
  ``/v1/models``, ``/v1/{tenant}/classify`` and ``/v1/{tenant}/encode``
  onto the service core, maps library errors to HTTP statuses.
* :mod:`repro.serving.service` — the use-case core
  (:class:`~repro.serving.service.InferenceService`): validation,
  per-tenant key access checks, micro-batch submission, response
  shaping. No HTTP types anywhere.
* :mod:`repro.serving.registry` — tenancy: provision a
  :class:`~repro.hdlock.lock.LockedSystem` + trained classifier to a
  directory (public bundle, packed :class:`~repro.hdlock.keystore.KeyStore`,
  class-memory state) and load tenants back. Key resolution honors the
  store's header-persisted revocation and detects rotation, so a
  revoked or rotated device answers ``403`` — never a crash, never a
  stale-key inference.
* :mod:`repro.serving.batcher` — the micro-batching queue: concurrent
  requests that arrive in the same event-loop turn coalesce into one
  ``encode_batch_packed`` / packed-predict call, so service throughput
  rides the batch kernels instead of the per-sample path. Results are
  bit-identical to per-request execution (test-pinned).
* :mod:`repro.serving.asgi` — a dependency-free ASGI toolkit (routing,
  JSON bodies, lifespan). Any ASGI server (``uvicorn`` via the
  ``[serving]`` extra) can host the app; :mod:`repro.serving.http`
  bundles a stdlib fallback server, and
  :mod:`repro.serving.testclient` drives the app in-process for tests
  and CI smoke.

Quickstart::

    python -m repro.serving --demo --port 8100

provisions demo tenants (synthetic data, locked + trained) into a
temporary directory and serves them. See README.md for the full
provisioning flow, ``tests/serving/test_throughput.py`` for the
micro-batching and instrumentation-overhead gates, and perfbench's
``serve`` workload for latency and throughput over a real socket.
"""

from repro.serving.app import create_app
from repro.serving.batcher import BatcherClosed, MicroBatcher
from repro.serving.registry import (
    ModelRegistry,
    Tenant,
    load_tenant,
    provision_tenant,
)
from repro.serving.service import InferenceService

__all__ = [
    "BatcherClosed",
    "InferenceService",
    "MicroBatcher",
    "ModelRegistry",
    "Tenant",
    "create_app",
    "load_tenant",
    "provision_tenant",
]
