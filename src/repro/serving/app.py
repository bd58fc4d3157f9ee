"""The ASGI adapter: HTTP routes onto :class:`InferenceService`.

Error mapping (the whole adapter policy, in one place):

====================================  ======
exception                              status
====================================  ======
``ServingError`` subclasses           their own ``status`` (404/422/403/503)
``DimensionMismatchError``            422 — feature count mismatch
``ConfigurationError``                422 — levels out of range etc.
``KeyFormatError``                    403 — key material refused to load
any other exception                   500 — sanitized, never a traceback
====================================  ======
"""

from __future__ import annotations

from repro.errors import (
    ConfigurationError,
    DimensionMismatchError,
    KeyFormatError,
)
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.serving.asgi import App, JSONResponse, PlainTextResponse, Request
from repro.serving.errors import ServingError
from repro.serving.registry import ModelRegistry
from repro.serving.service import DEFAULT_MAX_BATCH, InferenceService


def map_error(exc: Exception) -> JSONResponse:
    """Fold any handler exception into the stable error body."""
    if isinstance(exc, ServingError):
        return JSONResponse(exc.to_payload(), exc.status)
    if isinstance(exc, DimensionMismatchError):
        return JSONResponse(
            {"error": "dimension_mismatch", "detail": str(exc)}, 422
        )
    if isinstance(exc, ConfigurationError):
        return JSONResponse(
            {"error": "invalid_request", "detail": str(exc)}, 422
        )
    if isinstance(exc, KeyFormatError):
        return JSONResponse(
            {"error": "key_access_denied", "detail": str(exc)}, 403
        )
    return JSONResponse(
        {"error": "internal_error", "detail": type(exc).__name__}, 500
    )


def create_app(
    registry: ModelRegistry,
    max_batch: int = DEFAULT_MAX_BATCH,
    instrument: bool = True,
) -> App:
    """Build the serving application over a populated registry.

    The returned object is a standard ASGI 3.0 callable; its lifespan
    startup/shutdown drive the service's batcher lanes, so hosting it
    under any spec-compliant server (or the bundled test client /
    stdlib server) gets deterministic drain-on-shutdown for free.

    ``instrument=False`` swaps the metrics registry for no-ops —
    ``/metrics`` serves an empty body, ``/statusz`` an empty ``metrics``
    section (so no batching numbers), and the request path pays nothing;
    the serving bench uses it to measure instrumentation overhead.
    """
    metrics = MetricsRegistry() if instrument else NullMetrics()
    service = InferenceService(registry, max_batch=max_batch, metrics=metrics)
    app = App(
        on_startup=service.startup,
        on_shutdown=service.shutdown,
        on_error=map_error,
    )
    # The service object is reachable for in-process callers (tests,
    # bench) that want its metrics without an HTTP round-trip.
    app.service = service

    @app.get("/healthz")
    async def healthz(request: Request) -> JSONResponse:
        return JSONResponse(service.healthz().to_dict())

    @app.get("/metrics")
    async def metrics_endpoint(request: Request) -> PlainTextResponse:
        return PlainTextResponse(service.metrics.render_prometheus())

    @app.get("/statusz")
    async def statusz(request: Request) -> JSONResponse:
        return JSONResponse(service.statusz())

    @app.get("/v1/models")
    async def models(request: Request) -> JSONResponse:
        return JSONResponse(service.models())

    @app.post("/v1/{tenant}/classify")
    async def classify(request: Request) -> JSONResponse:
        payload = await request.json()
        result = await service.classify(request.params["tenant"], payload)
        return JSONResponse(result.to_dict())

    @app.post("/v1/{tenant}/encode")
    async def encode(request: Request) -> JSONResponse:
        payload = await request.json()
        result = await service.encode(request.params["tenant"], payload)
        return JSONResponse(result.to_dict())

    return app
