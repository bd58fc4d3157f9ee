"""Observability through the serving stack: IDs, /metrics, /statusz.

Everything here drives the real ASGI app through the in-process test
client, so the request-ID middleware, the instrumented service core,
and the exposition endpoints are exercised exactly as a deployment
would see them.
"""

from __future__ import annotations

import pytest

from repro.obs.trace import SpanRecorder
from repro.serving.app import create_app
from repro.serving.testclient import TestClient

PROBE = [1] * 40


def _sample(metrics: dict, family: str, **labels: str) -> dict:
    """The one ``/statusz`` metrics sample of tenant alpha with ``labels``."""
    (sample,) = [
        s
        for s in metrics[family]["samples"]
        if s["labels"] == {"tenant": "alpha", **labels}
    ]
    return sample


@pytest.fixture
def client(registry):
    with TestClient(create_app(registry)) as client:
        yield client


class TestRequestIdMiddleware:
    def test_every_response_carries_a_request_id(self, client):
        response = client.get("/healthz")
        assert response.headers["x-request-id"].startswith("req-")

    def test_ids_are_unique_per_request(self, client):
        first = client.get("/healthz").headers["x-request-id"]
        second = client.get("/healthz").headers["x-request-id"]
        assert first != second

    def test_client_supplied_id_is_echoed(self, client):
        response = client.get(
            "/healthz", headers={"x-request-id": "caller-7.test"}
        )
        assert response.headers["x-request-id"] == "caller-7.test"

    def test_hostile_id_is_replaced(self, client):
        response = client.get(
            "/healthz", headers={"x-request-id": "bad id\twith ctl"}
        )
        assert response.headers["x-request-id"].startswith("req-")

    def test_error_responses_carry_a_request_id_too(self, client):
        response = client.get("/nope")
        assert response.status == 404
        assert response.headers["x-request-id"].startswith("req-")


class TestMetricsEndpoint:
    def test_content_type_is_prometheus_text(self, client):
        response = client.get("/metrics")
        assert response.status == 200
        assert (
            response.headers["content-type"]
            == "text/plain; version=0.0.4; charset=utf-8"
        )

    def test_per_tenant_request_latency_and_occupancy(self, client):
        client.post("/v1/alpha/classify", json={"samples": [PROBE, PROBE]})
        client.post("/v1/alpha/encode", json={"sample": PROBE})
        body = client.get("/metrics").content.decode()
        assert "# TYPE repro_requests_total counter" in body
        assert (
            'repro_requests_total{tenant="alpha",op="classify",outcome="ok"} 1'
            in body
        )
        assert (
            'repro_requests_total{tenant="alpha",op="encode",outcome="ok"} 1'
            in body
        )
        assert "# TYPE repro_request_latency_seconds histogram" in body
        assert (
            'repro_request_latency_seconds_count{tenant="alpha",op="classify"} 1'
            in body
        )
        # Two rows coalesced into one classify flush: occupancy sees 2.
        assert "# TYPE repro_batch_occupancy_rows histogram" in body
        assert (
            'repro_batch_occupancy_rows_sum{tenant="alpha",op="classify"} 2'
            in body
        )
        assert (
            'repro_batch_occupancy_rows_count{tenant="alpha",op="classify"} 1'
            in body
        )

    def test_key_gate_denials_per_tenant_and_reason(self, client, registry):
        tenant = registry.get("alpha")
        tenant.store.revoke(tenant.device_id)
        response = client.post("/v1/alpha/classify", json={"sample": PROBE})
        assert response.status == 403
        body = client.get("/metrics").content.decode()
        assert (
            'repro_key_gate_denials_total{tenant="alpha",reason="revoked"} 1'
            in body
        )
        assert (
            'repro_requests_total{tenant="alpha",op="classify",'
            'outcome="key_access_denied"} 1' in body
        )

    def test_unknown_tenant_does_not_mint_labels(self, client):
        client.post("/v1/attacker-chosen-name/classify", json={"sample": PROBE})
        body = client.get("/metrics").content.decode()
        assert "attacker-chosen-name" not in body
        assert (
            'repro_requests_total{tenant="_unknown",op="classify",'
            'outcome="unknown_tenant"} 1' in body
        )

    def test_kernel_counters_ride_the_same_registry(self, client):
        client.post("/v1/alpha/encode", json={"samples": [PROBE, PROBE]})
        body = client.get("/metrics").content.decode()
        assert "# TYPE repro_encode_rows_total counter" in body
        assert 'scope="alpha"' in body

    def test_uninstrumented_app_serves_empty_metrics(self, registry):
        app = create_app(registry, instrument=False)
        with TestClient(app) as client:
            client.post("/v1/alpha/classify", json={"sample": PROBE})
            response = client.get("/metrics")
            assert response.status == 200
            assert response.content == b""


class TestStatusz:
    def test_shape_and_tenant_lifecycle(self, client):
        body = client.get("/statusz").json()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0
        alpha = body["tenants"]["alpha"]
        assert alpha["revoked"] is False
        assert alpha["generation"] == alpha["provisioned_generation"] == 0

    def test_batcher_stats_are_exposed(self, client):
        """Requests, rows and batches per lane come from the registry."""
        client.post("/v1/alpha/classify", json={"samples": [PROBE, PROBE]})
        metrics = client.get("/statusz").json()["metrics"]
        requests = _sample(
            metrics, "repro_requests_total", op="classify", outcome="ok"
        )
        occupancy = _sample(metrics, "repro_batch_occupancy_rows", op="classify")
        assert requests["value"] == 1
        assert occupancy["sum"] == 2  # rows
        assert occupancy["count"] == 1  # batches

    def test_plain_read_does_not_reset(self, client):
        client.post("/v1/alpha/classify", json={"sample": PROBE})
        client.get("/statusz")
        metrics = client.get("/statusz").json()["metrics"]
        occupancy = _sample(metrics, "repro_batch_occupancy_rows", op="classify")
        assert occupancy["count"] == 1

    def test_metrics_snapshot_included(self, client):
        client.post("/v1/alpha/classify", json={"sample": PROBE})
        metrics = client.get("/statusz").json()["metrics"]
        samples = metrics["repro_requests_total"]["samples"]
        assert any(
            s["labels"]
            == {"tenant": "alpha", "op": "classify", "outcome": "ok"}
            and s["value"] == 1
            for s in samples
        )


class TestTracePropagation:
    def test_request_id_flows_request_to_span_to_header(self, client):
        """The batcher sits between request and kernel; the span must
        still carry the request's ID (contextvars, not call stacks)."""
        recorder = SpanRecorder()
        client.app.service.spans = recorder
        response = client.post(
            "/v1/alpha/classify",
            json={"sample": PROBE},
            headers={"x-request-id": "trace-me-1"},
        )
        assert response.status == 200
        assert response.headers["x-request-id"] == "trace-me-1"
        (span_record,) = recorder.drain()
        assert span_record["name"] == "classify/alpha"
        assert span_record["request_id"] == "trace-me-1"
        assert span_record["elapsed_s"] > 0

    def test_spans_record_per_request_under_coalesced_batches(self, client):
        recorder = SpanRecorder()
        client.app.service.spans = recorder
        client.post(
            "/v1/alpha/encode",
            json={"sample": PROBE},
            headers={"x-request-id": "enc-a"},
        )
        client.post(
            "/v1/alpha/encode",
            json={"sample": PROBE},
            headers={"x-request-id": "enc-b"},
        )
        ids = sorted(s["request_id"] for s in recorder.drain())
        assert ids == ["enc-a", "enc-b"]
