"""Endpoint tests: happy paths, every error path, service-level parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.app import create_app
from repro.serving.registry import ModelRegistry, load_tenant
from repro.serving.schemas import hex_to_packed_row
from repro.serving.testclient import TestClient


@pytest.fixture
def client(registry):
    with TestClient(create_app(registry)) as c:
        yield c


class TestHealthAndModels:
    def test_healthz(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        body = response.json()
        assert body["status"] == "ok"
        assert body["tenants"] == 1

    def test_models_listing(self, client):
        response = client.get("/v1/models")
        assert response.status == 200
        (entry,) = response.json()["models"]
        assert entry["name"] == "alpha"
        assert entry["dim"] == 1024
        assert entry["n_features"] == 40
        assert entry["generation"] == 0
        assert entry["revoked"] is False

    def test_batching_stats_live_in_statusz_metrics(self, client):
        probe = [1] * 40
        client.post("/v1/alpha/classify", json={"sample": probe})
        (entry,) = client.get("/v1/models").json()["models"]
        assert "batch_stats" not in entry
        metrics = client.get("/statusz").json()["metrics"]
        lane = {"tenant": "alpha", "op": "classify"}
        (requests,) = [
            s
            for s in metrics["repro_requests_total"]["samples"]
            if s["labels"] == {**lane, "outcome": "ok"}
        ]
        (occupancy,) = [
            s
            for s in metrics["repro_batch_occupancy_rows"]["samples"]
            if s["labels"] == lane
        ]
        assert requests["value"] == 1
        assert occupancy["count"] == 1  # batches
        assert occupancy["sum"] == 1  # rows


class TestInference:
    def test_classify_single_and_batch(self, client, tiny_dataset):
        rows = tiny_dataset.test_x[:4].tolist()
        single = client.post("/v1/alpha/classify", json={"sample": rows[0]})
        assert single.status == 200
        assert len(single.json()["labels"]) == 1

        batch = client.post("/v1/alpha/classify", json={"samples": rows})
        assert batch.status == 200
        body = batch.json()
        assert body["tenant"] == "alpha"
        assert len(body["labels"]) == 4
        assert all(
            0 <= label < tiny_dataset.n_classes for label in body["labels"]
        )
        assert body["labels"][0] == single.json()["labels"][0]

    def test_classify_matches_direct_predict(
        self, client, tenant_dir, tiny_dataset
    ):
        rows = tiny_dataset.test_x[:6]
        via_api = client.post(
            "/v1/alpha/classify", json={"samples": rows.tolist()}
        ).json()["labels"]
        replica = load_tenant(tenant_dir)
        np.testing.assert_array_equal(via_api, replica.classifier.predict(rows))

    def test_encode_returns_exact_packed_rows(
        self, client, tenant_dir, tiny_dataset
    ):
        rows = tiny_dataset.test_x[:3]
        body = client.post(
            "/v1/alpha/encode", json={"samples": rows.tolist()}
        ).json()
        assert body["dim"] == 1024
        served = np.stack(
            [hex_to_packed_row(text) for text in body["packed_hex"]]
        )
        replica = load_tenant(tenant_dir)
        np.testing.assert_array_equal(
            served, replica.encoder.encode_batch_packed(rows)
        )


class TestServiceParity:
    """Micro-batched serving is bit-identical to per-request serving."""

    def test_batched_app_equals_unbatched_app(self, tenant_dir, tiny_dataset):
        rows = tiny_dataset.test_x[:8]

        def drive(max_batch: int):
            registry = ModelRegistry()
            registry.add(load_tenant(tenant_dir))
            app = create_app(registry, max_batch=max_batch)
            encoded: list[str] = []
            labels: list[int] = []
            with TestClient(app) as client:
                for row in rows.tolist():
                    encoded.extend(
                        client.post(
                            "/v1/alpha/encode", json={"sample": row}
                        ).json()["packed_hex"]
                    )
                    labels.extend(
                        client.post(
                            "/v1/alpha/classify", json={"sample": row}
                        ).json()["labels"]
                    )
            return encoded, labels

        # max_batch=1 → every request is its own kernel call (the
        # per-request path); the batched app uses the default cap.
        batched = drive(max_batch=64)
        unbatched = drive(max_batch=1)
        assert batched == unbatched

    def test_encode_is_pure_across_traffic_and_replicas(
        self, provisioned, tiny_dataset
    ):
        # N = 40 is even, so the probe's accumulation ties at zero: its
        # bits depend on the sign(0) rule, which must not depend on what
        # the service served before or on which replica answers.
        probe = tiny_dataset.test_x[0]
        traffic = tiny_dataset.test_x[1:9].tolist()
        replica = load_tenant(provisioned.directory)
        assert (replica.encoder.encode_nonbinary(probe) == 0).any()

        def serve(turns: tuple[str, ...]) -> list[str]:
            """Load a fresh replica and answer ``turns`` in order."""
            registry = ModelRegistry()
            registry.add(load_tenant(provisioned.directory))
            answers = []
            with TestClient(create_app(registry)) as client:
                for turn in turns:
                    if turn == "traffic":
                        client.post("/v1/alpha/encode", json={"samples": traffic})
                        client.post("/v1/alpha/classify", json={"samples": traffic})
                        continue
                    response = client.post(
                        "/v1/alpha/encode", json={"sample": probe.tolist()}
                    )
                    answers.extend(response.json()["packed_hex"])
            return answers

        first_replica = serve(("probe", "traffic", "probe"))
        second_replica = serve(("traffic", "probe"))
        assert len(first_replica + second_replica) == 3
        assert len(set(first_replica + second_replica)) == 1
        want = provisioned.tenant.encoder.encode_batch_packed(probe[None, :])
        np.testing.assert_array_equal(hex_to_packed_row(first_replica[0]), want[0])


class TestErrorPaths:
    def test_unknown_tenant_404(self, client):
        response = client.post("/v1/ghost/classify", json={"sample": [1] * 40})
        assert response.status == 404
        body = response.json()
        assert body["error"] == "unknown_tenant"
        assert body["tenants"] == ["alpha"]

    def test_unknown_route_404(self, client):
        assert client.get("/v2/nothing").status == 404

    def test_wrong_method_405(self, client):
        assert client.get("/v1/alpha/classify").status == 405
        assert client.request("POST", "/healthz").status == 405

    def test_shape_mismatch_422(self, client):
        response = client.post("/v1/alpha/classify", json={"sample": [1, 2, 3]})
        assert response.status == 422
        body = response.json()
        assert body["error"] == "dimension_mismatch"
        assert "expects 40" in body["detail"]

    def test_out_of_range_levels_422(self, client):
        response = client.post(
            "/v1/alpha/classify", json={"sample": [999] * 40}
        )
        assert response.status == 422
        assert "level indices" in response.json()["detail"]

    def test_malformed_body_422(self, client):
        response = client.request("POST", "/v1/alpha/classify")
        assert response.status == 422
        response = client.post("/v1/alpha/classify", json={"wrong": 1})
        assert response.status == 422
        assert response.json()["error"] == "invalid_request"

    def test_revoked_key_403(self, registry):
        tenant = registry.get("alpha")
        with TestClient(create_app(registry)) as client:
            tenant.store.revoke(tenant.device_id)
            response = client.post(
                "/v1/alpha/classify", json={"sample": [1] * 40}
            )
            assert response.status == 403
            body = response.json()
            assert body["error"] == "key_access_denied"
            assert body["reason"] == "revoked"
            assert body["generation"] == 0
            # /v1/models reflects the revocation instead of hiding it.
            (entry,) = client.get("/v1/models").json()["models"]
            assert entry["revoked"] is True

    def test_rotated_key_403_with_generation_info(self, registry):
        tenant = registry.get("alpha")
        with TestClient(create_app(registry)) as client:
            tenant.store.rotate(tenant.device_id, rng=5)
            response = client.post(
                "/v1/alpha/encode", json={"sample": [1] * 40}
            )
            assert response.status == 403
            body = response.json()
            assert body["error"] == "key_access_denied"
            assert body["reason"] == "rotated"
            assert body["generation"] == 1
            assert body["provisioned_generation"] == 0
