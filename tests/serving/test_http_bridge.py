"""The stdlib HTTP/1.1 bridge, exercised over a real loopback socket."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.serving.app import create_app
from repro.serving.http import serve


@pytest.fixture
def server(registry):
    """Run the bridge on an ephemeral port; yields (host, port)."""
    app = create_app(registry)
    bound: dict = {}
    ready = threading.Event()
    control: dict = {}

    def run() -> None:
        async def main() -> None:
            control["loop"] = asyncio.get_running_loop()
            control["stop"] = asyncio.Event()
            await serve(
                app,
                "127.0.0.1",
                0,
                ready=lambda host, port: (
                    bound.update(host=host, port=port),
                    ready.set(),
                ),
                shutdown_trigger=control["stop"],
            )

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(timeout=10), "server did not come up"
    yield bound["host"], bound["port"]
    control["loop"].call_soon_threadsafe(control["stop"].set)
    thread.join(timeout=10)
    assert not thread.is_alive()


def request(host, port, method, path, payload=None):
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestBridge:
    def test_healthz_over_socket(self, server):
        status, body = request(*server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_round_trip_over_socket(self, server, tiny_dataset):
        sample = tiny_dataset.test_x[0].tolist()
        status, body = request(
            *server, "POST", "/v1/alpha/classify", {"sample": sample}
        )
        assert status == 200
        assert len(body["labels"]) == 1

    def test_error_statuses_over_socket(self, server):
        status, _ = request(*server, "GET", "/nope")
        assert status == 404
        status, body = request(
            *server, "POST", "/v1/alpha/classify", {"sample": [1, 2]}
        )
        assert status == 422
        assert body["error"] == "dimension_mismatch"

    def test_keep_alive_reuses_connection(self, server, tiny_dataset):
        host, port = server
        sample = tiny_dataset.test_x[0].tolist()
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                connection.request(
                    "POST",
                    "/v1/alpha/classify",
                    body=json.dumps({"sample": sample}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
