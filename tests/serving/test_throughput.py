"""Serving throughput gates: micro-batching speed-up, metrics overhead.

Drives ``CONCURRENCY`` asyncio client tasks against the in-process ASGI
app, so every request takes the full adapter path (routing, JSON parse,
validation, key gate, batcher, hex response) with no socket or
cross-thread noise. Per-request serving is the same app with
``max_batch=1``; the only variable is the batcher window.

The tenant shape is encode-overhead-bound: 64 levels make the
level-difference accumulate run 63 small BLAS steps per call, exactly
the per-call fixed cost that coalescing amortizes.

Wall-clock gates, so marked ``slow`` (``pytest -m slow``). perfbench's
``serve`` workload measures the same stack over a real socket.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time

import numpy as np
import pytest

from repro.serving.__main__ import build_demo_tenant
from repro.serving.app import create_app
from repro.serving.registry import ModelRegistry, load_tenant

pytestmark = pytest.mark.slow

#: Few features (small bodies), fine level quantization, deep key.
DIM, N_FEATURES, LEVELS, LAYERS = 4096, 64, 64, 4

#: ``max_batch == CONCURRENCY`` lets the size trigger close every
#: steady-state window at once; the wait only bounds stragglers.
MAX_BATCH, MAX_WAIT_S, CONCURRENCY = 32, 0.002, 32

REQUESTS_PER_CLIENT = 100

#: Alternated (metrics on, metrics off) pairs for the overhead gate.
OVERHEAD_PAIRS = 9


@pytest.fixture(scope="module")
def tenant_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("throughput") / "bench"
    build_demo_tenant(
        directory,
        "bench",
        seed=42,
        dim=DIM,
        n_features=N_FEATURES,
        levels=LEVELS,
        layers=LAYERS,
    )
    return directory


@pytest.fixture(scope="module")
def bodies() -> list[bytes]:
    """One pre-serialized body per (client, request): the load
    generator's own JSON encoding is not part of the stack under test."""
    rows = np.random.default_rng(7).integers(
        0, LEVELS, size=(CONCURRENCY * REQUESTS_PER_CLIENT, N_FEATURES)
    )
    return [json.dumps({"sample": row.tolist()}).encode() for row in rows]


async def _call(app, body: bytes) -> int:
    """One POST /v1/bench/encode through the ASGI interface; → status."""
    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": "POST",
        "path": "/v1/bench/encode",
        "raw_path": b"/v1/bench/encode",
        "query_string": b"",
        "headers": [(b"content-type", b"application/json")],
    }
    sent = False

    async def receive() -> dict:
        nonlocal sent
        if sent:
            return {"type": "http.disconnect"}
        sent = True
        return {"type": "http.request", "body": body, "more_body": False}

    status = 0

    async def send(message: dict) -> None:
        nonlocal status
        if message["type"] == "http.response.start":
            status = message["status"]

    await app(scope, receive, send)
    return status


def drive(
    tenant_dir, bodies, max_batch: int, max_wait_s: float, instrument=True
) -> tuple[float, float]:
    """One load run; returns (requests/s, mean rows per server batch)."""
    registry = ModelRegistry()
    registry.add(load_tenant(tenant_dir))
    app = create_app(
        registry, max_batch=max_batch, max_wait_s=max_wait_s, instrument=instrument
    )

    # Per-request latencies are recorded though not gated, so the
    # client does the same work whichever gate reads the run.
    latencies = np.zeros(len(bodies))

    async def client(base: int, gate: asyncio.Event) -> None:
        await gate.wait()
        for index in range(base, base + REQUESTS_PER_CLIENT):
            start = time.perf_counter()
            status = await _call(app, bodies[index])
            latencies[index] = time.perf_counter() - start
            assert status == 200, status

    async def main():
        await app.service.startup()
        # Warm the kernel path (plan compile, BLAS first touch) outside
        # the measured window.
        assert await _call(app, bodies[0]) == 200
        gate = asyncio.Event()
        tasks = [
            asyncio.ensure_future(client(c * REQUESTS_PER_CLIENT, gate))
            for c in range(CONCURRENCY)
        ]
        await asyncio.sleep(0)  # let every client reach the gate
        gate.set()
        start = time.perf_counter()
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - start
        stats = app.service._lanes["bench"].encode.stats
        await app.service.shutdown()
        return wall, stats

    wall, stats = asyncio.run(main())
    # Minus the warm-up request, which the stats saw and the clock not.
    rows_per_batch = (stats.rows - 1) / max(stats.batches - 1, 1)
    return len(bodies) / wall, rows_per_batch


def test_micro_batching_at_least_4x_per_request(tenant_dir, bodies):
    batched, rows_per_batch = drive(tenant_dir, bodies, MAX_BATCH, MAX_WAIT_S)
    single, _ = drive(tenant_dir, bodies, max_batch=1, max_wait_s=0.0)
    assert rows_per_batch > 2.0, "micro-batching never coalesced"
    assert batched / single >= 4.0, (
        f"micro-batched {batched:,.0f} req/s vs per-request "
        f"{single:,.0f} req/s ({batched / single:.2f}x < 4x)"
    )


def test_instrumentation_costs_at_most_5_percent(tenant_dir, bodies):
    """Median overhead of metrics on vs off over alternated pairs.

    Each pair runs its two arms back to back (drift cancels within a
    pair) in alternating order (slow drift cancels across pairs), and
    the median shrugs off a one-off scheduler stall.
    """

    def rps(instrument: bool) -> float:
        return drive(tenant_dir, bodies, MAX_BATCH, MAX_WAIT_S, instrument)[0]

    overheads = []
    for index in range(OVERHEAD_PAIRS):
        if index % 2 == 0:
            on, off = rps(True), rps(False)
        else:
            off, on = rps(False), rps(True)
        overheads.append((off - on) / off * 100.0)
    overhead = statistics.median(overheads)
    assert overhead <= 5.0, f"median overhead {overhead:.2f}% over 9 pairs"
