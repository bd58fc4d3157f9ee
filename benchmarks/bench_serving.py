"""Serving load test: micro-batched vs per-request inference throughput.

Drives ``concurrency`` asyncio client tasks against the in-process ASGI
app — every request goes through the full adapter (routing, JSON parse,
validation, key gate, batcher, hex response) with no socket or
cross-thread noise, so the measurement isolates what the serving stack
itself delivers. Two configurations of the same app are compared:

* **micro_batched** — the production window (concurrent requests
  coalesce into one packed batch kernel call);
* **per_request** — ``max_batch=1``, i.e. every request runs the kernel
  alone. Same routes, same JSON, same client: the only variable is the
  batcher window, so the ratio isolates what micro-batching buys.

The tenant shape is chosen to be encode-overhead-bound: fine level
quantization (64 levels) means the level-difference accumulate makes
63 small BLAS steps per call, which is exactly the per-call fixed cost
that coalescing amortizes. This mirrors the fleet deployments the paper
targets — many small sensors, finely quantized features, one shared
service.

The acceptance gate of the serving PR lives here: at concurrency ≥ 16
the micro-batched path must sustain ≥ 4x the per-request throughput.
Results land in ``BENCH_serving.json`` (schema-stable, uploaded by the
nightly CI perf job next to ``BENCH_provisioning.json``) so serving
throughput becomes part of the repo's diffable perf trajectory.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serving.app import create_app
from repro.serving.registry import ModelRegistry, load_tenant

ARTIFACT = Path("BENCH_serving.json")

#: Bench schema version — bump on any RESULTS layout change.
#: v2: added the ``instrumentation`` overhead cell (metrics on vs off).
SCHEMA_VERSION = 2

#: Tenant shape: few features (small request bodies) but fine level
#: quantization and deep permutation stack, so the per-call fixed cost
#: of a single-sample encode dominates — the regime micro-batching is
#: for. See the module docstring.
N_FEATURES, LEVELS, N_CLASSES, LAYERS = 64, 64, 10, 4

#: Micro-batch window under test. ``max_batch == concurrency`` lets the
#: size trigger close every steady-state window immediately instead of
#: waiting out the timer; the wait only bounds stragglers.
MAX_BATCH, MAX_WAIT_S = 32, 0.002

CONCURRENCY = 32

#: Interleaved (metrics-on, metrics-off) run pairs for the overhead
#: cell; the gate reads the median paired difference.
OVERHEAD_PAIRS = 9

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def emit_artifact():
    """Write the collected payload once after the module's benches ran."""
    yield
    if RESULTS:
        ARTIFACT.write_text(json.dumps(RESULTS, indent=2))


@pytest.fixture(scope="module")
def serving_dim(quick) -> int:
    return 2048 if quick else 4096


@pytest.fixture(scope="module")
def requests_per_client(quick) -> int:
    return 30 if quick else 100


@pytest.fixture(scope="module")
def tenant_dir(tmp_path_factory, serving_dim):
    """One provisioned tenant at bench shape, reloaded per scenario."""
    from repro.serving.__main__ import build_demo_tenant

    directory = tmp_path_factory.mktemp("serving-bench") / "bench-tenant"
    build_demo_tenant(
        directory,
        "bench",
        seed=42,
        dim=serving_dim,
        n_features=N_FEATURES,
        levels=LEVELS,
        layers=LAYERS,
    )
    return directory


@pytest.fixture(scope="module")
def samples(requests_per_client) -> np.ndarray:
    """One distinct sample per (client, request) pair."""
    rng = np.random.default_rng(7)
    return rng.integers(
        0,
        LEVELS,
        size=(CONCURRENCY * requests_per_client, N_FEATURES),
        dtype=np.int64,
    )


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
    tenant_dir: Path,
    samples: np.ndarray,
    concurrency: int,
    requests_per_client: int,
    max_batch: int,
    max_wait_s: float,
    instrument: bool = True,
) -> dict:
    """Run one scenario; returns its RESULTS entry."""
    registry = ModelRegistry()
    registry.add(load_tenant(tenant_dir))
    app = create_app(
        registry,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
        instrument=instrument,
    )
    latencies = np.zeros(concurrency * requests_per_client)
    # Request bodies are pre-serialized: a load generator's own JSON
    # encoding is not part of the serving stack under test (the server
    # still parses every body).
    bodies = [
        json.dumps({"sample": row.tolist()}).encode() for row in samples
    ]

    async def worker(client_id: int, gate: asyncio.Event) -> None:
        base = client_id * requests_per_client
        await gate.wait()
        for index in range(requests_per_client):
            start = time.perf_counter()
            status = await _call(app, bodies[base + index])
            latencies[base + index] = time.perf_counter() - start
            assert status == 200, status

    async def main() -> tuple[float, object]:
        await app.service.startup()
        # Warm the kernel path (plan compile, BLAS first-touch) outside
        # the measured window.
        assert await _call(app, bodies[0]) == 200
        gate = asyncio.Event()
        tasks = [
            asyncio.ensure_future(worker(c, gate))
            for c in range(concurrency)
        ]
        await asyncio.sleep(0)  # let every worker reach the gate
        gate.set()
        wall_start = time.perf_counter()
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - wall_start
        stats = app.service._lanes["bench"].encode.stats
        await app.service.shutdown()
        return wall, stats

    wall, stats = asyncio.run(main())
    total = concurrency * requests_per_client
    percentiles = np.percentile(latencies, [50, 95, 99]) * 1e3
    return {
        "requests": total,
        "concurrency": concurrency,
        "seconds": wall,
        "throughput_rps": total / wall,
        "latency_ms": {
            "p50": float(percentiles[0]),
            "p95": float(percentiles[1]),
            "p99": float(percentiles[2]),
            "mean": float(latencies.mean() * 1e3),
        },
        # -1 for the warmup request, which the stats saw but the
        # latency/throughput window did not.
        "server_batches": stats.batches - 1,
        "mean_rows_per_batch": (stats.rows - 1) / max(stats.batches - 1, 1),
        "largest_batch": stats.largest_batch,
    }


@pytest.fixture(scope="module")
def scenarios(tenant_dir, samples, requests_per_client, serving_dim, quick):
    RESULTS["schema_version"] = SCHEMA_VERSION
    RESULTS["config"] = {
        "dim": serving_dim,
        "n_features": N_FEATURES,
        "levels": LEVELS,
        "n_classes": N_CLASSES,
        "layers": LAYERS,
        "concurrency": CONCURRENCY,
        "requests_per_client": requests_per_client,
        "max_batch": MAX_BATCH,
        "max_wait_ms": MAX_WAIT_S * 1e3,
        "quick": quick,
    }
    RESULTS["micro_batched"] = drive(
        tenant_dir,
        samples,
        CONCURRENCY,
        requests_per_client,
        max_batch=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
    )
    RESULTS["per_request"] = drive(
        tenant_dir,
        samples,
        CONCURRENCY,
        requests_per_client,
        max_batch=1,
        max_wait_s=0.0,
    )
    RESULTS["speedup"] = (
        RESULTS["micro_batched"]["throughput_rps"]
        / RESULTS["per_request"]["throughput_rps"]
    )

    # Instrumentation-overhead cell: identical workload with the real
    # MetricsRegistry vs NullMetrics. Single runs on a shared CI box
    # are ±10% noisy, so the cell runs the two arms as temporally
    # adjacent *pairs* (drift cancels within a pair), alternates the
    # arm order (slow drift cancels across pairs), and reports the
    # median paired overhead — robust to the one-off scheduler stall
    # that would make a lone comparison flake either direction.
    def one_rps(instrument: bool) -> float:
        return drive(
            tenant_dir,
            samples,
            CONCURRENCY,
            requests_per_client,
            max_batch=MAX_BATCH,
            max_wait_s=MAX_WAIT_S,
            instrument=instrument,
        )["throughput_rps"]

    on_rps_all: list[float] = []
    off_rps_all: list[float] = []
    overheads: list[float] = []
    for index in range(OVERHEAD_PAIRS):
        if index % 2 == 0:
            on, off = one_rps(True), one_rps(False)
        else:
            off, on = one_rps(False), one_rps(True)
        on_rps_all.append(on)
        off_rps_all.append(off)
        overheads.append((off - on) / off * 100.0)
    RESULTS["instrumentation"] = {
        "on_rps": max(on_rps_all),
        "off_rps": max(off_rps_all),
        "pairs": OVERHEAD_PAIRS,
        "overhead_pct": statistics.median(overheads),
    }
    return RESULTS


def test_micro_batching_speedup_gate(scenarios):
    """Acceptance: ≥ 4x throughput from coalescing at concurrency ≥ 16."""
    batched = scenarios["micro_batched"]
    single = scenarios["per_request"]
    print(
        f"\nmicro-batched: {batched['throughput_rps']:,.0f} req/s "
        f"(p50 {batched['latency_ms']['p50']:.2f} ms, "
        f"p99 {batched['latency_ms']['p99']:.2f} ms, "
        f"mean batch {batched['mean_rows_per_batch']:.1f} rows)"
    )
    print(
        f"per-request:   {single['throughput_rps']:,.0f} req/s "
        f"(p50 {single['latency_ms']['p50']:.2f} ms, "
        f"p99 {single['latency_ms']['p99']:.2f} ms)"
    )
    print(f"speedup: {scenarios['speedup']:.1f}x")
    assert batched["mean_rows_per_batch"] > 2.0, (
        "micro-batching never coalesced; the measurement is not testing "
        "the batched path"
    )
    assert scenarios["speedup"] >= 4.0


def test_instrumentation_overhead_gate(scenarios):
    """Acceptance: full metrics cost ≤ 5% throughput vs NullMetrics."""
    cell = scenarios["instrumentation"]
    print(
        f"\ninstrumented:   {cell['on_rps']:,.0f} req/s\n"
        f"uninstrumented: {cell['off_rps']:,.0f} req/s\n"
        f"median overhead over {cell['pairs']} pairs: "
        f"{cell['overhead_pct']:.2f}%"
    )
    assert cell["overhead_pct"] <= 5.0


def test_artifact_schema_is_stable(scenarios):
    """Pin the BENCH_serving.json layout consumers rely on."""
    assert scenarios["schema_version"] == SCHEMA_VERSION
    for scenario in ("micro_batched", "per_request"):
        entry = scenarios[scenario]
        assert set(entry) == {
            "requests",
            "concurrency",
            "seconds",
            "throughput_rps",
            "latency_ms",
            "server_batches",
            "mean_rows_per_batch",
            "largest_batch",
        }
        assert set(entry["latency_ms"]) == {"p50", "p95", "p99", "mean"}
    assert scenarios["speedup"] > 0
    assert set(scenarios["instrumentation"]) == {
        "on_rps",
        "off_rps",
        "pairs",
        "overhead_pct",
    }
