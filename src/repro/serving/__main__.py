"""CLI launcher: ``python -m repro.serving``.

Three modes:

* ``--demo`` (default when no tenant dirs are given) — provision
  ``--tenants`` demo tenants (synthetic data, locked + trained) into
  ``--data-dir`` (a temp dir by default) and serve them.
* ``--tenant NAME=DIR`` (repeatable) — serve tenants previously written
  by :func:`repro.serving.registry.provision_tenant`.
* ``--self-check`` — boot the app in-process (no socket), run the
  health, round-trip, and revoked-403 assertions, print a JSON verdict
  and exit non-zero on failure. This is the CI ``serving-smoke`` body.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path

from repro.data.synthetic import SyntheticSpec, make_dataset
from repro.hdlock.lock import create_locked_encoder
from repro.model.train import train_model
from repro.serving.app import create_app
from repro.serving.registry import (
    ModelRegistry,
    Tenant,
    provision_tenant,
)

#: Demo tenant shape: small enough to provision in seconds, big enough
#: that batching visibly beats the per-sample path.
DEMO_FEATURES = 196
DEMO_LEVELS = 8
DEMO_CLASSES = 10
DEMO_DIM = 2048
DEMO_LAYERS = 2
DEMO_TRAIN = 400


def build_demo_tenant(
    directory: Path,
    name: str,
    seed: int,
    dim: int = DEMO_DIM,
    n_features: int = DEMO_FEATURES,
    levels: int = DEMO_LEVELS,
    layers: int = DEMO_LAYERS,
) -> Tenant:
    """Create, train, and provision one synthetic locked tenant."""
    spec = SyntheticSpec(
        name=name,
        n_features=n_features,
        n_classes=DEMO_CLASSES,
        levels=levels,
        train_samples=DEMO_TRAIN,
        test_samples=DEMO_CLASSES,
        noise_sigma=0.25,
    )
    dataset = make_dataset(spec, rng=seed)
    system = create_locked_encoder(
        n_features=n_features,
        levels=levels,
        dim=dim,
        layers=layers,
        rng=seed + 1,
    )
    training = train_model(
        system.encoder,
        dataset.train_x,
        dataset.train_y,
        n_classes=DEMO_CLASSES,
        binary=True,
        retrain_epochs=1,
    )
    return provision_tenant(directory, name, system, training.model)


def build_demo_registry(
    data_dir: Path, n_tenants: int, dim: int = DEMO_DIM
) -> ModelRegistry:
    registry = ModelRegistry()
    for index in range(n_tenants):
        name = f"tenant{index}"
        registry.add(
            build_demo_tenant(data_dir / name, name, seed=1000 + index, dim=dim)
        )
    return registry


def self_check() -> int:
    """In-process smoke: health, encode→classify round trip, revoked 403."""
    from repro.serving.testclient import TestClient

    with tempfile.TemporaryDirectory() as tmp:
        registry = build_demo_registry(Path(tmp), n_tenants=2)
        tenant = registry.get("tenant0")
        probe = [1] * tenant.encoder.n_features
        verdict: dict = {}
        app = create_app(registry)
        with TestClient(app) as client:
            health = client.get("/healthz")
            verdict["healthz"] = health.json()
            assert health.status == 200, health
            assert health.json()["status"] == "ok"
            assert health.json()["tenants"] == 2

            models = client.get("/v1/models")
            assert models.status == 200
            names = [m["name"] for m in models.json()["models"]]
            assert names == ["tenant0", "tenant1"], names

            encoded = client.post("/v1/tenant0/encode", json={"sample": probe})
            assert encoded.status == 200, encoded
            assert len(encoded.json()["packed_hex"]) == 1

            classified = client.post(
                "/v1/tenant0/classify", json={"sample": probe}
            )
            assert classified.status == 200, classified
            label = classified.json()["labels"][0]
            assert 0 <= label < tenant.classifier.n_classes
            verdict["round_trip_label"] = label

            # Revoke tenant1's device: its endpoint must 403, tenant0
            # must keep serving.
            other = registry.get("tenant1")
            other.store.revoke(other.device_id)
            denied = client.post(
                "/v1/tenant1/classify", json={"sample": probe}
            )
            assert denied.status == 403, denied
            assert denied.json()["reason"] == "revoked"
            verdict["revoked_status"] = denied.status

            still_ok = client.post(
                "/v1/tenant0/classify", json={"sample": probe}
            )
            assert still_ok.status == 200, still_ok
            assert still_ok.headers.get("x-request-id"), still_ok.headers

            # Observability surface: the traffic above must show up in
            # the Prometheus exposition and the status page.
            metrics = client.get("/metrics")
            assert metrics.status == 200, metrics
            exposition = metrics.content.decode()
            assert "# TYPE repro_requests_total counter" in exposition
            assert 'repro_requests_total{tenant="tenant0"' in exposition
            assert (
                'repro_key_gate_denials_total{tenant="tenant1",'
                'reason="revoked"} 1' in exposition
            )
            verdict["metrics_lines"] = len(exposition.splitlines())

            statusz = client.get("/statusz")
            assert statusz.status == 200, statusz
            status_body = statusz.json()
            assert status_body["status"] == "ok"
            assert status_body["uptime_s"] >= 0
            requests = status_body["metrics"]["repro_requests_total"]
            assert any(
                sample["labels"]
                == {"tenant": "tenant0", "op": "classify", "outcome": "ok"}
                and sample["value"] >= 2
                for sample in requests["samples"]
            ), requests
            assert status_body["tenants"]["tenant1"]["revoked"] is True
            verdict["statusz_tenants"] = sorted(status_body["tenants"])
        verdict["ok"] = True
        print(json.dumps(verdict, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve locked HDLock models over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8100)
    parser.add_argument(
        "--demo",
        action="store_true",
        help="provision demo tenants before serving (default when no "
        "--tenant is given)",
    )
    parser.add_argument(
        "--tenants", type=int, default=2, help="demo tenant count"
    )
    parser.add_argument(
        "--dim", type=int, default=DEMO_DIM, help="demo hypervector dim"
    )
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="directory for demo tenant artifacts (default: temp dir)",
    )
    parser.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=DIR",
        help="serve a provisioned tenant directory (repeatable)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="micro-batch row cap"
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run the in-process smoke assertions and exit",
    )
    args = parser.parse_args(argv)

    if args.self_check:
        return self_check()

    registry = ModelRegistry()
    for spec in args.tenant:
        name, _, directory = spec.partition("=")
        if not name or not directory:
            parser.error(f"--tenant expects NAME=DIR, got {spec!r}")
        registry.load(directory, name)
    if args.demo or not args.tenant:
        data_dir = args.data_dir or Path(
            tempfile.mkdtemp(prefix="repro-serving-demo-")
        )
        print(f"provisioning {args.tenants} demo tenants under {data_dir}")
        for index in range(args.tenants):
            name = f"tenant{index}"
            registry.add(
                build_demo_tenant(
                    data_dir / name, name, seed=1000 + index, dim=args.dim
                )
            )

    app = create_app(registry, max_batch=args.max_batch)

    from repro.serving.http import serve

    def ready(host: str, port: int) -> None:
        print(f"serving {len(registry)} tenants on http://{host}:{port}")
        print(
            "  GET  /healthz | GET /v1/models | GET /metrics | "
            "GET /statusz | POST /v1/{tenant}/classify | "
            "POST /v1/{tenant}/encode"
        )

    try:
        asyncio.run(serve(app, args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
