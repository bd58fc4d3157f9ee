"""``serve``: open-loop traffic to ``python -m repro.serving`` over sockets.

Three tenants: a "sensor" tenant (N=64, M=64, L=4), an MNIST-shape
tenant (N=784, M=16, L=2) and a revoked sensor-shape tenant that must
answer 403. Traffic is mostly single-sample encode/classify, a minority
of 4-row "gateway" requests (the same kernels at larger batch sizes) and
a small share of requests to the revoked tenant. The server runs with its
default batch window; BLAS is pinned to one thread so the server and the
load generator each keep one of the two cores this was sized for.

End-to-end metrics (untraced): ``latency_ms`` and ``tail_latency_ms``
are the p50 and p95 at the frozen reference rate, each the lowest over
the reference windows of that window's figure (p99 is reported beside
them).
``throughput_per_s`` is the rate at which p99 reaches the frozen limit:
the highest ladder rate meeting it without a growing client backlog,
interpolated towards the next rung up when that one missed on its p99
alone (see :func:`slo_rate`). ``peak_rss_mb`` is the
server's, and ``setup_s`` is tenant provisioning + server boot to its
ready line + warm-up.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import checks, layers
from perfbench.common import (
    ROOT,
    THREAD_VARS,
    fresh_dir,
    host_fingerprint,
    median,
    percentile,
    program_env,
    report,
)
from perfbench.loadgen import (
    PhaseResult,
    Planned,
    RequestKind,
    encode_wire,
    get,
    run_phase,
    schedule,
)
from perfbench.tracing import Tracer, summarize

DIM = 2048
CLASSES = 10
TRAIN_SAMPLES = 400
#: Labelled samples per tenant that requests draw their rows from.
POOL_SAMPLES = 512
SHAPES = {
    "sensor": {"n_features": 64, "levels": 64, "layers": 4},
    "mnist": {"n_features": 784, "levels": 16, "layers": 2},
    "revoked": {"n_features": 64, "levels": 64, "layers": 4},
}
GATEWAY_ROWS = 4
MIX = (
    RequestKind("sensor", "encode", 1, 0.22),
    RequestKind("sensor", "classify", 1, 0.22),
    RequestKind("mnist", "encode", 1, 0.22),
    RequestKind("mnist", "classify", 1, 0.22),
    RequestKind("sensor", "classify", GATEWAY_ROWS, 0.02),
    RequestKind("sensor", "encode", GATEWAY_ROWS, 0.02),
    RequestKind("mnist", "classify", GATEWAY_ROWS, 0.02),
    RequestKind("mnist", "encode", GATEWAY_ROWS, 0.02),
    RequestKind("revoked", "classify", 1, 0.02),
    RequestKind("revoked", "encode", 1, 0.02),
)

#: Frozen at about half the capacity the seed code reaches on 2 cores
#: (the ladder below found 380-480 rps over forty runs).
REFERENCE_RPS = 200.0
#: Frozen p99 limit for the capacity ladder.
SLO_P99_MS = 50.0
#: Rates 8% apart, so the ladder result repeats within a tenth; from
#: the reference rate up to four times it.
LADDER = tuple(round(REFERENCE_RPS * 1.08**k) for k in range(19))
#: A client FIFO deeper than this means the backlog is growing.
BACKLOG_CAP = 256
#: A phase whose generator ran later than this (p99) is invalid.
LATE_LIMIT_MS = 20.0
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SETUP_REPEATS = 3
#: Reference windows per run; at 34 s a run each holds over 900
#: requests, so its p95 has over forty samples beyond it.
WINDOWS = 4
#: Ladder probes per run: enough for the five steps that narrow the
#: 19-rung ladder to one rung, with a second try for up to three failed
#: rungs.
PROBES = 8
REFERENCE_SHARE = 0.55
#: Unrecorded load before the first window, half at the reference rate
#: and half at the ladder's first probe: in a fresh server the first
#: seconds under load ran slower than the rest of a run.
SETTLE_S = 3.0
READY = re.compile(r"serving \d+ tenants on http://([^:]+):(\d+)")


# -- tenants ------------------------------------------------------------


def provision(directory: Path, seed: int) -> dict[str, np.ndarray]:
    """Train and provision the three tenants; return their sample pools."""
    from repro.data.synthetic import SyntheticSpec, make_dataset
    from repro.hdlock.lock import create_locked_encoder
    from repro.model.train import train_model
    from repro.serving.registry import provision_tenant

    pools = {}
    seeds = np.random.SeedSequence(seed).generate_state(len(SHAPES))
    for (name, shape), base in zip(SHAPES.items(), seeds, strict=True):
        base = int(base)
        spec = SyntheticSpec(
            name=name,
            n_features=shape["n_features"],
            n_classes=CLASSES,
            levels=shape["levels"],
            train_samples=TRAIN_SAMPLES,
            test_samples=POOL_SAMPLES,
            noise_sigma=0.25,
        )
        data = make_dataset(spec, rng=base)
        system = create_locked_encoder(
            shape["n_features"], shape["levels"], DIM, layers=shape["layers"], rng=base + 1
        )
        model = train_model(
            system.encoder,
            data.train_x,
            data.train_y,
            n_classes=CLASSES,
            binary=True,
            retrain_epochs=1,
            rng=base + 2,
        ).model
        tenant = provision_tenant(directory / name, name, system, model)
        if name == "revoked":
            tenant.store.revoke(tenant.device_id)
        tenant.store.close()
        pools[name] = (data.test_x, data.test_y)
    return pools


def references(directory: Path, pools: dict) -> dict[str, Any]:
    """In-process ground truth per served tenant (None for the revoked one)."""
    from repro.serving.registry import load_tenant

    refs: dict[str, Any] = {"revoked": None}
    for name in ("sensor", "mnist"):
        tenant = load_tenant(directory / name)
        samples, labels = pools[name]
        acc = tenant.encoder.encode_batch(samples, binary=False)
        class_bits = tenant.classifier.class_matrix > 0
        refs[name] = {
            "acc": acc,
            "dim": DIM,
            "n_classes": CLASSES,
            "labels": labels,
            "predicted": tenant.classifier.predict(samples),
            "certain": [checks.certain_label(row, class_bits) for row in acc],
        }
        tenant.store.close()
    return refs


# -- the server process ---------------------------------------------------


class Server:
    def __init__(self, directory: Path, trace: bool, tag: str) -> None:
        self.out = directory / f"server-{tag}.json"
        self.stderr = open(directory / f"server-{tag}.log", "wb")  # noqa: SIM115 (closed in stop)
        self.env = program_env(**{var: "1" for var in THREAD_VARS})
        command = [
            sys.executable, "-u", "-m", "perfbench.serve_launcher",
            "--out", str(self.out), "--trace", str(int(trace)),
            "--port", "0",
        ]
        for name in SHAPES:
            command += ["--tenant", f"{name}={directory / name}"]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=self.stderr
        )
        self.host, self.port = self._await_ready(timeout=60.0)

    def _await_ready(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            match = READY.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("server did not report ready")

    def metrics(self) -> str:
        status, body = get(self.host, self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body.decode()

    def stop(self) -> dict[str, Any]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if not self.out.exists():
            return {"rss_mb": 0.0, "spans": [], "missing": []}
        return json.loads(self.out.read_text())


def _pool_arrays(pools: dict) -> dict[str, np.ndarray]:
    return {name: samples for name, (samples, _) in pools.items()}


def warm(server: Server, pools: dict) -> None:
    """Every request kind a few times, so lazy plan set-up is done."""
    planned = [
        Planned(due=0.004 * i, kind=i % len(MIX), samples=tuple(range(MIX[i % len(MIX)].rows)),
                request_id=f"pb-warm-{i}")
        for i in range(5 * len(MIX))
    ]
    encode_wire(planned, MIX, _pool_arrays(pools))
    run_phase(server.host, server.port, planned, CONNECTIONS, BACKLOG_CAP)


def set_up(work: Path, seed: int, trace: bool, tag: str) -> tuple[Server, dict, float]:
    started = time.perf_counter()
    pools = provision(work, seed)
    server = Server(work, trace, tag)
    try:
        warm(server, pools)
    except BaseException:
        server.stop()
        raise
    return server, pools, time.perf_counter() - started


# -- phases ---------------------------------------------------------------


def _pin(pid: int, cores: set[int]) -> None:
    """Pin every thread of process ``pid`` to ``cores``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), cores)


def _run_placed(server: Server, planned: list[Planned], seconds: float) -> PhaseResult:
    """Send ``planned`` in one slice per CPU, the server pinned to each in turn.

    The cores of a shared host can run at different speeds for minutes
    at a time, and a server left to the scheduler stays on whichever one
    it got; every phase therefore gives each core the same share of the
    schedule, with the load generator on the other cores.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return run_phase(server.host, server.port, planned, CONNECTIONS, BACKLOG_CAP)
    width = seconds / len(cores)
    merged = PhaseResult(outcomes=[], backlog=False)
    try:
        for slot, core in enumerate(cores):
            _pin(server.proc.pid, {core})
            os.sched_setaffinity(0, set(cores) - {core})
            part = [
                dataclasses.replace(item, due=item.due - slot * width)
                for item in planned
                if slot * width <= item.due < (slot + 1) * width
            ]
            result = run_phase(server.host, server.port, part, CONNECTIONS, BACKLOG_CAP)
            merged.outcomes += result.outcomes
            merged.late += result.late
            merged.backlog |= result.backlog
    finally:
        _pin(server.proc.pid, set(cores))
        os.sched_setaffinity(0, set(cores))
    return merged


def phase(server: Server, seed: int, index: int, rate: float, seconds: float, pools: dict, refs: dict):
    planned = schedule(seed, index, rate, seconds, MIX, {n: len(p[0]) for n, p in pools.items()})
    encode_wire(planned, MIX, _pool_arrays(pools))
    result = _run_placed(server, planned, seconds)
    failures = []
    for outcome in result.outcomes:
        spec = MIX[outcome.planned.kind]
        why = checks.check_response(
            spec.op, outcome.status, outcome.body, list(outcome.planned.samples), refs[spec.tenant]
        )
        if why is not None:
            failures.append(why)
    return result, failures


def latency_stats(result, failures: list[str]) -> dict[str, float]:
    """p50/p99 in ms; a failed request counts as missing any limit."""
    latencies = [o.latency * 1e3 for o in result.outcomes]
    latencies += [float("inf")] * len(failures)
    late = result.late or [0.0]
    return {
        "requests": len(result.outcomes),
        "succeeded": len(result.outcomes) - len(failures),
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "p99_ms": percentile(latencies, 99),
        "late_p99_ms": percentile(late, 99) * 1e3,
        "backlog": result.backlog,
        "failed": len(failures),
    }


def accuracy_problems(result, refs: dict) -> list[str]:
    """Served classify accuracy vs the in-process reference, per tenant."""
    problems = []
    for tenant in ("sensor", "mnist"):
        served, reference, truth = [], [], []
        ref = refs[tenant]
        for outcome in result.outcomes:
            spec = MIX[outcome.planned.kind]
            if spec.tenant != tenant or spec.op != "classify" or outcome.status != 200:
                continue
            served += json.loads(outcome.body)["labels"]
            rows = list(outcome.planned.samples)
            reference += ref["predicted"][rows].tolist()
            truth += ref["labels"][rows].tolist()
        if not truth:
            continue
        truth_arr = np.asarray(truth)
        got = float(np.mean(np.asarray(served) == truth_arr))
        want = float(np.mean(np.asarray(reference) == truth_arr))
        if got < want - checks.ACCURACY_TOLERANCE:
            problems.append(f"{tenant}: served accuracy {got:.3f} < reference {want:.3f}")
    return problems


def parse_prometheus(text: str) -> list[tuple[str, dict[str, str], float]]:
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([A-Za-z_:][\w:]*)(\{(.*)\})?\s+(\S+)$", line)
        if match:
            labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(3) or ""))
            samples.append((match.group(1), labels, float(match.group(4))))
    return samples


def scrape_counts(text: str) -> dict[str, float]:
    """Counts the server exposes: outcomes, batch occupancy, kernel rows."""
    counts = {"ok": 0.0, "denied": 0.0, "other": 0.0, "flushes": 0.0, "flush_rows": 0.0}
    kernel: dict[str, float] = {}
    for name, labels, value in parse_prometheus(text):
        if name == "repro_requests_total":
            outcome = labels.get("outcome")
            key = "ok" if outcome == "ok" else "denied" if outcome == "key_access_denied" else "other"
            counts[key] += value
        elif name == "repro_batch_occupancy_rows_count":
            counts["flushes"] += value
        elif name == "repro_batch_occupancy_rows_sum":
            counts["flush_rows"] += value
        elif name == "repro_encode_rows_total":
            path = labels.get("path", "?")
            kernel[path] = kernel.get(path, 0.0) + value
    counts.update({f"kernel_rows.{p}": v for p, v in kernel.items()})
    return counts


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def settle(server: Server, seed: int, pools: dict, refs: dict) -> tuple[int, list[str]]:
    """Load the server for :data:`SETTLE_S`; (requests sent, failures)."""
    sent, failures = 0, []
    for index, rate in enumerate((REFERENCE_RPS, LADDER[(len(LADDER) - 1) // 2])):
        result, failed = phase(server, seed, 1000 + index, rate, SETTLE_S / 2, pools, refs)
        sent += len(result.outcomes)
        failures += failed
    return sent, failures


def _plan_phases() -> list[str]:
    """Reference windows spread evenly among the ladder probes."""
    order = []
    for k in range(WINDOWS):
        order += ["window"] + ["probe"] * ((k + 1) * PROBES // WINDOWS - k * PROBES // WINDOWS)
    return order


def measure(server: Server, seed: int, seconds: float, pools: dict, refs: dict):
    """Reference windows interleaved with a binary search of the ladder.

    :data:`WINDOWS` windows at the reference rate alternate with
    :data:`PROBES` probes of the middle of the ladder bracket still
    open, so a slow spell of the host lands on both measurements instead
    of on one. A rung that misses the SLO is probed once more before the
    search moves below it: a spell of contention from outside the
    program can sink one probe, and a rung the program cannot hold
    misses twice. Returns the pooled reference outcomes, each window's
    statistics, the failures of the windows and of the probes, the
    highest ladder rate that met the SLO, and every probe's statistics.
    """
    window_s = seconds * REFERENCE_SHARE / WINDOWS
    probe_s = seconds * (1 - REFERENCE_SHARE) / PROBES
    low, high = -1, len(LADDER)
    missed_once: set[int] = set()
    outcomes, late, windows, probes = [], [], [], []
    window_failures, probe_failures = [], []
    backlog = False
    for index, kind in enumerate(_plan_phases()):
        if kind == "window":
            window, failed = phase(server, seed, index, REFERENCE_RPS, window_s, pools, refs)
            windows.append(latency_stats(window, failed))
            outcomes += window.outcomes
            late += window.late
            backlog |= window.backlog
            window_failures += failed
            continue
        if high - low <= 1:
            continue
        mid = (low + high) // 2
        result, failed = phase(server, seed, index, LADDER[mid], probe_s, pools, refs)
        stats = latency_stats(result, failed)
        meets = (
            not stats["backlog"]
            and not failed
            and stats["p99_ms"] <= SLO_P99_MS
            and stats["late_p99_ms"] <= LATE_LIMIT_MS
        )
        stats.update(rate=LADDER[mid], meets=meets)
        probes.append(stats)
        probe_failures += failed
        if meets:
            low = mid
        elif mid in missed_once:
            high = mid
        else:
            missed_once.add(mid)
    best = LADDER[low] if low >= 0 else LADDER[0] / 1.08
    pooled = PhaseResult(outcomes=outcomes, backlog=backlog, late=late)
    return pooled, windows, window_failures, probe_failures, best, probes


def slo_rate(probes: list[dict[str, Any]], best: float) -> float:
    """The rate at which p99 reaches the SLO, between the last two rungs.

    ``best`` is the highest rung that met the SLO; when the rung above it
    missed on its p99 alone, the crossing is interpolated on a log-log
    line through the best probe of each rung. The rung alone moves in 8%
    steps, and a run lands on one or the other side of a step by chance.
    """

    def best_probe(rate: float) -> dict[str, Any] | None:
        clean = [p for p in probes if p["rate"] == rate and not p["backlog"] and not p["failed"]]
        return min(clean, key=lambda p: p["p99_ms"], default=None)

    if best not in LADDER or best == LADDER[-1]:
        return float(best)
    above = LADDER[LADDER.index(best) + 1]
    lower, upper = best_probe(best), best_probe(above)
    if lower is None or upper is None or upper["p99_ms"] <= SLO_P99_MS:
        return float(best)
    share = math.log(SLO_P99_MS / lower["p99_ms"]) / math.log(upper["p99_ms"] / lower["p99_ms"])
    return float(best * (above / best) ** share)


# -- entry points -----------------------------------------------------------


def modelled_rows_per_s() -> dict[str, float]:
    from repro.hardware.inference_cost import throughput_samples_per_second

    return {
        name: throughput_samples_per_second(
            SHAPES[name]["n_features"], DIM, CLASSES, SHAPES[name]["layers"]
        )
        for name in ("sensor", "mnist")
    }


def run(seed: int, seconds: float) -> dict[str, Any]:
    fresh_dir("serve")
    setups = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        directory = fresh_dir(f"serve/t{repeat}")
        server, pools, elapsed = set_up(directory, seed, False, "plain")
        setups.append(elapsed)
    refs = references(directory, pools)
    try:
        settled, settle_failures = settle(server, seed, pools, refs)
        before = scrape_counts(server.metrics())
        result, windows, window_failures, probe_failures, best, probes = measure(
            server, seed, seconds, pools, refs
        )
        counts = _delta(scrape_counts(server.metrics()), before)
    finally:
        stopped = server.stop()
    reference = latency_stats(result, window_failures)
    # A spell of contention from outside the program spoils whichever
    # windows it lands in and often runs on for most of a run; the best
    # window is the one it spared (timeit's rule). The gated tail is the
    # p95: the p99 swung by more than a quarter from run to run on a
    # shared 2-core host.
    p50, p95, p99 = (min(w[key] for w in windows) for key in ("p50_ms", "p95_ms", "p99_ms"))
    rate = slo_rate(probes, best)
    failures = settle_failures + window_failures + probe_failures
    problems = accuracy_problems(result, refs)
    if reference["late_p99_ms"] > LATE_LIMIT_MS or reference["backlog"]:
        problems.append(
            f"reference windows invalid: generator p99 late {reference['late_p99_ms']:.1f} ms"
        )
    attempted = settled + len(result.outcomes) + sum(p["requests"] for p in probes)
    failed = len(failures)
    report("serve.reference", {"pooled": reference, "windows": windows, "rate": REFERENCE_RPS})
    report("serve.ladder", {"slo_p99_ms": SLO_P99_MS, "probes": probes})
    report("serve.scrape", counts)
    report("serve.modelled_rows_per_s", modelled_rows_per_s())
    report("serve.failures", failures[:5] + problems)
    return {
        "host": host_fingerprint(server.env),
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "named": {
            "setup_s": median(setups),
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "max_rps_under_slo": best,
            "slo_rate_per_s": rate,
            "error_share": failed / max(attempted, 1),
            "peak_rss_mb": stopped["rss_mb"],
            "loadgen.late_ms": reference["late_p99_ms"],
        },
        "metrics": {
            "setup_s": median(setups),
            "latency_ms": p50,
            "tail_latency_ms": p95,
            "throughput_per_s": rate,
            "peak_rss_mb": stopped["rss_mb"],
        },
    }


def _batcher_waits(spans: list[dict]) -> list[float]:
    """Each submit's time minus the time of the flush that served it.

    A submitted chunk rides the first flush of its batcher that starts
    after it was queued.
    """
    flushes: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["name"] == "batcher.flush":
            flushes.setdefault(span["batcher"], []).append(
                (span["start"], span["end"] - span["start"])
            )
    for runs in flushes.values():
        runs.sort()
    waits = []
    for span in spans:
        if span["name"] == "batcher.submit":
            runs = flushes.get(span["batcher"], [])
            index = bisect.bisect_left(runs, (span["start"],))
            served = runs[index][1] if index < len(runs) else 0.0
            waits.append(span["end"] - span["start"] - served)
    return waits


def _serving_layers(spans: list[dict], result, failures: list[str]) -> dict[str, float]:
    sent = {o.planned.request_id: o.done - o.sent for o in result.outcomes}
    n = max(len(sent), 1)
    table = summarize(spans)
    service = {s["request_id"]: s["end"] - s["start"] for s in spans if s["name"] == "serving.service"}
    http = [sent[rid] - service[rid] for rid in sent if rid in service]
    waits = _batcher_waits(spans)

    def per_request(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) / n

    rows: dict[str, list[float]] = {"sensor": [0, 0.0], "mnist": [0, 0.0]}
    for s in spans:
        if s["name"] == "encoding.kernel":
            shape = "sensor" if s["features"] == SHAPES["sensor"]["n_features"] else "mnist"
            rows[shape][0] += s["n"]
            rows[shape][1] += s["end"] - s["start"]
    return {
        "serving.http_s": float(np.mean(http)) if http else 0.0,
        "serving.parse_s": per_request("serving.parse"),
        "serving.key_gate_s": per_request("serving.key_gate"),
        "serving.serialize_s": per_request("serving.serialize"),
        "serving.requests": len(result.outcomes),
        "serving.failed": len(failures),
        "batcher.wait_s": float(np.mean(waits)) if waits else 0.0,
        "measured.sensor_rows_per_s": rows["sensor"][0] / rows["sensor"][1] if rows["sensor"][1] else 0.0,
        "measured.mnist_rows_per_s": rows["mnist"][0] / rows["mnist"][1] if rows["mnist"][1] else 0.0,
    }


def run_traced(seed: int, seconds: float) -> dict[str, Any]:
    """Untraced then traced server on the same schedule; per-layer metrics."""
    half = seconds / 2
    tracer = Tracer()
    tracer.install(layers.KERNEL_TARGETS)
    directory = fresh_dir("serve/traced")
    plain, pools, _ = set_up(directory, seed, False, "plain")
    setup_spans = list(tracer.spans)
    refs = references(directory, pools)
    try:
        untraced, _ = phase(plain, seed, 0, REFERENCE_RPS, half, pools, refs)
    finally:
        plain.stop()
    traced_server = Server(directory, True, "traced")
    try:
        warm(traced_server, pools)
        before = scrape_counts(traced_server.metrics())
        result, failures = phase(traced_server, seed, 0, REFERENCE_RPS, half, pools, refs)
        counts = _delta(scrape_counts(traced_server.metrics()), before)
    finally:
        stopped = traced_server.stop()
    boot = [s for s in stopped["spans"] if s["request_id"] is None]
    ids = {o.planned.request_id for o in result.outcomes}
    spans = [s for s in stopped["spans"] if s["request_id"] in ids]
    values = {
        key: value
        for key, value in layers.kernel_metrics(spans).items()
        if key.split(".")[0] in {"encoding", "hv", "model"}
    }
    provisioning = summarize(setup_spans)
    values["model.train_s"] = provisioning.get("model.train", {}).get("self_s", 0.0)
    values["data.dataset_s"] = provisioning.get("data.dataset", {}).get("total_s", 0.0)
    values.update(_serving_layers(spans, result, failures))
    values["registry.load_tenant_s"] = summarize(boot).get("registry.load_tenant", {}).get("total_s", 0.0)
    values["batcher.flushes"] = counts["flushes"]
    values["batcher.rows_per_flush"] = counts["flush_rows"] / counts["flushes"] if counts["flushes"] else 0.0
    values["scrape.requests_ok"] = counts["ok"]
    values["scrape.requests_denied"] = counts["denied"]
    values["scrape.kernel_rows"] = sum(v for k, v in counts.items() if k.startswith("kernel_rows."))
    values["loadgen.late_ms"] = percentile(result.late or [0.0], 99) * 1e3
    modelled = modelled_rows_per_s()
    values["modelled.sensor_rows_per_s"] = modelled["sensor"]
    values["modelled.mnist_rows_per_s"] = modelled["mnist"]
    plain_p50 = percentile([o.latency for o in untraced.outcomes], 50)
    traced_p50 = percentile([o.latency for o in result.outcomes], 50)
    values["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    report("serve.trace", {"missing": stopped["missing"] + tracer.missing, "spans": len(spans)})
    return {
        "host": host_fingerprint(traced_server.env),
        "correct": not failures,
        "attempted": len(result.outcomes),
        "failed": len(failures),
        "problems": failures[:5],
        "metrics": layers.complete(values),
    }
