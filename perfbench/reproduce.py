"""``reproduce``: the full ``python -m repro`` suite, cold.

``python -m repro --jobs $(nproc) --no-cache --format json --out DIR``
regenerates every table and figure; attack reasoning and
training dominate it and serving never runs. The artifacts are checked
against the paper-claim invariants and the manifest's clocks are read
back as counts.

End-to-end metrics (untraced), each the best over the suites of a run
(at least :data:`MIN_SUITES`): ``latency_ms`` is the suite wall
time, ``tail_latency_ms`` the in-worker clock of the slowest
experiment (the sum of its shards; single shards vary too much from run
to run on a shared host to gate on), ``throughput_per_s``
the work units completed per second of wall time, ``peak_rss_mb`` the
largest runner process, and ``setup_s`` the runner's start-up, measured
as a run of its cheapest experiment (fig7).

The suite runs at the runner's default seed, the paper configuration,
whatever ``--seed`` says: its cost depends on its seed by about +-10%
(9.2-11.4 s over five seeds on 2 cores), more than the bounds leave
room for, so the workload's only input is that default.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from perfbench import checks, layers
from perfbench.common import (
    ROOT,
    fresh_dir,
    host_fingerprint,
    median,
    program_env,
    report,
    rss_children_mb,
)
from perfbench.tracing import Tracer

JOBS = os.cpu_count() or 1
SETUP_REPEATS = 5
SETUP_EXPERIMENT = "fig7"
#: Suites per run at least, so the best of them skips up to two slowed
#: by contention.
MIN_SUITES = 3
SUITE_TIMEOUT_S = 150


def _suite(out: Path, only: str | None = None, traced: bool = False) -> float:
    """One cold runner invocation; returns its wall time in seconds."""
    module = "perfbench.reproduce_launcher" if traced else "repro"
    command = [
        sys.executable, "-m", module, "--jobs", str(1 if only else JOBS),
        "--no-cache", "--format", "json", "--out", str(out),
    ]
    if only:
        command += ["--only", only]
    started = time.perf_counter()
    subprocess.run(
        command, cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, check=True, timeout=SUITE_TIMEOUT_S,
    )
    return time.perf_counter() - started


def _manifest(out: Path) -> dict[str, Any]:
    return json.loads((out / "manifest.json").read_text())


def _units(manifest: dict[str, Any]) -> list[float]:
    """In-worker clocks of every work unit (shard or whole experiment)."""
    clocks = []
    for status in manifest["experiments"].values():
        timing = status["timing"]
        clocks += list(timing.get("shards", {}).values()) or [timing["elapsed_seconds"]]
    return clocks


def run(seed: int, seconds: float) -> dict[str, Any]:
    del seed  # see the module docstring: the suite runs at its own seed
    setups = [
        _suite(fresh_dir(f"reproduce/setup{i}"), only=SETUP_EXPERIMENT)
        for i in range(SETUP_REPEATS)
    ]
    walls, tails, rates, work, problems = [], [], [], [], []
    failed = 0
    started = time.perf_counter()
    while len(walls) < MIN_SUITES or time.perf_counter() - started + median(walls) <= seconds:
        out = fresh_dir(f"reproduce/suite{len(walls)}")
        wall = _suite(out)
        manifest = _manifest(out)
        units = _units(manifest)
        walls.append(wall)
        work.append(sum(units))
        tails.append(
            max(status["timing"]["elapsed_seconds"] for status in manifest["experiments"].values())
        )
        rates.append(len(units) / wall)
        found = checks.check_suite(out)
        failed += len(found)
        problems += [
            f"suite {len(walls)} {name}: {why}" for name, whys in found.items() for why in whys
        ]
    counts = {
        name: status["timing"]["elapsed_seconds"]
        for name, status in manifest["experiments"].items()
    }
    report("reproduce.runs", {
        "suites": len(walls), "walls_s": walls, "setups_s": setups, "work_s": work, "tails_s": tails,
    })
    report("reproduce.manifest_clocks_s", counts)
    report("reproduce.arena_shard_clocks_s", manifest["experiments"]["arena"]["timing"].get("shards", {}))
    attempted = len(walls) * len(manifest["experiments"])
    # Best of the run's suites: a spell of contention from outside the
    # program slows whichever suites it lands in, never the program.
    metrics = {
        "setup_s": median(setups),
        "latency_ms": 1e3 * min(walls),
        "tail_latency_ms": 1e3 * min(tails),
        "throughput_per_s": max(rates),
        "peak_rss_mb": rss_children_mb(),
    }
    return {
        "host": host_fingerprint(program_env()),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "named": {
            "setup_s": metrics["setup_s"],
            "suite_s": min(walls),
            "error_share": failed / attempted,
            "peak_rss_mb": metrics["peak_rss_mb"],
        },
        "metrics": metrics,
    }


def run_traced(seed: int, seconds: float) -> dict[str, Any]:
    """An untraced suite for clocks and overhead, then a traced one."""
    del seed, seconds  # one suite of each kind, at the suite's own seed
    plain = fresh_dir("reproduce/plain")
    plain_wall = _suite(plain)
    traced = fresh_dir("reproduce/traced")
    traced_wall = _suite(traced, traced=True)
    found = {**checks.check_suite(plain), **checks.check_suite(traced)}
    problems = [f"{name}: {why}" for name, whys in found.items() for why in whys]
    manifest = _manifest(plain)
    spans = [
        span
        for status in _manifest(traced)["experiments"].values()
        for span in status["timing"]["spans"]
        if "start" in span
    ]
    values = layers.kernel_metrics(spans)
    for name, status in manifest["experiments"].items():
        values[f"experiments.{name}_s"] = status["timing"]["elapsed_seconds"]
    values["experiments.pool_utilization"] = sum(_units(manifest)) / (JOBS * plain_wall)
    arena = manifest["experiments"]["arena"]["timing"].get("shards", {})
    values["arena.slowest_cell_s"] = max(arena.values(), default=0.0)
    values["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    report("reproduce.trace", {"spans": len(spans), "walls_s": [plain_wall, traced_wall]})
    return {
        "host": host_fingerprint(program_env()),
        "correct": not problems,
        "attempted": 2 * len(manifest["experiments"]),
        "failed": len(found),
        "problems": problems,
        "metrics": layers.complete(values),
    }


#: Per-worker tracer state for :func:`traced_execute_shard`.
_WORKER: dict[str, Any] = {}


def traced_execute_shard(*args: Any) -> Any:
    """Run one runner work unit with the kernel and attack layers traced.

    Stands in for ``repro.experiments.runner._execute_shard`` inside the
    spawned workers (see :mod:`perfbench.reproduce_launcher`). The spans
    travel back in the shard outcome's ``spans`` field, which the runner
    files under the manifest's volatile timing section.
    """
    if not _WORKER:
        from repro.experiments import runner

        _WORKER["run"] = runner._execute_shard
        tracer = Tracer()
        tracer.install(layers.KERNEL_TARGETS + layers.ATTACK_TARGETS)
        _WORKER["tracer"] = tracer
    tracer = _WORKER["tracer"]
    outcome = _WORKER["run"](*args)
    spans, tracer.spans = tracer.spans, []
    return dataclasses.replace(outcome, spans=tuple(outcome.spans) + tuple(spans))
