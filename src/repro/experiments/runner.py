"""Parallel, artifact-producing experiment runner.

Regenerates any subset of the paper's tables and figures, serially or
fanned out over worker processes, as text reports or machine-readable
JSON artifacts::

    python -m repro                                    # everything, text
    python -m repro --only fig3,fig9 --seed 7
    python -m repro --jobs 4 --format json --out artifacts
    REPRO_FULL_SCALE=1 python -m repro --only table1

Flags:

``--only NAMES``
    Comma-separated subset of the registry (whitespace around names and
    empty segments are tolerated; duplicates collapse, order preserved).
    Unknown names are a usage error (exit code 2), not a traceback.
``--seed N``
    Root suite seed. Every experiment consumes its own child seed,
    derived from one :class:`numpy.random.SeedSequence` keyed by the
    experiment's fixed registry position — deterministic given the root
    seed, independent across experiments, and identical under every
    ``--jobs`` setting. (Fig. 5 and Fig. 6 share one child seed on
    purpose: they evaluate the same deployed system under two criteria.)
``--jobs N``
    Number of worker processes. When only one worker would run (``--jobs
    1``, or a selection with a single work unit) the units run one after
    another in the runner's own process, with no pool to spawn and no
    second import; two or more workers mean a spawn-based process pool.
    Numeric results do not depend on the layout: every GEMM on the
    suite's path multiplies integer-valued float64 operands, so it is
    exact whatever the BLAS thread count (the jobs-parity test pins
    this). Wall clocks are measured around each unit in the process that
    ran it, keeping reasoning-time numbers honest under concurrency.
``--format text|json|csv``
    ``text`` prints the paper-style tables; ``json`` prints one
    canonical JSON document with every record plus per-experiment
    timings; ``csv`` prints flat per-experiment CSV projections of the
    artifact payloads (:mod:`repro.experiments.csvfmt`) and, with
    ``--out``, writes one ``<name>.csv`` next to each JSON artifact.
``--out DIR``
    Write one deterministic JSON artifact per experiment plus a
    ``manifest.json`` with the volatile run metadata (statuses, wall
    clocks, cache hit rates). Re-running with the same seed/scale skips
    experiments whose artifact key already matches (resume); see
    :mod:`repro.experiments.records` for the artifact schema.
``--cache DIR`` / ``--no-cache``
    Shared on-disk cache for deterministic intermediates (benchmark
    datasets, Fig. 8 trained cells, the Fig. 5/6 locked system); see
    :mod:`repro.experiments.cache` for the layout. Defaults to
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hdlock``.

Exit codes: 0 on success, 1 when an experiment fails, 2 on usage or
configuration errors (unknown experiment names, bad ``REPRO_FULL_SCALE``
values).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from contextvars import Context
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.data.benchmarks import BENCHMARK_ORDER
from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    ABLATIONS_VOLATILE_FIELDS,
    AblationsResult,
    run_ablations,
)
from repro.experiments.arena import (
    ARENA_VOLATILE_FIELDS,
    ArenaResult,
    arena_shards,
    combine_arena,
    render_arena,
    run_arena,
    run_arena_shard,
)
from repro.experiments.cache import DiskCache
from repro.experiments.csvfmt import render_csv
from repro.experiments.config import DEFAULT_SEED, ExperimentScale, active_scale
from repro.experiments.fig3 import Fig3Result, render_fig3, run_fig3
from repro.experiments.fig56 import Fig56Result, render_fig56, run_fig5, run_fig6
from repro.experiments.fig7 import Fig7Result, render_fig7, run_fig7
from repro.experiments.fig8 import Fig8Result, render_fig8, run_fig8
from repro.experiments.fig9 import Fig9Result, render_fig9, run_fig9
from repro.experiments.records import (
    ExperimentRecord,
    artifact_up_to_date,
    canonical_json,
    environment_provenance,
    load_artifact,
    record_key,
    split_volatile,
)
from repro.experiments.sweeps import SweepsResult, run_sweeps
from repro.experiments.table1 import (
    TABLE1_VOLATILE_FIELDS,
    render_table1,
    run_table1,
    table1_from_dict,
    table1_to_dict,
)
from repro.obs.trace import SpanRecorder, span
from repro.utils.timer import Timer

#: Default cache location when neither ``--cache`` nor ``--no-cache``
#: nor ``$REPRO_CACHE_DIR`` says otherwise.
DEFAULT_CACHE_DIR = "~/.cache/repro-hdlock"


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: how to run, serialize and render one experiment.

    Experiments whose wall clock would dominate the suite declare
    ``shards``: independent work units (e.g. one per benchmark/flavor)
    that workers can run concurrently and ``combine`` reassembles into
    the one canonical result. Shards receive the experiment's child seed
    and derive their internal streams from their own identity, so a
    sharded run is bit-identical to the whole-experiment run.
    """

    name: str
    #: Experiments in the same seed group receive the same child seed
    #: (used by fig5/fig6, which deploy one system under two criteria).
    seed_group: str
    run: Callable[[ExperimentScale, int, DiskCache | None], Any]
    to_dict: Callable[[Any], dict[str, Any]]
    from_dict: Callable[[dict[str, Any]], Any]
    render: Callable[[Any], str]
    #: Payload keys measured from wall clock, stripped from artifacts.
    volatile: frozenset[str] = frozenset()
    #: Work-unit descriptors for parallel execution (None = one unit).
    shards: Callable[[ExperimentScale], list[Any]] | None = None
    #: Run one shard: ``(scale, child_seed, cache, shard) -> partial``.
    run_shard: (
        Callable[[ExperimentScale, int, DiskCache | None, Any], Any] | None
    ) = None
    #: Reassemble shard partials (in shard order) into the result.
    combine: Callable[[list[Any]], Any] | None = None


def _spec(
    name: str,
    run: Callable[..., Any],
    to_dict: Callable[[Any], dict[str, Any]],
    from_dict: Callable[[dict[str, Any]], Any],
    render: Callable[[Any], str],
    seed_group: str | None = None,
    volatile: frozenset[str] = frozenset(),
    shards: Callable[[ExperimentScale], list[Any]] | None = None,
    run_shard: Callable[..., Any] | None = None,
    combine: Callable[[list[Any]], Any] | None = None,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        seed_group=seed_group or name,
        run=run,
        to_dict=to_dict,
        from_dict=from_dict,
        render=render,
        volatile=volatile,
        shards=shards,
        run_shard=run_shard,
        combine=combine,
    )


def _table1_shards(scale: ExperimentScale) -> list[Any]:
    del scale
    return [
        (benchmark, binary)
        for benchmark in BENCHMARK_ORDER
        for binary in (False, True)
    ]


def _run_table1_shard(
    scale: ExperimentScale, seed: int, cache: DiskCache | None, shard: Any
) -> Any:
    benchmark, binary = shard
    return run_table1(
        benchmarks=(benchmark,),
        flavors=(binary,),
        scale=scale,
        seed=seed,
        cache=cache,
    )


def _combine_table1(parts: list[Any]) -> Any:
    # Shard order mirrors run_table1's benchmark-major loop, so
    # concatenating partials in shard order is the canonical row order.
    return [row for part in parts for row in part]


def _fig8_shards(scale: ExperimentScale) -> list[Any]:
    del scale
    return list(BENCHMARK_ORDER)


def _run_fig8_shard(
    scale: ExperimentScale, seed: int, cache: DiskCache | None, shard: Any
) -> Any:
    return run_fig8(benchmarks=(shard,), scale=scale, seed=seed, cache=cache)


def _combine_fig8(parts: list[Any]) -> Any:
    return Fig8Result(
        cells=tuple(cell for part in parts for cell in part.cells)
    )


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "table1",
            lambda scale, seed, cache: run_table1(
                scale=scale, seed=seed, cache=cache
            ),
            table1_to_dict,
            table1_from_dict,
            render_table1,
            volatile=TABLE1_VOLATILE_FIELDS,
            shards=_table1_shards,
            run_shard=_run_table1_shard,
            combine=_combine_table1,
        ),
        _spec(
            "fig3",
            lambda scale, seed, cache: run_fig3(scale=scale, seed=seed),
            Fig3Result.to_dict,
            Fig3Result.from_dict,
            render_fig3,
        ),
        _spec(
            "fig5",
            lambda scale, seed, cache: run_fig5(
                scale=scale, seed=seed, cache=cache
            ),
            Fig56Result.to_dict,
            Fig56Result.from_dict,
            render_fig56,
            seed_group="fig56",
        ),
        _spec(
            "fig6",
            lambda scale, seed, cache: run_fig6(
                scale=scale, seed=seed, cache=cache
            ),
            Fig56Result.to_dict,
            Fig56Result.from_dict,
            render_fig56,
            seed_group="fig56",
        ),
        _spec(
            "fig7",
            lambda scale, seed, cache: run_fig7(),
            Fig7Result.to_dict,
            Fig7Result.from_dict,
            render_fig7,
        ),
        _spec(
            "fig8",
            lambda scale, seed, cache: run_fig8(
                scale=scale, seed=seed, cache=cache
            ),
            Fig8Result.to_dict,
            Fig8Result.from_dict,
            render_fig8,
            shards=_fig8_shards,
            run_shard=_run_fig8_shard,
            combine=_combine_fig8,
        ),
        _spec(
            "fig9",
            lambda scale, seed, cache: run_fig9(scale=scale, seed=seed),
            Fig9Result.to_dict,
            Fig9Result.from_dict,
            render_fig9,
        ),
        _spec(
            "ablations",
            lambda scale, seed, cache: run_ablations(scale=scale, seed=seed),
            AblationsResult.to_dict,
            AblationsResult.from_dict,
            AblationsResult.render,
            volatile=ABLATIONS_VOLATILE_FIELDS,
        ),
        _spec(
            "sweeps",
            lambda scale, seed, cache: run_sweeps(scale=scale, seed=seed),
            SweepsResult.to_dict,
            SweepsResult.from_dict,
            SweepsResult.render,
        ),
        # The arena is registered LAST on purpose: seed-group positions
        # are spawn keys, so appending (never inserting) keeps every
        # earlier experiment's child seed — and artifact bytes — intact.
        _spec(
            "arena",
            lambda scale, seed, cache: run_arena(
                scale=scale, seed=seed, cache=cache
            ),
            ArenaResult.to_dict,
            ArenaResult.from_dict,
            render_arena,
            volatile=ARENA_VOLATILE_FIELDS,
            shards=arena_shards,
            run_shard=run_arena_shard,
            combine=combine_arena,
        ),
    )
}

#: Seed groups in fixed registry order; a group's position is its
#: SeedSequence spawn key, so child seeds do not depend on which subset
#: of experiments a given invocation selects.
_SEED_GROUPS: tuple[str, ...] = tuple(
    dict.fromkeys(spec.seed_group for spec in EXPERIMENTS.values())
)


def child_seed(root_seed: int, name: str) -> int:
    """The derived seed experiment ``name`` consumes for root ``--seed``.

    Spawned from one :class:`numpy.random.SeedSequence` keyed by the
    experiment's seed-group position: deterministic given the root seed,
    statistically independent across groups, and identical regardless of
    ``--only`` subsets or ``--jobs`` settings.
    """
    group = EXPERIMENTS[name].seed_group
    spawn_key = _SEED_GROUPS.index(group)
    state = np.random.SeedSequence(
        root_seed, spawn_key=(spawn_key,)
    ).generate_state(2)
    return (int(state[0]) << 32 | int(state[1])) & 0x7FFF_FFFF_FFFF_FFFF


def normalize_names(raw: str | None) -> list[str]:
    """Parse ``--only``: strip segments, drop empties, dedupe in order.

    Raises :class:`KeyError` naming the unknown experiments (the CLI
    turns this into a usage error, exit code 2).
    """
    if raw is None:
        return list(EXPERIMENTS)
    names = [segment.strip() for segment in raw.split(",")]
    names = list(dict.fromkeys(n for n in names if n))
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; available: {list(EXPERIMENTS)}"
        )
    return names


@dataclass(frozen=True)
class ExperimentOutcome:
    """One assembled experiment: the record plus its text rendering."""

    record: ExperimentRecord
    rendered: str


@dataclass(frozen=True)
class ShardOutcome:
    """What one worker hands back for one work unit."""

    partial: Any
    elapsed: float
    cache_hits: int
    cache_misses: int
    #: Finished trace spans as plain dicts — picklable, so they survive
    #: the spawn pool; filed under the manifest's volatile timing.
    spans: tuple = ()


def _execute_shard(
    name: str,
    shard: Any,
    scale: ExperimentScale,
    root_seed: int,
    cache_dir: str | None,
) -> ShardOutcome:
    """Run one work unit (in whatever process this is called from).

    The wall clock is measured in the process running the unit, around
    exactly this unit's computation — reasoning-time numbers stay honest
    no matter how many sibling units run concurrently. Each unit also
    records a trace span (named ``<experiment>`` or
    ``<experiment>/<shard>``); spans travel back as dicts and end up in
    the manifest's volatile section only, never in artifacts.
    """
    spec = EXPERIMENTS[name]
    cache = DiskCache(cache_dir) if cache_dir else None
    seed = child_seed(root_seed, name)
    recorder = SpanRecorder()
    span_name = name if shard is None else f"{name}/{shard}"
    with Timer() as timer:
        with span(span_name, recorder):
            if shard is None:
                partial = spec.run(scale, seed, cache)
            else:
                partial = spec.run_shard(scale, seed, cache, shard)
    return ShardOutcome(
        partial=partial,
        elapsed=timer.elapsed,
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else 0,
        spans=tuple(recorder.drain()),
    )


def _assemble(
    name: str,
    scale: ExperimentScale,
    root_seed: int,
    shards: list[Any],
    outcomes: list[ShardOutcome],
) -> ExperimentOutcome:
    """Combine shard partials into the experiment's record + rendering.

    ``timing.elapsed_seconds`` is the sum of in-worker shard clocks —
    the serial-equivalent cost of the experiment, independent of how
    the units were scheduled.
    """
    spec = EXPERIMENTS[name]
    if shards == [None]:
        result = outcomes[0].partial
    else:
        result = spec.combine([o.partial for o in outcomes])
    rendered = spec.render(result)
    data, volatile = split_volatile(spec.to_dict(result), spec.volatile)
    timing: dict[str, Any] = {
        "elapsed_seconds": sum(o.elapsed for o in outcomes),
        "volatile": volatile,
        "cache": {
            "hits": sum(o.cache_hits for o in outcomes),
            "misses": sum(o.cache_misses for o in outcomes),
        },
        # Spans live under timing, which artifact_dict() excludes — so
        # tracing can stay always-on without touching artifact bytes.
        "spans": [s for o in outcomes for s in o.spans],
    }
    if shards != [None]:
        timing["shards"] = {
            str(s): o.elapsed for s, o in zip(shards, outcomes, strict=True)
        }
    record = ExperimentRecord(
        experiment=name,
        seed=root_seed,
        child_seed=child_seed(root_seed, name),
        scale=scale.to_dict(),
        data=data,
        timing=timing,
    )
    return ExperimentOutcome(record=record, rendered=rendered)


def run_experiments(
    names: list[str] | None = None,
    scale: ExperimentScale | None = None,
    seed: int = DEFAULT_SEED,
    cache_dir: str | None = None,
) -> dict[str, str]:
    """Run the named experiments in-process (all when ``names`` is None).

    Library-facing convenience on the same in-process unit loop as the
    CLI's ``--jobs 1``: returns rendered text keyed by experiment name,
    raises :class:`KeyError` on unknown names and re-raises the first
    failed experiment's exception.
    """
    cfg = scale or active_scale()
    selected = normalize_names(",".join(names) if names else None)
    outcomes, errors = _run_pool(selected, cfg, seed, cache_dir, jobs=1)
    if errors:
        raise next(iter(errors.values()))
    return {name: outcomes[name].rendered for name in selected}


def _pin_worker_blas_threads() -> None:
    """Single-thread the BLAS pools of spawned workers.

    Called only when a process pool is about to start, so freshly
    spawned interpreters load numpy with one BLAS thread and N workers
    do not oversubscribe N cores with N x T BLAS threads. In-process
    runs never call it and leave the caller's environment as it was.
    Explicit user settings win (``setdefault``).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


class _InProcessExecutor(Executor):
    """Runs each submitted unit at once, in this process.

    Each unit runs in an empty :class:`contextvars.Context`, so its
    span is a root exactly as in a freshly spawned worker.
    """

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future[Any]:
        future: Future[Any] = Future()
        try:
            future.set_result(Context().run(fn, *args, **kwargs))
        except Exception as exc:  # delivered by future.result(), as on the pool
            future.set_exception(exc)
        return future


def _run_pool(
    pending: list[str],
    scale: ExperimentScale,
    seed: int,
    cache_dir: str | None,
    jobs: int,
) -> tuple[dict[str, ExperimentOutcome], dict[str, Exception]]:
    """Execute ``pending``'s work units, in-process when one worker would do.

    With ``min(jobs, units) == 1`` the units run one after another in
    this process (:class:`_InProcessExecutor`); two or more workers mean
    a spawn-based process pool. The pool spawns rather than forks
    because ``python -m repro`` imports NumPy through ``repro/__init__``
    before :func:`_pin_worker_blas_threads` runs, so forked workers
    inherit the parent's multi-threaded OpenBLAS pool; on a 2-core host
    the reduced suite at ``--jobs 2`` took 6.2–12.6 s forked against
    1.6–2.2 s spawned (3 runs each, byte-identical artifacts), and fork
    caught up (1.3–1.5 s) only with ``OPENBLAS_NUM_THREADS=1`` set
    before launch. Sharded experiments submit one unit per shard so a
    single heavyweight experiment (Table 1 at full scale) cannot
    serialize the suite on its own. Returns ``(outcomes, errors)``
    keyed by experiment name; ``errors`` holds each failed experiment's
    first exception.
    """
    outcomes: dict[str, ExperimentOutcome] = {}
    errors: dict[str, Exception] = {}
    if not pending:
        return outcomes, errors
    shard_lists = {
        name: (
            EXPERIMENTS[name].shards(scale)
            if EXPERIMENTS[name].shards is not None
            else [None]
        )
        for name in pending
    }
    units = sum(len(shards) for shards in shard_lists.values())
    workers = min(jobs, units)
    pool: Executor = _InProcessExecutor()
    if workers > 1:
        _pin_worker_blas_threads()
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        )
    with pool:
        futures = {
            name: [
                pool.submit(_execute_shard, name, shard, scale, seed, cache_dir)
                for shard in shard_lists[name]
            ]
            for name in pending
        }
        for name, shard_futures in futures.items():
            shard_outcomes: list[ShardOutcome] = []
            failure: Exception | None = None
            for future in shard_futures:
                try:
                    shard_outcomes.append(future.result())
                except Exception as exc:  # worker died or shard raised
                    failure = failure or exc
            if failure is not None:
                errors[name] = failure
                continue
            try:
                outcomes[name] = _assemble(
                    name, scale, seed, shard_lists[name], shard_outcomes
                )
            except Exception as exc:
                errors[name] = exc
    return outcomes, errors


def _write_manifest(
    out_dir: Path,
    scale: ExperimentScale,
    seed: int,
    jobs: int,
    statuses: dict[str, dict[str, Any]],
) -> Path:
    """Write the volatile run metadata next to the artifacts."""
    manifest = {
        "seed": seed,
        "jobs": jobs,
        "scale": scale.to_dict(),
        "env": environment_provenance(),
        "experiments": statuses,
    }
    # No artifact may have created the directory when every run failed.
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(canonical_json(manifest), encoding="utf-8")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the HDLock paper's tables and figures.",
    )
    parser.add_argument(
        "--only",
        default=None,
        help=f"comma-separated subset of {sorted(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="root suite seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan experiments out over (default 1)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="stdout format: paper-style text tables, canonical JSON, or "
        "flat CSV projections (see repro.experiments.csvfmt)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write per-experiment JSON artifacts + manifest.json here; "
        "re-runs skip artifacts that are already up to date",
    )
    parser.add_argument(
        "--cache",
        default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
        metavar="DIR",
        help="shared on-disk cache for datasets/trained models "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro-hdlock)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared on-disk cache",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module docstring for flags and exit codes)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        names = normalize_names(args.only)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    try:
        scale = active_scale()
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    cache_dir = None if args.no_cache else str(Path(args.cache).expanduser())
    out_dir = Path(args.out).expanduser() if args.out else None

    env = environment_provenance()
    expected_keys = {
        name: record_key(
            name, args.seed, child_seed(args.seed, name), scale.to_dict(), env
        )
        for name in names
    }

    # Resume: artifacts whose embedded key matches are already up to date.
    skipped: dict[str, Path] = {}
    if out_dir is not None:
        for name in names:
            path = out_dir / f"{name}.json"
            if artifact_up_to_date(path, expected_keys[name]):
                skipped[name] = path
    pending = [n for n in names if n not in skipped]

    outcomes, failures = _run_pool(pending, scale, args.seed, cache_dir, args.jobs)
    errors = {name: f"{type(exc).__name__}: {exc}" for name, exc in failures.items()}

    statuses: dict[str, dict[str, Any]] = {}
    for name in names:
        if name in skipped:
            statuses[name] = {"status": "skipped"}
        elif name in outcomes:
            statuses[name] = {
                "status": "run",
                "timing": outcomes[name].record.timing,
            }
        else:
            statuses[name] = {"status": "error", "error": errors[name]}

    # CSV consumes artifact *payloads*, identically for fresh records
    # and artifacts reloaded from a resume skip.
    payloads: dict[str, dict[str, Any]] = {}
    if args.format == "csv" or out_dir is not None:
        for name in names:
            if name in outcomes:
                payloads[name] = outcomes[name].record.data
            elif name in skipped:
                payloads[name] = load_artifact(skipped[name])["data"]

    if out_dir is not None:
        for outcome in outcomes.values():
            outcome.record.write_artifact(out_dir)
        if args.format == "csv":
            for name, data in payloads.items():
                path = out_dir / f"{name}.csv"
                path.write_text(render_csv(name, data), encoding="utf-8")
        _write_manifest(out_dir, scale, args.seed, args.jobs, statuses)

    if args.format == "json":
        documents = []
        for name in names:
            if name in outcomes:
                documents.append(outcomes[name].record.to_dict())
            elif name in skipped:
                documents.append(load_artifact(skipped[name]))
        print(  # reprolint: disable=RL007 -- the JSON document IS the CLI's product; stdout is the contract
            canonical_json(
                {
                    "seed": args.seed,
                    "jobs": args.jobs,
                    "scale": scale.to_dict(),
                    "experiments": statuses,
                    "records": documents,
                }
            ),
            end="",
        )
    elif args.format == "csv":
        for name in names:
            print(f"=== {name} ===")  # reprolint: disable=RL007 -- CSV-mode section header; stdout is the product
            if name in payloads:
                print(render_csv(name, payloads[name]), end="")  # reprolint: disable=RL007 -- the CSV projection IS the CLI's product
            else:
                print(f"[error: {errors[name]}]")  # reprolint: disable=RL007 -- in-band error marker in the rendered report
    else:
        print(f"[experiment scale: {scale.name}, D={scale.dim}]")  # reprolint: disable=RL007 -- text-mode report banner; stdout is the product
        for name in names:
            print()  # reprolint: disable=RL007 -- text-report section spacing
            print(f"=== {name} ===")  # reprolint: disable=RL007 -- text-mode section header; stdout is the product
            if name in skipped:
                print(f"[skipped: artifact up to date at {skipped[name]}]")  # reprolint: disable=RL007 -- in-band resume marker in the rendered report
            elif name in outcomes:
                print(outcomes[name].rendered)  # reprolint: disable=RL007 -- the paper-style table IS the CLI's product
            else:
                print(f"[error: {errors[name]}]")  # reprolint: disable=RL007 -- in-band error marker in the rendered report

    for name, message in errors.items():
        print(f"error: {name}: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
