"""What the traced run wraps, and the per-layer metrics it reports.

Every per-layer metric names the end-to-end metric it should move and
the workload on which it should move it (``moves``). ``BENCHMARK.json``
lists the same names, units and directions; its schema has no room for
the ``moves`` column, so this table is where it lives
(``tests/test_schema.py`` keeps the two in step).

Times ending in ``_s`` on the serving layers are means per request;
elsewhere they are totals over the traced run. ``encoding.bytes_moved``
is computed from operand shapes, not measured.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from perfbench.tracing import summarize

EXPERIMENTS = (
    "ablations",
    "arena",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "sweeps",
    "table1",
)


#: End-to-end metrics every workload reports, with their units. What
#: each means per workload is stated in that workload's module docstring.
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_latency_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _m(name: str, unit: str, better: str, moves: str) -> dict[str, str]:
    return {"name": name, "unit": unit, "better": better, "moves": moves}


#: (name, unit, better, "end-to-end metric on workload" it should move).
PER_LAYER: tuple[dict[str, str], ...] = (
    _m("serving.http_s", "s", "lower", "latency_ms on serve"),
    _m("serving.parse_s", "s", "lower", "latency_ms on serve"),
    _m("serving.key_gate_s", "s", "lower", "latency_ms on serve"),
    _m("serving.serialize_s", "s", "lower", "latency_ms on serve"),
    _m("serving.requests", "count", "higher", "throughput_per_s on serve"),
    _m("serving.failed", "count", "lower", "throughput_per_s on serve"),
    _m("batcher.wait_s", "s", "lower", "latency_ms, throughput_per_s on serve"),
    _m("batcher.rows_per_flush", "rows", "higher", "throughput_per_s on serve"),
    _m("batcher.flushes", "count", "lower", "throughput_per_s on serve"),
    _m("encoding.calls", "count", "lower", "latency_ms on reproduce"),
    _m("encoding.rows", "count", "higher", "latency_ms on reproduce"),
    _m("encoding.rows_per_call", "rows", "higher", "latency_ms on reproduce"),
    _m("encoding.busy_s", "s", "lower", "latency_ms on reproduce; tail_latency_ms on serve"),
    _m("encoding.kernel_rows.blas", "count", "higher", "latency_ms on reproduce"),
    _m("encoding.kernel_rows.bitslice", "count", "higher", "latency_ms on reproduce"),
    _m("encoding.kernel_rows.einsum", "count", "lower", "latency_ms on reproduce"),
    _m("encoding.bytes_moved", "B", "lower", "latency_ms on reproduce (computed)"),
    _m("hv.binarize_s", "s", "lower", "latency_ms on reproduce; tail_latency_ms on serve"),
    _m("hv.hamming_s", "s", "lower", "latency_ms on reproduce; tail_latency_ms on serve"),
    _m("hv.hamming_pairs", "count", "lower", "latency_ms on reproduce"),
    _m("model.train_s", "s", "lower", "latency_ms on reproduce; setup_s on serve"),
    _m("model.predict_s", "s", "lower", "latency_ms on reproduce; latency_ms on serve"),
    _m("attack.oracle_queries", "count", "lower", "latency_ms on reproduce"),
    _m("attack.oracle_calls", "count", "lower", "latency_ms on reproduce"),
    _m("attack.guesses", "count", "lower", "latency_ms on reproduce"),
    _m("attack.score_s", "s", "lower", "latency_ms on reproduce"),
    _m("attack.extract_s", "s", "lower", "latency_ms on reproduce"),
    _m("arena.cells", "count", "higher", "latency_ms on reproduce"),
    _m("arena.duel_s", "s", "lower", "latency_ms on reproduce"),
    _m("arena.slowest_cell_s", "s", "lower", "latency_ms, tail_latency_ms on reproduce"),
    *(
        _m(f"experiments.{name}_s", "s", "lower", "latency_ms on reproduce")
        for name in EXPERIMENTS
    ),
    _m("experiments.pool_utilization", "ratio", "higher", "latency_ms on reproduce"),
    _m("data.dataset_s", "s", "lower", "latency_ms on reproduce; setup_s on serve"),
    _m("keygen.keys_per_s", "1/s", "higher", "throughput_per_s on provision"),
    _m("keystore.append_s", "s", "lower", "throughput_per_s on provision"),
    _m("keystore.bytes_per_key", "B", "lower", "peak_rss_mb on provision"),
    _m("keystore.read_us", "us", "lower", "latency_ms on provision"),
    _m("lock.derive_ms", "ms", "lower", "latency_ms, tail_latency_ms on provision"),
    _m("lock.rotate_ms", "ms", "lower", "relock (reported) on provision"),
    _m("registry.load_tenant_s", "s", "lower", "setup_s on serve"),
    _m("scrape.requests_ok", "count", "higher", "throughput_per_s on serve"),
    _m("scrape.requests_denied", "count", "lower", "latency_ms on serve"),
    _m("scrape.kernel_rows", "count", "higher", "throughput_per_s on serve"),
    _m("loadgen.late_ms", "ms", "lower", "validity of every serve figure"),
    _m("modelled.sensor_rows_per_s", "1/s", "higher", "none (hardware model, not measured)"),
    _m("modelled.mnist_rows_per_s", "1/s", "higher", "none (hardware model, not measured)"),
    _m("measured.sensor_rows_per_s", "1/s", "higher", "throughput_per_s on serve"),
    _m("measured.mnist_rows_per_s", "1/s", "higher", "throughput_per_s on serve"),
    _m("trace.overhead_pct", "%", "lower", "none (cost of the traced run itself)"),
)


# -- wrapped callables -------------------------------------------------


def _rows(_self: Any, samples: Any, *args: Any, **kwargs: Any) -> int:
    return int(np.shape(samples)[0]) if np.ndim(samples) > 1 else 1


def _one(*args: Any, **kwargs: Any) -> int:
    return 1


def _pairs_broadcast(a: Any, b: Any, *args: Any, **kwargs: Any) -> int:
    lead = np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])
    return int(math.prod(lead))


def _pairs_all(a: Any, b: Any = None, *args: Any, **kwargs: Any) -> int:
    other = a if b is None else b
    return int(np.shape(a)[0]) * int(np.shape(other)[0])


def _pairs_nearest(pool: Any, targets: Any, *args: Any, **kwargs: Any) -> int:
    return int(np.shape(pool)[0]) * int(np.shape(targets)[0])


def _candidates(_self: Any, observed: Any, available: Any, *a: Any, **k: Any) -> int:
    return int(np.size(available))


def _guesses(surface: Any, observation: Any, guesses: Any, *a: Any, **k: Any) -> int:
    return len(guesses)


def _devices(n_devices: int, *args: Any, **kwargs: Any) -> int:
    return int(n_devices)


def _batch_len(_self: Any, batch: Any, *args: Any, **kwargs: Any) -> int:
    return len(batch)


def _plan_shape(packed: bool):
    def attrs(plan: Any, samples: Any, *args: Any, **kwargs: Any) -> dict:
        rows = int(np.shape(samples)[0]) if np.ndim(samples) > 1 else 1
        return {
            "mode": plan.mode,
            "features": plan.n_features,
            "bytes": encode_bytes(rows, plan.n_features, plan.levels, plan.dim, packed),
        }

    return attrs


def encode_bytes(rows: int, features: int, levels: int, dim: int, packed: bool) -> int:
    """Computed bytes one encode call moves: inputs, operands, outputs.

    int64 level indices in, the int8 level and feature matrices read
    once, and either int64 accumulators or uint64 bit-planes out.
    """
    out = rows * (-(-dim // 64) * 8 if packed else dim * 8)
    return rows * features * 8 + (levels + features) * dim + out


def _batcher(self: Any, *args: Any, **kwargs: Any) -> dict:
    return {"batcher": self.name}


KERNEL_TARGETS: tuple[tuple, ...] = (
    ("repro.encoding.engine", "EncodingPlan.accumulate", "encoding.kernel", _rows, _plan_shape(False)),
    ("repro.encoding.engine", "EncodingPlan.accumulate_packed", "encoding.kernel", _rows, _plan_shape(True)),
    ("repro.encoding.engine", "EncodingPlan.accumulate_single", "encoding.kernel", _rows, _plan_shape(False)),
    ("repro.hv.packing", "sign_bits", "hv.binarize"),
    ("repro.hv.packing", "pack_signs", "hv.binarize"),
    ("repro.encoding.engine", "binarize_batch", "hv.binarize"),
    ("repro.hv.packing", "hamming_packed", "hv.hamming", _pairs_broadcast),
    ("repro.hv.packing", "pairwise_hamming_packed", "hv.hamming", _pairs_all),
    ("repro.hv.similarity", "hamming", "hv.hamming", _pairs_broadcast),
    ("repro.hv.similarity", "pairwise_hamming", "hv.hamming", _pairs_all),
    ("repro.hv.similarity", "nearest_batch", "hv.hamming", _pairs_nearest),
    ("repro.model.classifier", "HDClassifier.fit", "model.train"),
    ("repro.model.classifier", "HDClassifier.retrain", "model.train"),
    ("repro.model.classifier", "HDClassifier.predict", "model.predict", _rows),
    ("repro.data.synthetic", "make_dataset", "data.dataset"),
    ("repro.data.benchmarks", "load_benchmark", "data.dataset"),
)

ATTACK_TARGETS: tuple[tuple, ...] = (
    ("repro.encoding.oracle", "EncodingOracle.query", "attack.oracle", _one),
    ("repro.encoding.oracle", "EncodingOracle.query_batch", "attack.oracle", _rows),
    ("repro.encoding.oracle", "EncodingOracle.query_batch_packed", "attack.oracle", _rows),
    ("repro.attack.feature_extraction", "CandidateTable.score", "attack.score", _candidates),
    ("repro.attack.hdlock_attack", "score_guesses", "attack.score", _guesses),
    ("repro.attack.feature_extraction", "extract_feature_mapping", "attack.extract"),
    ("repro.attack.value_extraction", "extract_value_mapping", "attack.extract"),
    ("repro.arena.matrix", "duel", "arena.duel"),
)

HDLOCK_TARGETS: tuple[tuple, ...] = (
    ("repro.hdlock.keygen", "generate_keys", "keygen.generate", _devices),
    ("repro.hdlock.keystore", "KeyStore.append", "keystore.append", _batch_len),
    ("repro.hdlock.keystore", "KeyStore.key", "keystore.read"),
    ("repro.hdlock.feature_factory", "derive_feature_matrix", "lock.derive"),
    ("repro.hdlock.lock", "rotate_system", "lock.rotate"),
)

SERVER_TARGETS: tuple[tuple, ...] = (
    ("repro.serving.service", "InferenceService.encode", "serving.service"),
    ("repro.serving.service", "InferenceService.classify", "serving.service"),
    ("repro.serving.asgi", "Request.json", "serving.parse"),
    ("repro.serving.schemas", "parse_samples", "serving.parse"),
    ("repro.serving.registry", "Tenant.check_access", "serving.key_gate"),
    ("repro.serving.schemas", "packed_rows_to_hex", "serving.serialize"),
    ("repro.serving.schemas", "EncodeResponse.to_dict", "serving.serialize"),
    ("repro.serving.schemas", "ClassifyResponse.to_dict", "serving.serialize"),
    ("repro.serving.asgi", "JSONResponse.__init__", "serving.serialize"),
    ("repro.serving.batcher", "MicroBatcher.submit", "batcher.submit", None, _batcher),
    ("repro.serving.batcher", "MicroBatcher._flush", "batcher.flush", None, _batcher),
    ("repro.serving.registry", "load_tenant", "registry.load_tenant"),
)


# -- span summaries -> per-layer metrics ---------------------------------


def kernel_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """encoding/hv/model/data/attack/arena/hdlock metrics from spans."""
    table = summarize(spans)

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"calls": 0, "n": 0, "total_s": 0.0, "self_s": 0.0})

    kernel = row("encoding.kernel")
    by_mode = {"blas": 0, "bitslice": 0, "einsum": 0}
    moved = 0
    for record in spans:
        if record["name"] == "encoding.kernel":
            mode = record["mode"]
            by_mode[mode] = by_mode.get(mode, 0) + record["n"]
            moved += record["bytes"]
    keygen, append, read = row("keygen.generate"), row("keystore.append"), row("keystore.read")
    derive, rotate = row("lock.derive"), row("lock.rotate")
    return {
        "encoding.calls": kernel["calls"],
        "encoding.rows": kernel["n"],
        "encoding.rows_per_call": kernel["n"] / kernel["calls"] if kernel["calls"] else 0.0,
        "encoding.busy_s": kernel["total_s"],
        "encoding.kernel_rows.blas": by_mode["blas"],
        "encoding.kernel_rows.bitslice": by_mode["bitslice"],
        "encoding.kernel_rows.einsum": by_mode["einsum"],
        "encoding.bytes_moved": moved,
        "hv.binarize_s": row("hv.binarize")["self_s"],
        "hv.hamming_s": row("hv.hamming")["self_s"],
        "hv.hamming_pairs": row("hv.hamming")["n"],
        "model.train_s": row("model.train")["self_s"],
        "model.predict_s": row("model.predict")["self_s"],
        "attack.oracle_queries": row("attack.oracle")["n"],
        "attack.oracle_calls": row("attack.oracle")["calls"],
        "attack.guesses": row("attack.score")["n"],
        "attack.score_s": row("attack.score")["self_s"],
        "attack.extract_s": row("attack.extract")["self_s"],
        "arena.cells": row("arena.duel")["calls"],
        "arena.duel_s": row("arena.duel")["total_s"],
        "data.dataset_s": row("data.dataset")["total_s"],
        "keygen.keys_per_s": keygen["n"] / keygen["total_s"] if keygen["total_s"] else 0.0,
        "keystore.append_s": append["total_s"],
        "keystore.read_us": 1e6 * read["total_s"] / read["calls"] if read["calls"] else 0.0,
        "lock.derive_ms": 1e3 * derive["total_s"] / derive["calls"] if derive["calls"] else 0.0,
        "lock.rotate_ms": 1e3 * rotate["total_s"] / rotate["calls"] if rotate["calls"] else 0.0,
    }


def complete(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, 0 where this workload never ran the layer."""
    out = {}
    for metric in PER_LAYER:
        value = values.get(metric["name"], 0)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    unknown = set(values) - {m["name"] for m in PER_LAYER}
    if unknown:
        raise KeyError(f"per-layer metrics missing from the table: {sorted(unknown)}")
    return out
