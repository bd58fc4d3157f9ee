"""Correctness checks that feed ``failed`` and ``error_share``.

They are tie-aware, not byte digests: the program breaks sign(0) ties
in Eq. 3 at random today and may break them with a fixed tie vector
later, and both must pass. Only coordinates whose accumulator is
non-zero pin a bit, and only labels whose Hamming margin exceeds the
number of tied coordinates pin a class.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

#: Served classify accuracy may trail the in-process reference by this
#: much before the run counts as wrong (tie-broken rows may flip).
ACCURACY_TOLERANCE = 0.05

#: Paper-claim bounds, as the repository's own tests state them.
TABLE1_ACCURACY_GAP = 0.15
FIG8_ACCURACY_DROP = 0.25
FIG6_SEPARATION = 0.3
FIG5_CORRECT_SCORE = 0.1

#: At-rest key size may exceed the information floor by this factor.
KEY_BYTES_FACTOR = 1.25


def hex_to_bits(text: str, dim: int) -> np.ndarray:
    """Decode one served ``packed_hex`` row to ``dim`` bits (1 means +1).

    The wire carries big-endian uint64 words whose in-memory
    (little-endian) bytes are MSB-first sign bits.
    """
    words = np.frombuffer(bytes.fromhex(text), dtype=">u8").astype("<u8")
    return np.unpackbits(words.view(np.uint8), count=dim).astype(bool)


def encode_matches(served_bits: np.ndarray, accumulator: np.ndarray) -> bool:
    """Served bits equal sign(accumulator) wherever it is non-zero."""
    pinned = accumulator != 0
    return bool(np.array_equal(served_bits[pinned], accumulator[pinned] > 0))


def certain_label(accumulator: np.ndarray, class_bits: np.ndarray) -> int | None:
    """The class any tie-break must pick, or None when ties could flip it.

    Served distances differ from the non-tie distances by at most the
    number of tied coordinates ``T``, so the nearest class is fixed when
    every other class is more than ``T`` further away.
    """
    pinned = accumulator != 0
    ties = int(np.count_nonzero(~pinned))
    signs = accumulator > 0
    distances = np.count_nonzero(
        (class_bits != signs[None, :]) & pinned[None, :], axis=1
    )
    best = int(np.argmin(distances))
    others = np.delete(distances, best)
    return best if bool((others > distances[best] + ties).all()) else None


def check_response(
    op: str,
    status: int,
    body: bytes,
    samples: list[int],
    reference: dict[str, Any] | None,
) -> str | None:
    """Why one served answer is wrong, or None when it is right.

    ``reference`` is None for the revoked tenant, which must refuse
    with 403 ``reason=revoked``; otherwise it holds the tenant's
    ``acc`` (pool accumulators), ``class_bits``, ``dim`` and
    ``n_classes``.
    """
    try:
        payload = json.loads(body)
    except ValueError:
        return f"status {status}: body is not JSON"
    if reference is None:
        if status != 403 or payload.get("reason") != "revoked":
            return f"revoked tenant answered {status} {payload.get('reason')!r}"
        return None
    if status != 200:
        return f"status {status}: {payload.get('error')}"
    if op == "encode":
        rows = payload.get("packed_hex", [])
        if len(rows) != len(samples):
            return f"{len(rows)} rows for {len(samples)} samples"
        for text, index in zip(rows, samples, strict=True):
            bits = hex_to_bits(text, reference["dim"])
            if not encode_matches(bits, reference["acc"][index]):
                return f"encode bits differ from sign(accumulator) for sample {index}"
        return None
    labels = payload.get("labels", [])
    if len(labels) != len(samples):
        return f"{len(labels)} labels for {len(samples)} samples"
    for label, index in zip(labels, samples, strict=True):
        if not 0 <= label < reference["n_classes"]:
            return f"label {label} out of range"
        pinned = reference["certain"][index]
        if pinned is not None and label != pinned:
            return f"label {label} where every tie-break gives {pinned}"
    return None


def check_suite(out_dir: Path) -> dict[str, list[str]]:
    """Paper-claim invariants over one ``python -m repro --out`` run.

    Returns the problems found, keyed by experiment name.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text())
    problems: dict[str, list[str]] = {}
    for name, status in manifest["experiments"].items():
        if status.get("status") != "run":
            problems[name] = [f"status {status.get('status')}"]
    if problems:
        return problems

    def data(name: str) -> dict:
        return json.loads((out_dir / f"{name}.json").read_text())["data"]

    table1 = []
    for row in data("table1")["rows"]:
        gap = abs(row["original_accuracy"] - row["recovered_accuracy"])
        if gap >= TABLE1_ACCURACY_GAP:
            table1.append(f"{row['benchmark']}: stolen-model accuracy gap {gap:.3f}")
    found = {
        "table1": table1,
        "fig8": _fig8_problems(data("fig8")),
        "fig5": _fig5_problems(data("fig5")),
        "fig6": _fig6_problems(data("fig6")),
        "arena": _arena_problems(data("arena")),
    }
    return {name: found[name] for name in found if found[name]}


def _fig8_problems(fig8: dict) -> list[str]:
    """Locked (L >= 1) accuracy stays within noise of unlocked (L = 0)."""
    problems = []
    base: dict[tuple, float] = {}
    for cell in fig8["cells"]:
        if cell["layers"] == 0:
            base[(cell["benchmark"], cell["binary"])] = cell["accuracy"]
    for cell in fig8["cells"]:
        key = (cell["benchmark"], cell["binary"])
        drop = base[key] - cell["accuracy"]
        if cell["layers"] > 0 and drop >= FIG8_ACCURACY_DROP:
            problems.append(f"{key} L={cell['layers']}: accuracy drop {drop:.3f}")
    return problems


def _separation(panel: dict) -> tuple[float, float]:
    """(correct score, gap to the best wrong guess); ``scores[0]`` is correct."""
    scores = np.asarray(panel["scores"], dtype=float)
    correct, wrong = scores[0], scores[1:]
    if panel["metric"] == "hamming":
        return float(correct), float(wrong.min() - correct)
    return float(correct), float(correct - wrong.max())


def _fig5_problems(fig5: dict) -> list[str]:
    problems = []
    for panel in fig5["panels"]:
        correct, gap = _separation(panel)
        if not (correct < FIG5_CORRECT_SCORE and gap > 0):
            problems.append(f"{panel['parameter']}/{panel['layer']}: not separated")
    return problems


def _fig6_problems(fig6: dict) -> list[str]:
    problems = []
    for panel in fig6["panels"]:
        correct, gap = _separation(panel)
        if not (abs(correct - 1.0) < 1e-6 and gap > FIG6_SEPARATION):
            problems.append(f"{panel['parameter']}/{panel['layer']}: not separated")
    return problems


def _arena_problems(arena: dict) -> list[str]:
    """``L >= 2`` holds against every attacker; some attacker breaks ``L = 1``."""
    problems = []
    broken_l1 = False
    for cell in arena["cells"]:
        if cell["layers"] >= 2 and cell["success_rate"] > 0:
            problems.append(
                f"{cell['attacker']} x {cell['defender']}: L={cell['layers']} broken"
            )
        if cell["layers"] == 1 and cell["success_rate"] == 1.0:
            broken_l1 = True
    if not broken_l1:
        problems.append("no attacker breaks any L=1 defender")
    return problems


def check_fleet(batch: Any, store: Any, device_ids: list[int]) -> list[str]:
    """Sampled keys read back equal; bytes per key near the floor."""
    problems = []
    for device in device_ids:
        indices, rotations = store.arrays(device)
        if not (
            np.array_equal(indices, batch.indices[device])
            and np.array_equal(rotations, batch.rotations[device])
        ):
            problems.append(f"device {device}: stored key differs from generated key")
    floor_bits = store.storage_floor_bits()
    if store.stride_bytes * 8 > KEY_BYTES_FACTOR * floor_bits:
        problems.append(
            f"{store.stride_bytes} B per key exceeds {KEY_BYTES_FACTOR}x the "
            f"{floor_bits}-bit floor"
        )
    return problems
