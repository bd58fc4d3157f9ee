"""Request parsing and response shaping for the serving surface.

Requests are plain JSON; responses are dataclasses with ``to_dict()``
(the same schema-stability discipline as
:mod:`repro.experiments.records`). Parsing raises
:class:`~repro.serving.errors.RequestValidationError` (→ 422) on any
contract violation it can see without an encoder; shape mismatches
against a *specific* tenant surface later as
:class:`~repro.errors.DimensionMismatchError` from the encoder itself,
which the adapter also maps to 422.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Final

import numpy as np

from repro.serving.errors import RequestValidationError

__all__ = [
    "MAX_ROWS_PER_REQUEST",
    "ClassifyResponse",
    "EncodeResponse",
    "HealthResponse",
    "TenantDescriptor",
    "hex_to_packed_row",
    "packed_rows_to_hex",
    "parse_samples",
]

#: Upper bound on rows per request — one request must not monopolize the
#: batcher window (heavy traffic is many small requests, not one giant).
MAX_ROWS_PER_REQUEST: Final[int] = 4096


def parse_samples(payload: Any) -> np.ndarray:
    """Extract a ``(B, N)`` int64 level matrix from a request body.

    Accepts ``{"sample": [..]}`` (one row) or ``{"samples": [[..], ..]}``
    and rejects everything else loudly: ragged rows, non-integer
    entries, empty batches, oversize batches. Negative / out-of-range
    levels are left to the encoder's own validation so the error message
    can name the tenant's actual level count.
    """
    if not isinstance(payload, dict):
        raise RequestValidationError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    if ("sample" in payload) == ("samples" in payload):
        raise RequestValidationError(
            "request must carry exactly one of 'sample' (one row) or "
            "'samples' (a batch)"
        )
    rows = [payload["sample"]] if "sample" in payload else payload["samples"]
    if not isinstance(rows, list) or not rows:
        raise RequestValidationError("'samples' must be a non-empty JSON array")
    if len(rows) > MAX_ROWS_PER_REQUEST:
        raise RequestValidationError(
            f"request carries {len(rows)} rows, limit is "
            f"{MAX_ROWS_PER_REQUEST}; split the batch"
        )
    widths = set()
    for row in rows:
        if not isinstance(row, list) or not row:
            raise RequestValidationError(
                "each sample must be a non-empty JSON array of integer levels"
            )
        widths.add(len(row))
        for value in row:
            # bool is an int subclass; a JSON true/false row is a bug.
            if not isinstance(value, int) or isinstance(value, bool):
                raise RequestValidationError(
                    f"sample entries must be integer level indices, got "
                    f"{value!r}"
                )
    if len(widths) != 1:
        raise RequestValidationError(
            f"samples are ragged: row lengths {sorted(widths)}"
        )
    return np.asarray(rows, dtype=np.int64)


@dataclass(frozen=True)
class HealthResponse:
    """``/healthz`` body."""

    status: str
    version: str
    tenants: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "version": self.version,
            "tenants": self.tenants,
        }


@dataclass(frozen=True)
class TenantDescriptor:
    """One entry of the ``/v1/models`` listing."""

    name: str
    dim: int
    n_features: int
    levels: int
    n_classes: int
    layers: int
    pool_size: int
    device_id: int
    generation: int
    revoked: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dim": self.dim,
            "n_features": self.n_features,
            "levels": self.levels,
            "n_classes": self.n_classes,
            "layers": self.layers,
            "pool_size": self.pool_size,
            "device_id": self.device_id,
            "generation": self.generation,
            "revoked": self.revoked,
        }


@dataclass(frozen=True)
class ClassifyResponse:
    """``/v1/{tenant}/classify`` body."""

    tenant: str
    labels: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"tenant": self.tenant, "labels": list(self.labels)}


@dataclass(frozen=True)
class EncodeResponse:
    """``/v1/{tenant}/encode`` body.

    Hypervectors travel in the packed bit domain end to end: each row is
    the hex encoding of the big-endian bytes of its ``ceil(D/64)``
    uint64 words — exactly what ``encode_batch_packed`` produced, no
    unpacking server-side. ``dim`` tells the client how many of the
    trailing bits are padding.
    """

    tenant: str
    dim: int
    packed_hex: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "dim": self.dim,
            "packed_hex": list(self.packed_hex),
        }


def packed_rows_to_hex(packed: np.ndarray) -> tuple[str, ...]:
    """Hex-encode ``(B, W)`` uint64 packed rows (big-endian words)."""
    rows = np.ascontiguousarray(packed.astype(">u8", copy=False))
    return tuple(bytes(row.tobytes()).hex() for row in rows)


def hex_to_packed_row(text: str) -> np.ndarray:
    """Inverse of :func:`packed_rows_to_hex` for one row (client helper)."""
    raw = bytes.fromhex(text)
    if len(raw) % 8:
        raise RequestValidationError(
            f"packed hex length {len(text)} is not a whole number of words"
        )
    return np.frombuffer(raw, dtype=">u8").astype(np.uint64)
