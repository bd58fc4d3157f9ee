"""Span-based tracing with contextvars-propagated request IDs.

The serving stack coalesces concurrent requests into shared batch
calls, so "which request is this work for?" is not answerable from the
call stack — it has to ride task-local context. This module keeps that
context in two :class:`contextvars.ContextVar` slots:

* the **request ID** assigned by the ASGI middleware (echoed back as
  ``x-request-id``), readable from anywhere downstream via
  :func:`current_request_id`;
* the **span stack**, so nested :func:`span` blocks record their
  parent and a trace reads as a tree.

Spans measure with ``time.perf_counter`` (monotonic) and record into a
plain :class:`SpanRecorder` — a list of picklable dicts, deliberately
shaped so the experiment runner can file a shard's spans under the
manifest's *volatile* ``timing`` section whether the shard ran in the
runner's own process (one worker) or came back through the spawn-based
process pool (two or more). Artifacts never see them, which is what
keeps outputs byte-identical whether tracing is on or off.

Everything is a no-op when no recorder is passed: library code calls
``span(name, recorder)`` unconditionally and pays one ``is None`` check
when observability is off.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "SpanRecorder",
    "current_request_id",
    "new_request_id",
    "reset_request_id",
    "sanitize_request_id",
    "set_request_id",
    "span",
]

#: Request ID for the current asyncio task / thread, or None.
_request_id: ContextVar[str | None] = ContextVar("repro_request_id", default=None)

#: Names of the spans currently open in this context (innermost last).
_span_stack: ContextVar[tuple[str, ...]] = ContextVar(
    "repro_span_stack", default=()
)

#: Monotonic per-process sequence — no wall clock, no randomness, so
#: ID generation stays off reprolint RL001's radar and is cheap.
_sequence = itertools.count(1)

#: Clients may supply their own x-request-id; accept only a safe shape
#: so a hostile header can't smuggle newlines into logs or metrics.
_SAFE_REQUEST_ID = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def new_request_id() -> str:
    """A process-unique request ID: ``req-<pid hex>-<seq hex>``."""
    return f"req-{os.getpid():x}-{next(_sequence):08x}"


def sanitize_request_id(candidate: str | None) -> str:
    """A client-supplied ID if it is shaped safely, else a fresh one."""
    if candidate is not None and _SAFE_REQUEST_ID.match(candidate):
        return candidate
    return new_request_id()


def set_request_id(request_id: str) -> object:
    """Bind the request ID for this context; returns a reset token."""
    return _request_id.set(request_id)


def reset_request_id(token: object) -> None:
    _request_id.reset(token)  # type: ignore[arg-type]


def current_request_id() -> str | None:
    """The request ID bound to the calling context, if any."""
    return _request_id.get()


class SpanRecorder:
    """Collects finished spans as picklable dicts.

    The record shape is deliberately JSON/pickle-plain so shards can
    return their spans from the runner's own process (one worker) or
    through a spawn process pool (two or more) alike, and the runner
    can file them into the manifest's volatile timing section.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    def record(
        self,
        name: str,
        parent: str | None,
        elapsed_s: float,
        request_id: str | None,
    ) -> None:
        self.spans.append(
            {
                "name": name,
                "parent": parent,
                "elapsed_s": elapsed_s,
                "request_id": request_id,
            }
        )

    def drain(self) -> list[dict[str, Any]]:
        """Hand off the recorded spans and start empty."""
        spans, self.spans = self.spans, []
        return spans


@contextmanager
def span(name: str, recorder: SpanRecorder | None) -> Iterator[None]:
    """Time a block; no-op (and near-free) when recorder is None."""
    if recorder is None:
        yield
        return
    stack = _span_stack.get()
    parent = stack[-1] if stack else None
    token = _span_stack.set(stack + (name,))
    request_id = _request_id.get()
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        _span_stack.reset(token)
        recorder.record(name, parent, elapsed, request_id)
