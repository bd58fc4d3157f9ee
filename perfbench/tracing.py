"""Span tracing installed from outside the program.

A :class:`Tracer` wraps public callables of ``repro`` (functions and
methods) so each call records one span: ``id``, ``name``, ``parent``,
``start``, ``end``, ``request_id`` (read back through
``repro.obs.trace.current_request_id``) and an optional work count ``n``
computed from the call's arguments. Spans stay in memory until the run
ends. Nothing under ``src/`` changes: functions imported by name into
other modules are replaced in every loaded ``repro.*`` namespace that
holds them.

A call whose innermost open span has the same name records no second
span, so overrides that delegate to ``super()`` and recursive helpers
are counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from contextvars import ContextVar
from typing import Any, Callable, Iterable

#: Open spans of the calling context, innermost last, as (id, name).
_stack: ContextVar[tuple[tuple[str, str], ...]] = ContextVar(
    "perfbench_span_stack", default=()
)


def _request_id() -> str | None:
    trace = sys.modules.get("repro.obs.trace")
    return trace.current_request_id() if trace is not None else None


class Tracer:
    """In-memory span sink plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid():x}"
        #: Targets that could not be resolved in this program version.
        self.missing: list[str] = []

    def _open(self, name: str) -> tuple[dict[str, Any], Any] | None:
        stack = _stack.get()
        if stack and stack[-1][1] == name:
            return None
        span_id = f"{self._prefix}.{next(self._ids)}"
        record = {
            "id": span_id,
            "name": name,
            "parent": stack[-1][0] if stack else None,
            "request_id": _request_id(),
            "start": time.perf_counter(),
        }
        return record, _stack.set(stack + ((span_id, name),))

    def _close(self, opened: tuple[dict[str, Any], Any]) -> None:
        record, token = opened
        record["end"] = time.perf_counter()
        _stack.reset(token)
        self.spans.append(record)

    def wrap(
        self,
        func: Callable,
        name: str,
        count: Callable[..., int] | None = None,
        attrs: Callable[..., dict] | None = None,
    ) -> Callable:
        """A traced stand-in for ``func`` (coroutine functions stay async)."""

        def annotate(record: dict, args: tuple, kwargs: dict) -> None:
            if count is not None:
                record["n"] = int(count(*args, **kwargs))
            if attrs is not None:
                record.update(attrs(*args, **kwargs))

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                opened = self._open(name)
                if opened is None:
                    return await func(*args, **kwargs)
                annotate(opened[0], args, kwargs)
                try:
                    return await func(*args, **kwargs)
                finally:
                    self._close(opened)

            return traced_async

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = self._open(name)
            if opened is None:
                return func(*args, **kwargs)
            annotate(opened[0], args, kwargs)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(opened)

        return traced

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap every ``(module, qualname, span_name[, count[, attrs]])``.

        ``qualname`` is ``func`` or ``Class.method``. A target missing
        from this version of the program is skipped and listed in
        :attr:`missing`, so its metrics read 0 instead of the run failing.
        """
        for module_name, qualname, name, *extra in targets:
            count = extra[0] if extra else None
            attrs = extra[1] if len(extra) > 1 else None
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if owner_name:
                setattr(owner, attr, self.wrap(original, name, count, attrs))
                continue
            traced = self.wrap(original, name, count, attrs)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may overlap (concurrent tasks), so their
    intervals are clipped to the parent and merged before subtracting.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for record in spans:
        if record.get("parent") is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    out: dict[str, float] = {}
    for record in spans:
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(record["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[record["id"]] = (end - start) - covered
    return out


def summarize(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, work count ``n``, total and self seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for record in spans:
        row = table.setdefault(
            record["name"], {"calls": 0, "n": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["n"] += record.get("n", 0)
        row["total_s"] += record["end"] - record["start"]
        row["self_s"] += own[record["id"]]
    return table
