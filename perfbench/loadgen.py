"""Open-loop Poisson load over keep-alive HTTP/1.1 sockets.

Arrivals follow a seeded schedule regardless of how fast the server
answers (independent users, so an open loop). Requests wait in one
client-side FIFO for the first free connection; a request's latency is
timed from when it was *due*, so a stall also charges the wait it
imposes on the requests behind it. ``late`` records how far behind its
own schedule the generator itself ran.
"""

from __future__ import annotations

import asyncio
import gc
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RequestKind:
    """One entry of the traffic mix."""

    tenant: str
    op: str
    rows: int
    weight: float


@dataclass
class Planned:
    """One scheduled request: when it is due and what it carries."""

    due: float
    kind: int
    samples: tuple[int, ...]
    request_id: str
    wire: bytes = b""


@dataclass
class Outcome:
    planned: Planned
    status: int = 0
    body: bytes = b""
    sent: float = 0.0
    done: float = 0.0
    late: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from due time to the last response byte."""
        return self.done - self.planned.due


@dataclass
class PhaseResult:
    outcomes: list[Outcome]
    #: True when the client queue grew past the backlog cap (aborted).
    backlog: bool
    late: list[float] = field(default_factory=list)


def schedule(
    seed: int,
    phase: int,
    rate: float,
    duration: float,
    mix: Sequence[RequestKind],
    pool_sizes: dict[str, int],
) -> list[Planned]:
    """Seeded Poisson arrivals at ``rate`` for ``duration`` seconds.

    Each arrival draws its kind from ``mix`` and its sample rows from
    the tenant's labelled pool (indices into it). Same seed and phase,
    same list.
    """
    gen = np.random.default_rng([seed, phase])
    expected = int(rate * duration * 1.5) + 16
    gaps = gen.exponential(1.0 / rate, size=expected)
    dues = np.cumsum(gaps)
    dues = dues[dues < duration]
    weights = np.array([k.weight for k in mix], dtype=float)
    kinds = gen.choice(len(mix), size=dues.size, p=weights / weights.sum())
    planned = []
    for index, (due, kind) in enumerate(zip(dues, kinds, strict=True)):
        spec = mix[int(kind)]
        rows = gen.integers(0, pool_sizes[spec.tenant], size=spec.rows)
        planned.append(
            Planned(
                due=float(due),
                kind=int(kind),
                samples=tuple(int(r) for r in rows),
                request_id=f"pb-{seed}-{phase}-{index}",
            )
        )
    return planned


def encode_wire(
    planned: list[Planned],
    mix: Sequence[RequestKind],
    pools: dict[str, np.ndarray],
) -> None:
    """Serialize each request once, before the clock starts."""
    for item in planned:
        spec = mix[item.kind]
        rows = pools[spec.tenant][list(item.samples)].tolist()
        payload = {"sample": rows[0]} if spec.rows == 1 else {"samples": rows}
        body = json.dumps(payload, separators=(",", ":")).encode()
        head = (
            f"POST /v1/{spec.tenant}/{spec.op} HTTP/1.1\r\n"
            f"host: bench\r\ncontent-type: application/json\r\n"
            f"x-request-id: {item.request_id}\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode()
        item.wire = head + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _run(
    host: str,
    port: int,
    planned: list[Planned],
    connections: int,
    backlog_cap: int,
) -> PhaseResult:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    backlog = False
    streams = [
        await asyncio.open_connection(host, port) for _ in range(connections)
    ]
    start = loop.time() + 0.01

    async def dispatch() -> None:
        nonlocal backlog
        for item in planned:
            delay = start + item.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if queue.qsize() > backlog_cap:
                backlog = True
                break
            outcome = Outcome(planned=item, late=max(0.0, loop.time() - start - item.due))
            outcomes.append(outcome)
            queue.put_nowait(outcome)
        for _ in streams:
            queue.put_nowait(None)

    async def worker(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while (outcome := await queue.get()) is not None:
            outcome.sent = loop.time() - start
            writer.write(outcome.planned.wire)
            await writer.drain()
            outcome.status, outcome.body = await _read_response(reader)
            outcome.done = loop.time() - start

    try:
        await asyncio.gather(dispatch(), *(worker(r, w) for r, w in streams))
    finally:
        for _, writer in streams:
            writer.close()
            await writer.wait_closed()
    return PhaseResult(outcomes=outcomes, backlog=backlog, late=[o.late for o in outcomes])


def run_phase(
    host: str,
    port: int,
    planned: list[Planned],
    connections: int,
    backlog_cap: int,
) -> PhaseResult:
    """Send ``planned`` on its schedule; block until every answer is in.

    The generator's own garbage collector is paused for the phase: a full
    collection of this process's heap stalls the dispatch loop for tens
    of milliseconds, which the due-time clock would charge to the server.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_run(host, port, planned, connections, backlog_cap))
    finally:
        gc.enable()


async def _get(host: str, port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    return asyncio.run(_get(host, port, path))
