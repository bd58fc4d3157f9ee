"""RL003 — nothing blocks the event loop that serving correctness rides on.

The micro-batcher runs its batch flushes *synchronously on the loop
thread* (bit-parity with per-request serving is pinned by
``tests/serving/test_batcher.py``). That design makes the loop
latency-critical: one blocking call inside
any ``async def`` — a ``time.sleep`` instead of ``asyncio.sleep``, a
synchronous ``open``/``subprocess``/socket call, an mmap flush — stalls
every in-flight request and widens the batching window from
milliseconds to whatever the call took, which is exactly the tail
latency ``BENCH_serving.json`` trends against.

The rule flags known-blocking calls whose innermost enclosing function
is ``async def`` (a sync helper *defined* inside an async function runs
wherever it is called, so it is not flagged). It applies to every
file: async code outside ``repro.serving`` — tests, benches, the load
driver — shares the same loop discipline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.rules.common import ImportMap, call_path

#: Canonical callables that block the calling thread.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "open",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "mmap.mmap",
        "numpy.memmap",
        "urllib.request.urlopen",
        "input",
    }
)

#: Blocking *methods* — matched by attribute name since the receiver's
#: type is unknown; names chosen to be unambiguous in this codebase
#: (pathlib I/O and mmap/file flush-to-disk).
_BLOCKING_METHODS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
    }
)


@register
class AsyncSafetyRule(Rule):
    rule_id = "RL003"
    title = "async-safety"
    severity = "error"
    rationale = (
        "Blocking calls (time.sleep, file open, sockets, subprocess, "
        "mmap) inside async def stall the event loop the micro-batcher "
        "flushes on, stretching every co-batched request's latency and "
        "the deterministic arrival-order flush window."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        # Walk with an explicit function stack so only calls whose
        # *innermost* function scope is async are flagged.
        yield from self._visit_body(ctx, imports, ctx.tree.body, False)

    def _visit_body(
        self,
        ctx: ModuleContext,
        imports: ImportMap,
        body: list[ast.stmt],
        in_async: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._visit_node(ctx, imports, stmt, in_async)

    def _visit_node(
        self,
        ctx: ModuleContext,
        imports: ImportMap,
        node: ast.AST,
        in_async: bool,
    ) -> Iterator[Finding]:
        if isinstance(node, ast.AsyncFunctionDef):
            yield from self._visit_body(ctx, imports, node.body, True)
            return
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            body = (
                node.body
                if isinstance(node.body, list)
                else [ast.Expr(node.body)]
            )
            yield from self._visit_body(ctx, imports, body, False)
            return
        if isinstance(node, ast.Call) and in_async:
            yield from self._check_call(ctx, imports, node)
        for child in ast.iter_child_nodes(node):
            yield from self._visit_node(ctx, imports, child, in_async)

    def _check_call(
        self, ctx: ModuleContext, imports: ImportMap, node: ast.Call
    ) -> Iterator[Finding]:
        path = call_path(imports, node)
        if path is not None and path in _BLOCKING_CALLS:
            yield self.finding(
                ctx,
                node,
                f"blocking call {path}() inside async def stalls the "
                f"event loop (and every co-batched request); move it "
                f"before the async path or run it in an executor",
            )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BLOCKING_METHODS
        ):
            yield self.finding(
                ctx,
                node,
                f"blocking file I/O .{node.func.attr}() inside async "
                f"def stalls the event loop; do file work before "
                f"serving starts or hand it to an executor",
            )
