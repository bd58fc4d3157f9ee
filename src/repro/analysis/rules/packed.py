"""RL002 — the packed hot path stays packed, and stays narrow.

PRs 1–2 made binary hypervectors flow end to end as uint64 bit-planes:
``encode_batch_packed`` writes words directly and every consumer
(classifier predict/fit, attack scoring, serving) operates on packed
operands with **zero pack/unpack round-trips**
(``tests/encoding/test_packed_path.py`` pins the round-trip-free flow
and its ≥2x row-overhead gate). A stray ``np.packbits`` /
``np.unpackbits`` outside :mod:`repro.hv.packing` (the one home of
the pack/unpack primitives), or an
``.astype(np.int64/float64)`` widening of a packed array, silently
reintroduces the per-row cost the packed path exists to remove — and
passes every correctness test while doing it.

The dtype-promotion check is heuristic by necessity (a linter cannot
see dtypes): it fires when the receiver expression of an
``.astype(int64/float64)`` mentions ``packed``, the repo-wide naming
convention for word-packed arrays — which is also why the convention
must hold (satellite: keep packed operands named ``*packed*``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.rules.common import ImportMap, call_path

#: Modules allowed to call the numpy bit-packing primitives.
ALLOWED_MODULES = ("repro.hv.packing",)

_PACK_CALLS = frozenset({"numpy.packbits", "numpy.unpackbits"})

#: Wide dtypes that undo packing when a packed array is cast to them.
_WIDE_DTYPES = frozenset(
    {"numpy.int64", "numpy.float64", "int64", "float64", "int", "float"}
)

_PACKED_NAME_RE = re.compile(r"packed", re.IGNORECASE)


@register
class PackedHygieneRule(Rule):
    rule_id = "RL002"
    title = "packed-path hygiene"
    severity = "error"
    rationale = (
        "np.packbits/np.unpackbits belong to repro.hv.packing only, and "
        "packed word arrays must never be promoted to int64/float64: "
        "either one silently reintroduces the per-row conversion cost "
        "the packed hot path (PRs 1-2) removed, without failing any "
        "correctness test."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        in_allowed = ctx.in_package(*ALLOWED_MODULES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = call_path(imports, node)
            if path in _PACK_CALLS and not in_allowed:
                fn = path.removeprefix("numpy.")
                yield self.finding(
                    ctx,
                    node,
                    f"np.{fn} outside {ALLOWED_MODULES}: bit-domain "
                    f"conversion round-trips defeat the packed hot "
                    f"path; use the repro.hv.packing helpers or keep "
                    f"operands packed",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                yield from self._check_astype(ctx, imports, node)

    def _check_astype(
        self, ctx: ModuleContext, imports: ImportMap, node: ast.Call
    ) -> Iterator[Finding]:
        dtype = self._dtype_arg(imports, node)
        if dtype not in _WIDE_DTYPES:
            return
        assert isinstance(node.func, ast.Attribute)
        receiver = ast.unparse(node.func.value)
        if _PACKED_NAME_RE.search(receiver):
            yield self.finding(
                ctx,
                node,
                f"{receiver}.astype({dtype.removeprefix('numpy.')}) "
                f"promotes a packed word array to a wide dtype — an "
                f"8-64x memory blow-up that silently leaves the "
                f"packed domain; compute on uint64 words or go "
                f"through repro.hv.packing explicitly",
            )

    @staticmethod
    def _dtype_arg(imports: ImportMap, node: ast.Call) -> str | None:
        """Canonical dtype named by the first astype argument."""
        args = list(node.args)
        for kw in node.keywords:
            if kw.arg == "dtype":
                args.insert(0, kw.value)
        if not args:
            return None
        arg = args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return imports.resolve(arg)
