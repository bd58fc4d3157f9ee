"""RL001 — every random draw flows through a seeded ``Generator``.

The repo's reproducibility contract (golden-seed SHA-256 digests,
``--jobs``-invariant artifact bytes, bit-identical serving replicas)
holds only if *all* randomness derives from an explicit seed threaded
through ``numpy.random.SeedSequence`` / ``default_rng`` — the
discipline of :mod:`repro.utils.rng`. Three escape hatches would pass
the test suite while silently breaking byte-parity in production:

* the legacy ``numpy.random.*`` module-level functions, which draw
  from hidden global state (``np.random.rand``, ``np.random.seed``…);
* the stdlib :mod:`random` module, seeded from OS entropy at import;
* seeding an otherwise-correct generator from the wall clock
  (``default_rng(time.time_ns())``), which makes every run unique.

RL001 flags all three, everywhere the linter runs (library, tests,
examples): an unseeded draw in a test or an example breaks run-to-run
comparability just as surely as one in ``src/repro``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.rules.common import ImportMap, call_path, contains_call_to

#: Legacy global-state entry points of ``numpy.random``. The modern
#: seeded surface (``default_rng``, ``Generator``, ``SeedSequence``,
#: bit generators) is the sanctioned path and is not listed.
_LEGACY_NP_RANDOM = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "get_state",
        "hypergeometric",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "negative_binomial",
        "normal",
        "pareto",
        "permutation",
        "poisson",
        "power",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "rayleigh",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
        "RandomState",
    }
)

#: Callables that accept a seed; a wall-clock argument anywhere in the
#: call makes the run non-reproducible.
_SEEDING_CALLS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "repro.utils.rng.resolve_rng",
        "repro.utils.rng.spawn_rngs",
        "random.seed",
        "random.Random",
    }
)

#: Wall-clock sources that must never feed a seed.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class DeterminismRule(Rule):
    rule_id = "RL001"
    title = "determinism"
    severity = "error"
    rationale = (
        "All randomness must flow through an explicitly seeded "
        "numpy Generator (repro.utils.rng); legacy numpy.random.* "
        "globals, the stdlib random module, and time-derived seeds "
        "break golden-seed digests and artifact byte-parity."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib 'random' is seeded from OS entropy; "
                            "use repro.utils.rng.resolve_rng / a seeded "
                            "numpy Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (
                    node.module == "random"
                    or (node.module or "").startswith("random.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib 'random' is seeded from OS entropy; "
                        "use repro.utils.rng.resolve_rng / a seeded "
                        "numpy Generator instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, imports, node)

    def _check_call(
        self, ctx: ModuleContext, imports: ImportMap, node: ast.Call
    ) -> Iterator[Finding]:
        path = call_path(imports, node)
        if path is None:
            return
        if path.startswith("numpy.random."):
            fn = path.removeprefix("numpy.random.")
            if fn in _LEGACY_NP_RANDOM:
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.{fn} draws from hidden global state; "
                    f"thread a seeded np.random.Generator "
                    f"(repro.utils.rng.resolve_rng) instead",
                )
        elif path == "random" or path.startswith("random."):
            # Surviving references to stdlib random (the import itself
            # is flagged above; calls catch `from random import rand`).
            fn = path.removeprefix("random.")
            if fn and "." not in fn and fn[0].islower():
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib random.{fn} draws from process-global "
                    f"state; use a seeded numpy Generator instead",
                )
            return
        if path in _SEEDING_CALLS:
            clock = contains_call_to(imports, node, _CLOCK_CALLS)
            if clock is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"time-derived seed "
                    f"({ast.unparse(clock)}) makes every run unique; "
                    f"seeds must be explicit constants or SeedSequence "
                    f"children",
                )
