"""reprolint — AST-based invariant linter for the HDLock reproduction.

Why a bespoke linter
--------------------

The repo's headline guarantees are *invariants*, not behaviors, and
the test suite can only spot-check them: a violation typically passes
every tier-1 test while breaking the guarantee in production. Each
rule mechanically enforces one such invariant on every push (the
blocking ``static-analysis`` CI job), the way HDXplore automates
differential probing instead of relying on manual inspection:

``RL001`` **determinism** — bit-identical artifacts (golden-seed
    SHA-256 digests in ``tests/integration/test_golden_seed.py``,
    ``--jobs``-invariant artifact bytes in
    ``tests/experiments/test_runner_artifacts.py``-style parity tests,
    bit-identical serving replicas) require every random draw to flow
    through a seeded ``SeedSequence``-derived ``Generator``. One stray
    ``np.random.rand``, stdlib ``random`` use, or wall-clock seed
    silently voids all of them.

``RL002`` **packed-path hygiene** — the PR 1–2 packed hot path
    (``tests/encoding/test_packed_path.py`` pins zero pack/unpack
    round-trips and the ≥2x row-overhead gate) dies by a thousand
    cuts: one ``np.packbits`` round-trip or one ``.astype(int64)``
    promotion of a packed array quietly restores the per-row cost.
    Conversion primitives live in ``repro.hv.packing`` only.

``RL003`` **async-safety** — the micro-batcher's flush
    (``tests/serving`` batcher bit-parity tests) runs on the event
    loop thread; any blocking call in an
    ``async def`` stalls every in-flight request and stretches the
    p95/p99 tails perfbench's ``serve`` workload measures.

``RL004`` **error taxonomy** — ``repro.serving`` and ``repro.hdlock``
    are public boundaries whose exception *types* are the API (the
    HTTP status mapping table, the provisioning tamper-matrix tests).
    Bare builtin raises surface as anonymous 500s; swallowed broad
    excepts hide runner failures.

``RL005`` **resource safety** — handles acquired outside ``with``
    need a deterministic release path (paired ``close()`` in a
    ``finally``, ownership transfer, or an owning class with a
    ``close``/``__exit__`` lifecycle); leaked descriptors accumulate
    to ``EMFILE`` in the long-running serving process.

Running it
----------

.. code-block:: console

    $ PYTHONPATH=src python -m repro.analysis src tests examples
    $ PYTHONPATH=src python -m repro.analysis --format json src
    $ PYTHONPATH=src python -m repro.analysis --list-rules

Suppressions are per-line, must name the rule, and must carry a
justification (see :mod:`repro.analysis.suppressions`)::

    np.packbits(codes)  # reprolint: disable=RL002 -- key-code records

A suppression that matches nothing, or carries no ``--`` justification,
is itself a finding (``RL000``), so stale excuses cannot pile up.
"""

from __future__ import annotations

import repro.analysis.rules  # noqa: F401  (populate the registry)
from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    infer_module,
    lint_file,
    lint_source,
    register,
)
from repro.analysis.reporting import render
from repro.analysis.suppressions import SUPPRESSION_HYGIENE_ID

__all__ = [
    "SUPPRESSION_HYGIENE_ID",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "infer_module",
    "lint_file",
    "lint_source",
    "register",
    "render",
]
