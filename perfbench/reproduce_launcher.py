"""Traced runner: ``python -m perfbench.reproduce_launcher <python -m repro args>``.

Swaps the runner's per-unit entry point for
:func:`perfbench.reproduce.traced_execute_shard` before its process pool
starts, so every spawned worker traces the kernel and attack layers
from outside the program. Everything else is the runner's own CLI.
"""

from __future__ import annotations

import sys

from perfbench.reproduce import traced_execute_shard


def main() -> int:
    from repro.experiments import runner

    runner._execute_shard = traced_execute_shard
    return runner.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
