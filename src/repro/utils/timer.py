"""Wall-clock timing helpers used by the reasoning-time experiments."""

from __future__ import annotations

import time


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    Example::

        with Timer() as t:
            run_attack()
        print(t.elapsed)
    """

    def __init__(self) -> None:
        self.start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self.start
