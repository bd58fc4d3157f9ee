"""Seeded random-number-generator helpers.

All stochastic code in this library takes a ``seed`` argument that may be
``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`. :func:`resolve_rng` normalizes the three
forms so call sites never branch, and :func:`spawn_rngs` derives
independent child generators for sub-components (e.g. one stream for the
feature memory, one for the value memory, one for the key) so
experiments stay reproducible even when intermediate steps are reordered.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Seed used by the experiment modules when the caller does not pick one.
DEFAULT_SEED = 0x4D1C

SeedLike = Union[None, int, np.random.Generator]


def resolve_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` draws fresh OS entropy, an ``int`` seeds a new PCG64 stream,
    and an existing generator is passed through unchanged (so callers can
    share one stream across several helpers).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable parts.

    Python's built-in ``hash`` is salted per process, so experiment code
    that needs "one reproducible stream per (seed, benchmark, flavor)"
    derives it from a SHA-256 of the repr instead.
    """
    import hashlib

    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn`, so the children are
    independent of each other *and* of the parent's future output.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return resolve_rng(seed).spawn(count)
