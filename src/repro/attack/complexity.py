"""Analytic attack-complexity formulas (paper Sec. 4.2 / 5.2, Fig. 7).

All counts use exact Python integers — ``(D * P)^L`` overflows any fixed
width long before ``L = 5`` — and are only converted to floats at the
presentation layer.

Reference points quoted in the paper for MNIST (``N = P = 784``,
``D = 10,000``):

* unprotected divide-and-conquer: ``N^2 = 6.15e5`` guesses;
* HDLock ``L = 1``: ``N * D * P = 6.15e9``;
* HDLock ``L = 2``: ``N * (D * P)^2 = 4.81e16`` — a ``7.82e10``-fold
  increase over unprotected.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


def plain_total_guesses(n_features: int) -> int:
    """Total divide-and-conquer cost on an unprotected model: ``N^2``."""
    _check_positive(n_features=n_features)
    return n_features * n_features


def hdlock_guesses_per_feature(dim: int, pool_size: int, layers: int) -> int:
    """Guesses to reason one HDLock feature: ``(D * P)^L`` (Sec. 4.2)."""
    _check_positive(dim=dim, pool_size=pool_size, layers=layers)
    return (dim * pool_size) ** layers


def hdlock_total_guesses(
    n_features: int, dim: int, pool_size: int, layers: int
) -> int:
    """Total HDLock reasoning cost: ``N * (D * P)^L`` (Sec. 5.2)."""
    _check_positive(n_features=n_features)
    return n_features * hdlock_guesses_per_feature(dim, pool_size, layers)


def security_improvement(
    n_features: int, dim: int, pool_size: int, layers: int
) -> float:
    """HDLock cost over unprotected cost — the paper's "10 orders of
    magnitude" headline is this ratio at ``L = 2`` on MNIST."""
    return hdlock_total_guesses(n_features, dim, pool_size, layers) / float(
        plain_total_guesses(n_features)
    )


def guesses_vs_dim_and_pool(
    dims: Sequence[int],
    pool_sizes: Sequence[int],
    layers: int = 2,
) -> list[tuple[int, int, int]]:
    """The Fig. 7a surface: per-feature guesses over a ``D x P`` grid.

    Returns ``(dim, pool_size, guesses)`` triples in row-major order.
    """
    return [
        (d, p, hdlock_guesses_per_feature(d, p, layers))
        for d in dims
        for p in pool_sizes
    ]


def guesses_vs_layers(
    layer_range: Iterable[int],
    pool_sizes: Sequence[int],
    dim: int = 10_000,
) -> dict[int, list[tuple[int, int]]]:
    """The Fig. 7b curves: per-feature guesses vs ``L``, one curve per
    ``P``. Returns ``{pool_size: [(layers, guesses), ...]}``."""
    return {
        p: [(l, hdlock_guesses_per_feature(dim, p, l)) for l in layer_range]
        for p in pool_sizes
    }


def reasoning_seconds_estimate(
    total_guesses: int, per_guess_seconds: float
) -> float:
    """Wall-clock estimate for a guess budget.

    The paper notes guess counts "align with the time consumption if each
    guess costs approximately equal time"; this converts one measured
    per-guess cost into the projected attack duration (used to show the
    HDLock attack is computationally infeasible).
    """
    if per_guess_seconds < 0:
        raise ConfigurationError(
            f"per_guess_seconds must be >= 0, got {per_guess_seconds}"
        )
    return total_guesses * per_guess_seconds
