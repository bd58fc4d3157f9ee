"""Attack-cost scaling: divide-and-conquer work vs model width N.

The paper states the divide-and-conquer complexity is O(N^2); Table 1's
timings across the five benchmarks follow it. This bench runs the
attack on a family of models with growing N (same D, M) and checks the
fitted growth exponent of its work lands near 2 (between linear and
cubic).

The gated work measure is the executed guess count, the quantity the
O(N^2) claim counts; it is exact, so the gate is deterministic. Wall
time is reported beside it but not gated: at these N it is dominated by
per-query and per-candidate-row terms that grow linearly (a 2-core x86
host fits ~0.9 over the whole attack, and ~1.1 over the greedy
elimination alone on a precomputed score matrix, where a fixed per-row
cost outweighs the O(N) row scan below N ~ 2000).
"""

from __future__ import annotations

import math

from repro.attack.pipeline import run_reasoning_attack
from repro.attack.threat_model import expose_model
from repro.encoding.record import RecordEncoder
from repro.utils.timer import Timer

WIDTHS = (64, 128, 256, 512)
M = 8


def _attack(n: int, dim: int) -> tuple[int, float]:
    """Guesses executed and seconds spent attacking one width-``n`` model."""
    encoder = RecordEncoder.random(n, M, dim, rng=n)
    surface, _ = expose_model(encoder, binary=True, rng=n + 1)
    with Timer() as t:
        result = run_reasoning_attack(surface)
    return result.total_guesses, t.elapsed


def _exponent(series: dict[int, float]) -> float:
    """Fit ``log(y) ~ alpha * log(N)`` over the widest span of WIDTHS."""
    return math.log(series[WIDTHS[-1]] / series[WIDTHS[0]]) / math.log(
        WIDTHS[-1] / WIDTHS[0]
    )


def test_attack_scaling_quadratic(benchmark, bench_scale):
    """Run the attack across N in WIDTHS and fit the work exponent."""

    def run():
        return {n: _attack(n, bench_scale.dim) for n in WIDTHS}

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    guesses = {n: g for n, (g, _) in runs.items()}
    times = {n: s for n, (_, s) in runs.items()}
    print()
    for n in WIDTHS:
        print(f"  N={n:4d}: {guesses[n]:7d} guesses {times[n] * 1e3:8.1f} ms")
    alpha = _exponent(guesses)
    time_alpha = _exponent(times)
    print(f"  fitted exponent: {alpha:.2f} (theory: 2.0)")
    print(f"  wall-time exponent (not gated): {time_alpha:.2f}")
    assert 1.2 < alpha < 3.0
    benchmark.extra_info["exponent"] = round(alpha, 3)
    benchmark.extra_info["time_exponent"] = round(time_alpha, 3)
    benchmark.extra_info["guesses"] = guesses
    benchmark.extra_info["times_ms"] = {
        n: round(s * 1e3, 1) for n, s in times.items()
    }


def test_guess_budget_matches_formula(benchmark, bench_scale):
    """The executed guess count equals the N(N+1)/2 divide-and-conquer
    budget the O(N^2) claim counts."""

    def run():
        encoder = RecordEncoder.random(128, M, bench_scale.dim, rng=0)
        surface, _ = expose_model(encoder, binary=True, rng=1)
        return run_reasoning_attack(surface)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.total_guesses == 128 * 129 // 2
