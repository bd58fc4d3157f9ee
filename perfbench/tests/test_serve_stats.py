"""The capacity figure: second tries on the ladder and the SLO crossing."""

import pytest

from perfbench.serve import LADDER, PROBES, SLO_P99_MS, WINDOWS, _plan_phases, slo_rate


def _probe(rate, p99, backlog=False, failed=0):
    return {"rate": rate, "p99_ms": p99, "backlog": backlog, "failed": failed}


def test_phases_start_with_a_window_and_spread_the_probes():
    order = _plan_phases()
    assert order.count("window") == WINDOWS and order.count("probe") == PROBES
    assert order[0] == "window"


def test_crossing_is_interpolated_between_the_last_two_rungs():
    low, high = LADDER[10], LADDER[11]
    rate = slo_rate([_probe(low, SLO_P99_MS / 2), _probe(high, SLO_P99_MS * 2)], low)
    assert low < rate < high
    assert rate == pytest.approx((low * high) ** 0.5)


def test_the_best_try_of_each_rung_is_used():
    low, high = LADDER[10], LADDER[11]
    probes = [
        _probe(low, SLO_P99_MS / 2),
        _probe(high, SLO_P99_MS * 8),
        _probe(high, SLO_P99_MS * 2),
    ]
    assert slo_rate(probes, low) == pytest.approx((low * high) ** 0.5)


def test_rung_alone_when_the_rung_above_missed_for_another_reason():
    low, high = LADDER[10], LADDER[11]
    assert slo_rate([_probe(low, 10.0), _probe(high, 80.0, backlog=True)], low) == low
    assert slo_rate([_probe(low, 10.0), _probe(high, 80.0, failed=1)], low) == low
    assert slo_rate([_probe(LADDER[-1], 10.0)], LADDER[-1]) == LADDER[-1]
