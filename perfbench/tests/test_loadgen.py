"""The seed argument fixes the request schedule."""

from perfbench.loadgen import schedule
from perfbench.serve import MIX, REFERENCE_RPS

POOLS = {"sensor": 512, "mnist": 512, "revoked": 512}


def _plan(seed, phase=0):
    return [
        (p.due, p.kind, p.samples, p.request_id)
        for p in schedule(seed, phase, REFERENCE_RPS, 2.0, MIX, POOLS)
    ]


def test_same_seed_same_schedule():
    assert _plan(7) == _plan(7)


def test_other_seed_or_phase_other_schedule():
    assert _plan(7) != _plan(8)
    assert _plan(7, phase=0) != _plan(7, phase=1)


def test_schedule_is_poisson_at_the_rate_and_mixes_every_kind():
    planned = schedule(3, 0, REFERENCE_RPS, 20.0, MIX, POOLS)
    assert abs(len(planned) / 20.0 - REFERENCE_RPS) < 0.1 * REFERENCE_RPS
    assert all(0 <= p.due < 20.0 for p in planned)
    assert [p.due for p in planned] == sorted(p.due for p in planned)
    assert {p.kind for p in planned} == set(range(len(MIX)))
    for p in planned:
        assert len(p.samples) == MIX[p.kind].rows
