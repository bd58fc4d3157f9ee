"""Tests for the query-pattern detection countermeasure."""

import numpy as np
import pytest

from repro.attack.countermeasures import QueryMonitor
from repro.data.synthetic import SyntheticSpec, make_dataset
from repro.errors import ConfigurationError

N, M = 48, 8


def attack_query_stream(features: int = N) -> np.ndarray:
    """The query sequence the Sec. 3 attack sends: one all-minimum probe,
    then one one-hot-maximum probe per attacked feature."""
    queries = np.zeros((1 + features, N), dtype=np.int64)
    for i in range(features):
        queries[1 + i, i] = M - 1
    return queries


@pytest.fixture
def monitor() -> QueryMonitor:
    return QueryMonitor(n_features=N, levels=M)


class TestConcentration:
    def test_constant_query_is_one(self, monitor):
        assert monitor.concentration(np.zeros(N, dtype=np.int64)) == 1.0

    def test_one_hot_query_near_one(self, monitor):
        probe = np.zeros(N, dtype=np.int64)
        probe[3] = M - 1
        assert monitor.concentration(probe) == pytest.approx((N - 1) / N)

    def test_uniform_query_low(self, monitor):
        sample = np.arange(N) % M
        assert monitor.concentration(sample) == pytest.approx(
            np.ceil(N / M) / N
        )

    def test_shape_checked(self, monitor):
        with pytest.raises(ConfigurationError):
            monitor.concentration(np.zeros(N + 1, dtype=np.int64))


class TestDetection:
    def test_attack_stream_triggers_alert(self, monitor):
        stream = attack_query_stream()
        assessments = monitor.observe_batch(stream)
        assert monitor.alerted
        # the alert fires within the first window, long before the
        # attack finishes its N probes
        first_alert = next(i for i, a in enumerate(assessments) if a.alert)
        assert first_alert < monitor.window
        assert monitor.suspicious_rate > 0.9

    def test_benign_traffic_stays_quiet(self, monitor):
        spec = SyntheticSpec(
            name="benign",
            n_features=N,
            n_classes=4,
            levels=M,
            train_samples=300,
            test_samples=2,
            noise_sigma=0.3,
        )
        dataset = make_dataset(spec, rng=0)
        monitor.observe_batch(dataset.train_x)
        assert not monitor.alerted
        assert monitor.suspicious_rate < 0.05

    def test_mixed_traffic_catches_interleaved_attack(self, monitor):
        """Attack probes hidden between benign queries still alert once
        enough land within one window."""
        spec = SyntheticSpec(
            name="mix",
            n_features=N,
            n_classes=4,
            levels=M,
            train_samples=200,
            test_samples=2,
            noise_sigma=0.3,
        )
        benign = make_dataset(spec, rng=1).train_x
        attack = attack_query_stream()
        # interleave 1 attack probe per 3 benign queries
        for i in range(len(attack)):
            monitor.observe(attack[i])
            for j in range(3):
                monitor.observe(benign[(3 * i + j) % len(benign)])
            if monitor.alerted:
                break
        assert monitor.alerted

    def test_budget_respected_below_threshold(self):
        monitor = QueryMonitor(n_features=N, levels=M, window=16, budget=15)
        stream = attack_query_stream(features=10)
        monitor.observe_batch(stream)
        assert not monitor.alerted  # 11 suspicious < budget 15

    def test_counters(self, monitor):
        monitor.observe(np.zeros(N, dtype=np.int64))
        monitor.observe((np.arange(N) % M).astype(np.int64))
        assert monitor.seen == 2
        assert monitor.suspicious_total == 1


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ConfigurationError):
            QueryMonitor(n_features=0, levels=M)

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            QueryMonitor(n_features=N, levels=M, concentration_threshold=0.0)

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            QueryMonitor(n_features=N, levels=M, window=0)

