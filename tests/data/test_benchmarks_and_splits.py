"""Tests for the benchmark registry."""

import numpy as np
import pytest

from repro.data.benchmarks import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    PAPER_REFERENCE,
    benchmark_spec,
    load_benchmark,
)
from repro.errors import ConfigurationError


class TestRegistry:
    def test_all_five_present(self):
        assert set(BENCHMARK_ORDER) == {"mnist", "ucihar", "face", "isolet", "pamap"}
        assert set(BENCHMARKS) == set(BENCHMARK_ORDER)
        assert set(PAPER_REFERENCE) == set(BENCHMARK_ORDER)

    def test_paper_shapes(self):
        assert BENCHMARKS["mnist"].n_features == 784
        assert BENCHMARKS["mnist"].n_classes == 10
        assert BENCHMARKS["ucihar"].n_features == 561
        assert BENCHMARKS["isolet"].n_classes == 26
        assert BENCHMARKS["face"].n_classes == 2
        assert BENCHMARKS["pamap"].n_classes == 5

    def test_reasoning_time_ordering_matches_paper(self):
        """Per the paper's Table 1, FACE takes longest and PAMAP least;
        attack cost scales with N^2, so shapes must preserve the order."""
        n = {name: BENCHMARKS[name].n_features for name in BENCHMARK_ORDER}
        assert n["face"] > n["mnist"] > n["isolet"] > n["ucihar"] > n["pamap"]

    def test_ceiling_tracks_paper_accuracy(self):
        for name in BENCHMARK_ORDER:
            ceiling = BENCHMARKS[name].accuracy_ceiling
            target = PAPER_REFERENCE[name].nonbinary_accuracy
            assert ceiling == pytest.approx(target, abs=0.02)

    def test_lookup_case_insensitive(self):
        assert benchmark_spec("MNIST").name == "mnist"

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            benchmark_spec("imagenet")


class TestLoadBenchmark:
    def test_loads_with_scaling(self):
        ds = load_benchmark("pamap", rng=0, sample_scale=0.1)
        assert ds.train_x.shape == (100, 27)
        assert ds.test_x.shape == (40, 27)

    def test_full_scale_default(self):
        ds = load_benchmark("pamap", rng=0)
        assert ds.train_x.shape[0] == BENCHMARKS["pamap"].train_samples

    def test_reproducible(self):
        a = load_benchmark("face", rng=1, sample_scale=0.05)
        b = load_benchmark("face", rng=1, sample_scale=0.05)
        np.testing.assert_array_equal(a.train_x, b.train_x)

