"""Datasets: synthetic benchmark generators and quantization."""

from repro.data.benchmarks import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    PAPER_REFERENCE,
    PaperReference,
    benchmark_spec,
    load_benchmark,
)
from repro.data.quantize import quantize_minmax
from repro.data.synthetic import Dataset, SyntheticSpec, make_dataset

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "make_dataset",
    "BENCHMARKS",
    "BENCHMARK_ORDER",
    "PAPER_REFERENCE",
    "PaperReference",
    "benchmark_spec",
    "load_benchmark",
    "quantize_minmax",
]
