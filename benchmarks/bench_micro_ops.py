"""Micro-benchmarks of the hypervector substrate.

Not a paper figure — these keep the primitive costs visible (the attack
and the encoder are built from exactly these operations) and guard
against performance regressions in the kernels the Table 1 timings
depend on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hv.ops import bind, bundle, permute, sign
from repro.hv.packing import (
    hamming_packed,
    pack_signs,
    pack_words,
    pairwise_hamming_packed,
)
from repro.hv.random import random_pool
from repro.hv.similarity import hamming, nearest_batch, pairwise_hamming

D = 10_000
POOL = 784


@pytest.fixture(scope="module")
def pool():
    return random_pool(POOL, D, rng=0)


@pytest.fixture(scope="module")
def pair(pool):
    return pool[0], pool[1]


def test_bind_throughput(benchmark, pair):
    a, b = pair
    benchmark(bind, a, b)


def test_bundle_pool(benchmark, pool):
    benchmark(bundle, pool)


def test_permute_throughput(benchmark, pair):
    benchmark(permute, pair[0], 4321)


def test_sign_with_ties(benchmark, pool):
    accum = bundle(pool)
    benchmark(sign, accum)


def test_hamming_pool_vs_vector(benchmark, pool):
    benchmark(hamming, pool, pool[0])


def test_packed_hamming_pool_vs_vector(benchmark, pool):
    packed = pack_words(pool)
    row = pack_words(pool[0])
    result = benchmark(hamming_packed, packed, row, D)
    if result is not None:
        np.testing.assert_allclose(result, hamming(pool, pool[0]))


def test_pairwise_hamming_value_pool(benchmark):
    values = random_pool(16, D, rng=2)
    benchmark(pairwise_hamming, values)


def test_pairwise_hamming_chunked_large_pool(benchmark, pool):
    """Chunked Gram over the full feature-pool-sized candidate set."""
    benchmark(pairwise_hamming, pool, 128)


def test_nearest_batch_pool(benchmark, pool):
    """Batched nearest-row lookup (classifier inference access pattern)."""
    targets = random_pool(64, D, rng=4)
    result = benchmark(nearest_batch, pool, targets)
    if result is not None:
        assert result.shape == (64,)


def test_pack_signs_fused(benchmark, pool):
    """Fused binarize + word-pack of an accumulator batch (the last
    stage of the packed encoding path), ties included."""
    accums = pool[:64].astype(np.int64) + pool[64:128].astype(np.int64)
    result = benchmark(pack_signs, accums)
    if result is not None:
        assert result.dtype == np.uint64


def test_pairwise_hamming_words_stack_vs_stack(benchmark, pool):
    """Packed XOR-popcount scoring of a pool against a query stack — the
    packed classifier's and attack scorer's inner kernel."""
    raw_queries = random_pool(64, D, rng=6)
    queries = pack_words(raw_queries)
    packed = pack_words(pool)
    result = benchmark(pairwise_hamming_packed, packed, queries, D, 128)
    if result is not None:
        np.testing.assert_allclose(result[:, 0], hamming(pool, raw_queries[0]))
