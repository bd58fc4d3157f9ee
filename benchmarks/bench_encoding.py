"""Encoding-path benchmarks: software throughput vs the cycle model.

The paper measures encoding overhead in FPGA clock cycles (Fig. 9); the
software encoder here shows the same *relative* behavior — L = 1 costs
the same as unprotected (derivation is cached/rotation-only), deeper
keys only pay at derivation time, and the per-sample multiply-accumulate
dominates — plus absolute per-sample figures for this machine.

The batch benches compare the vectorized engine
(:class:`repro.encoding.engine.EncodingPlan`) against the retired
per-sample loop (:func:`repro.encoding.engine.encode_batch_reference`)
and print the speedup (run with ``-s``); parity is asserted on every
run, so the speedup numbers are for bit-identical outputs. The packed
benches do the same for the fused packed path (dense binarize + pack
vs ``encode_batch_packed``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.encoding.engine import encode_batch_reference
from repro.encoding.record import RecordEncoder
from repro.hdlock.feature_factory import derive_feature_matrix
from repro.hdlock.lock import create_locked_encoder
from repro.hv.packing import pack_words

N, M = 784, 16


@pytest.fixture(scope="module")
def dim(bench_scale):
    return bench_scale.dim


@pytest.fixture(scope="module")
def sample(dim):
    return np.random.default_rng(0).integers(0, M, N)


def test_encode_single_plain(benchmark, dim, sample):
    encoder = RecordEncoder.random(N, M, dim, rng=1)
    benchmark(encoder.encode, sample, True)


def test_encode_single_locked_l2(benchmark, dim, sample):
    system = create_locked_encoder(N, M, dim, layers=2, rng=2)
    benchmark(system.encoder.encode, sample, True)


def test_encode_batch_plain(benchmark, dim):
    encoder = RecordEncoder.random(N, M, dim, rng=3)
    batch = np.random.default_rng(4).integers(0, M, (16, N))
    benchmark(encoder.encode_batch, batch, True)


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param((512, 64), id="acceptance-512x64"),
        pytest.param((64, N), id="wide-64x784"),
    ],
)
def test_encode_batch_old_vs_new(benchmark, dim, quick, shape):
    """Old per-sample loop vs the batch engine, bit-exact, with speedup.

    The ``acceptance-512x64`` shape is the engine's acceptance
    criterion: a (512, 64) batch at paper dimensionality must encode at
    least 5x faster than the reference loop (the slow-marked test in
    ``tests/encoding/test_engine_perf.py`` enforces it; this bench
    reports the actual ratio at the active scale).
    """
    batch, n_features = shape
    if quick:
        batch = min(batch, 32)
    levels = M
    encoder = RecordEncoder.random(n_features, levels, dim, rng=5)
    samples = np.random.default_rng(6).integers(0, levels, (batch, n_features))

    start = time.perf_counter()
    want = encode_batch_reference(
        encoder.level_memory.matrix, encoder.feature_matrix, samples, binary=True
    )
    reference_seconds = time.perf_counter() - start

    np.testing.assert_array_equal(encoder.encode_batch(samples, True), want)

    benchmark(encoder.encode_batch, samples, True)

    start = time.perf_counter()
    fresh = RecordEncoder.random(n_features, levels, dim, rng=5)
    _ = fresh.plan  # include the one-time plan compile in the honest figure
    fresh.encode_batch(samples, True)
    engine_seconds = time.perf_counter() - start
    print(
        f"\n[old-vs-new] B={batch} N={n_features} D={dim}: "
        f"reference {reference_seconds * 1e3:8.1f} ms | "
        f"engine (cold plan) {engine_seconds * 1e3:7.1f} ms | "
        f"speedup {reference_seconds / engine_seconds:6.1f}x"
    )


def test_encode_batch_packed_vs_dense(benchmark, dim, quick):
    """Fused packed path vs dense-binarize-then-pack, bit-exact.

    The packed path is the classifier's binary inference feed; the
    printed per-row figures are the PR 2 steady-state comparison in the
    ROADMAP's packed-path table.
    """
    batch, n_features = (32, 64) if quick else (512, 64)
    encoder = RecordEncoder.random(n_features, M, dim, rng=9)
    samples = np.random.default_rng(10).integers(0, M, (batch, n_features))
    _ = encoder.plan

    start = time.perf_counter()
    want = pack_words(encoder.encode_batch(samples, binary=True))
    dense_seconds = time.perf_counter() - start

    start = time.perf_counter()
    got = encoder.encode_batch_packed(samples)
    packed_seconds = time.perf_counter() - start
    np.testing.assert_array_equal(got, want)

    benchmark(encoder.encode_batch_packed, samples)
    print(
        f"\n[packed-vs-dense] B={batch} N={n_features} D={dim}: "
        f"dense+pack {dense_seconds * 1e6 / batch:7.1f} us/row | "
        f"fused packed {packed_seconds * 1e6 / batch:7.1f} us/row | "
        f"{dense_seconds / packed_seconds:5.2f}x"
    )


def test_encode_batch_nonbinary_engine(benchmark, dim, quick):
    batch = 32 if quick else 256
    encoder = RecordEncoder.random(N, M, dim, rng=7)
    samples = np.random.default_rng(8).integers(0, M, (batch, N))
    _ = encoder.plan
    benchmark(encoder.encode_batch, samples, False)


@pytest.mark.parametrize("layers", [1, 2, 3, 5])
def test_feature_derivation_cost(benchmark, dim, layers):
    """Key-application cost: one gather-rotate-multiply pass per layer.

    This is the work the FPGA bind unit pipelines; in software it is a
    one-time cost per (pool, key) pair, linear in L.
    """
    system = create_locked_encoder(N, M, dim, layers=layers, rng=layers)
    result = benchmark(derive_feature_matrix, system.base_pool, system.key)
    if result is not None:
        np.testing.assert_array_equal(result, system.encoder.feature_matrix)
