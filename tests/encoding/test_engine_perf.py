"""Performance acceptance gates for the batch-encoding engine.

Marked ``slow`` (run with ``pytest -m slow``) so tier-1 stays fast:
wall-clock assertions belong in an explicit performance pass, not the
default suite. Thresholds deliberately sit far below the measured
speedups so scheduler noise cannot flake them:

* batch engine vs per-sample reference — ~20x measured, gate 5x;
* fused packed path vs PR 1's dense-binarize-then-pack row overhead —
  ~2.5x measured, gate 2x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.encoding.engine import encode_batch_reference
from repro.encoding.record import RecordEncoder
from repro.hv.packing import pack_words


def _best_of_interleaved(fns, rounds: int = 9) -> list[float]:
    """Round-robin best-of timing for several callables.

    Alternating the candidates inside each round means a noise burst
    (scheduler, memory pressure) inflates all of them together, and the
    per-callable min lands on a quiet round for every pipeline — far
    more stable on busy machines than timing each callable in its own
    contiguous block.
    """
    bests = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            bests[i] = min(bests[i], time.perf_counter() - start)
    return bests


@pytest.mark.slow
def test_paper_scale_batch_speedup_at_least_5x():
    n_features, levels, dim, batch = 64, 16, 10_000, 512
    encoder = RecordEncoder.random(n_features, levels, dim, rng=1)
    samples = np.random.default_rng(0).integers(0, levels, (batch, n_features))

    start = time.perf_counter()
    want = encode_batch_reference(
        encoder.level_memory.matrix, encoder.feature_matrix, samples, binary=True
    )
    reference_seconds = time.perf_counter() - start

    _ = encoder.plan  # build outside the timed region: one-time compile
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        got = encoder.encode_batch(samples, binary=True)
        best = min(best, time.perf_counter() - start)

    np.testing.assert_array_equal(got, want)
    speedup = reference_seconds / best
    assert speedup >= 5.0, f"engine only {speedup:.1f}x faster than reference"


@pytest.mark.slow
def test_packed_row_overhead_reduced_at_least_2x():
    """The fused packed path halves PR 1's per-row D-bound overhead.

    Steady-state binary encoding at D = 10,000 was dominated by D-sized
    row traffic on top of the level matmuls (ROADMAP, PR 1 follow-up):
    PR 1's pipeline repeated the base term into a fresh array, cast the
    float accumulator to int64, binarized into an int8 matrix, and
    consumers packed that again. The gate reconstructs that exact
    pipeline from the current plan's operands, times it against the
    fused packed path (in-place sign -> uint64 bit-planes), subtracts
    the matmul-only floor both share, and requires the remaining
    per-row overhead to drop by >= 2x (measured ~2.5x; the current
    dense path also got faster, so it is printed for reference only).

    N is odd so accumulations — sums of N odd terms — can never tie at
    zero, and the gate isolates exactly the D-pass row traffic it is
    about.
    """
    n_features, levels, dim, batch = 63, 16, 10_000, 512
    samples = np.random.default_rng(0).integers(0, levels, (batch, n_features))

    encoder = RecordEncoder.random(n_features, levels, dim, rng=1)
    _ = encoder.plan  # compile outside every timed region
    np.testing.assert_array_equal(
        encoder.encode_batch_packed(samples),
        pack_words(encoder.encode_batch(samples, binary=True)),
    )

    plan = encoder.plan

    def pr1_accumulate(block):
        # PR 1's _accumulate_blas, verbatim: fresh base repeat, scatter,
        # int64 cast — the row passes the fused path eliminates.
        out = np.repeat(plan._base[None, :], block.shape[0], axis=0)
        for m in range(1, plan.levels):
            support = plan.supports[m - 1]
            if support.size == 0:
                continue
            indicator = (block >= m).astype(plan._float_dtype)
            contribution = indicator @ plan._fea_cols[m - 1]
            contribution *= plan._dval_rows[m - 1]
            out[:, support] += contribution
        return out.astype(np.int64)

    def pr1_binarize(accums):
        # binarize_batch as of commit 6583f27, verbatim but for the tie
        # draw: N is odd, so no row ties and only the tie scan runs.
        out = np.where(accums > 0, 1, -1).astype(np.int8)
        zeros = accums == 0
        assert np.flatnonzero(zeros.any(axis=-1)).size == 0
        return out

    def pr1_pack(hvs):
        # repro.hv.packing.pack as of that commit: one uint8 bit row per HV.
        bits = (np.asarray(hvs) > 0).astype(np.uint8)
        return np.packbits(bits, axis=-1)  # reprolint: disable=RL002 -- frozen baseline from commit 6583f27 that the gate times against, not a live packing path

    def pr1_pipeline():
        # accumulate -> int64 -> dense int8 signs -> packed, exactly the
        # first engine's predict feed (binarize_batch + a consumer-side
        # pack). Both steps are inlined from commit 6583f27 so later
        # speed-ups of the live binarizer and packer cannot move this
        # baseline.
        pr1_pack(pr1_binarize(pr1_accumulate(samples)))

    def matmul_floor():
        # The level-difference matmuls both pipelines run, without the
        # base init / scatter / binarize / pack row passes.
        for m in range(1, plan.levels):
            support = plan.supports[m - 1]
            if support.size == 0:
                continue
            indicator = (samples >= m).astype(plan._float_dtype)
            contribution = indicator @ plan._fea_cols[m - 1]
            contribution *= plan._dval_rows[m - 1]

    floor_seconds, pr1_seconds, dense_seconds, packed_seconds = _best_of_interleaved(
        [
            matmul_floor,
            pr1_pipeline,
            lambda: pack_words(encoder.encode_batch(samples, binary=True)),
            lambda: encoder.encode_batch_packed(samples),
        ]
    )

    pr1_overhead = pr1_seconds - floor_seconds
    packed_overhead = packed_seconds - floor_seconds
    assert pr1_overhead > 0 and packed_overhead > 0, (
        f"degenerate timing: floor {floor_seconds:.4f}s, "
        f"pr1 {pr1_seconds:.4f}s, packed {packed_seconds:.4f}s"
    )
    reduction = pr1_overhead / packed_overhead
    print(
        f"\n[row-overhead] PR1 {pr1_overhead * 1e6 / batch:.0f} us/row | "
        f"current dense+pack {(dense_seconds - floor_seconds) * 1e6 / batch:.0f} "
        f"us/row | fused packed {packed_overhead * 1e6 / batch:.0f} us/row | "
        f"PR1/fused {reduction:.2f}x"
    )
    assert reduction >= 2.0, (
        f"fused packed path only cut PR 1's per-row overhead {reduction:.2f}x "
        f"(PR1 {pr1_overhead * 1e6 / batch:.0f} us/row vs packed "
        f"{packed_overhead * 1e6 / batch:.0f} us/row over a "
        f"{floor_seconds * 1e6 / batch:.0f} us/row matmul floor)"
    )

