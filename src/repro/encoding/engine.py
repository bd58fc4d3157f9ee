"""Vectorized batch-encoding engine.

The record-encoding kernel (Eq. 2) is a gather-multiply-accumulate::

    H[b, d] = sum_n FeaHV[n, d] * ValHV[f[b, n], d]

The naive batched form gathers a ``(B, N, D)`` value tile and contracts
it with an integer einsum — at paper scale (D = 10,000) that tile is
gigabytes and the integer contraction runs scalar, so it is *slower*
than a per-sample loop. This module instead plans the computation around
two observations:

* **Level-major decomposition.** There are only ``M`` distinct value
  hypervectors, and any level lookup can be written as a prefix sum of
  level *differences*::

      ValHV[f] = ValHV[0] + sum_{m=1..M-1} [f >= m] * dVal[m]

  so the whole batch becomes one tiny base term plus ``M - 1`` dense
  matrix products ``(f >= m) @ FeaHV[:, support_m]`` — real BLAS calls —
  evaluated only on the coordinates where level ``m`` differs from
  ``m - 1``. For the library's linear level memories (Eq. 1b) those
  supports are disjoint and total ``D / 2``: the full batch costs about
  *half* a single BLAS pass regardless of ``M``.

* **Exact small-integer float arithmetic.** Every intermediate value is
  an integer bounded by ``N * max|Fea| * max|dVal|``; when that bound
  fits a float32 mantissa (< 2^24) the BLAS pipeline is bit-exact, and
  float64 extends the guarantee to 2^53. The plan verifies the bound and
  falls back to an exact integer einsum when it cannot hold (it never
  does for bipolar hypervectors at any realistic ``N``).

Batches are processed in chunks whose float working set — the ``(chunk,
D)`` accumulator plus the ``(chunk, N)`` indicator and the largest
``(chunk, |support|)`` contribution tile — stays inside
:data:`DEFAULT_MEMORY_BUDGET`, so paper-scale encodes stream through
cache instead of materializing the ``(B, N, D)`` gather.

Beyond the integer batch API, the plan owns a **fused packed path**
(:meth:`EncodingPlan.accumulate_packed`): base-init, scatter-add, and
binarize collapse into a minimal number of ``D``-passes — the base term
broadcasts into a preallocated float accumulator reused across chunks,
contributions add in place, and the signs (with the fixed sign(0) tie
vector) write directly into packed uint64 bit-planes via
:func:`repro.hv.packing.pack_signs`. No ``(B, D)`` int64 cast, no int8
sign matrix, and no downstream re-pack ever materialize, which roughly
halves the D-bound per-row overhead of binary encoding at paper scale.

Level memories that defeat the difference decomposition (dense level
differences make the scatter support explode) no longer fall back to a
per-sample loop: when both operand matrices are bipolar the plan runs
the batched **bit-sliced** kernel of :mod:`repro.hv.bitslice` — XNOR +
carry-save popcount over the same packed bit-planes, ~5x faster than
the per-sample einsum at D = 10,000 and exact by construction. The
per-sample integer einsum survives only as the retained reference
implementation and as the last-resort mode for non-bipolar operands
whose accumulation bound overflows a float64 mantissa.

:func:`encode_batch_reference` preserves the original per-sample loop as
an executable specification; the differential tests in
``tests/encoding/test_batch_parity.py`` assert bit-exact equality
(sign(0) ties included) between it and every plan mode, and the
golden-seed hashes in ``tests/integration`` pin the numerics against
future rewrites. Eq. 3 is a pure function of each accumulation row
(:func:`repro.hv.ops.sign_bits`), so chunks are independent: any
``chunk_size`` and any row order give the same bits per row.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hv.bitslice import bitsliced_accumulate
from repro.hv.ops import ACCUM_DTYPE, BIPOLAR_DTYPE, sign
from repro.hv.packing import (
    PACKED_WORD_DTYPE,
    pack_signs,
    pack_words,
    packed_word_width,
)

#: Default cap on the engine's per-chunk float working set (bytes).
#: 128 MiB keeps a D = 10,000 encode in ~1,500-row chunks — large enough
#: to amortize BLAS call overhead, small enough to coexist with the
#: caller's own arrays on a laptop-class machine.
DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024

#: Leave the BLAS difference decomposition when the summed
#: level-difference support exceeds this many multiples of ``D``: beyond
#: it the decomposition does more arithmetic (and dense scatter traffic)
#: than it saves. Linear level memories sit at 0.5; only adversarially
#: random level matrices (support ~ (M-1)/2 x D) ever cross the
#: threshold, and those route to the bit-sliced kernel instead.
SUPPORT_FALLBACK_RATIO = 8.0


def resolve_chunk_size(
    per_row_bytes: int, n_rows: int, chunk_size: int | None = None
) -> int:
    """Number of batch rows per tile under :data:`DEFAULT_MEMORY_BUDGET`.

    ``per_row_bytes`` is the engine working set one batch row costs; an
    explicit ``chunk_size`` overrides the budget-derived value (the
    parity tests use it to force splits). The result is always at least
    1 (a single row may exceed the budget — the budget bounds *batch*
    amplification, not the model size itself) and never more than
    ``n_rows``.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return min(chunk_size, max(n_rows, 1))
    budget = DEFAULT_MEMORY_BUDGET // max(per_row_bytes, 1)
    return max(1, min(n_rows if n_rows else 1, budget))


class EncodingPlan:
    """A precompiled batch-encoding strategy for one (ValHV, FeaHV) pair.

    Encoders build a plan lazily and reuse it for every encode call (the
    matrices are immutable by convention; see
    :meth:`repro.encoding.record.RecordEncoder.invalidate_caches`). The plan
    owns the casts the reference implementation used to redo per call —
    hoisting them is itself a ~2x saving on the per-sample path.
    """

    def __init__(self, level_matrix: np.ndarray, feature_matrix: np.ndarray) -> None:
        lev = np.asarray(level_matrix)
        fea = np.asarray(feature_matrix)
        self.levels = int(lev.shape[0])
        self.n_features = int(fea.shape[0])
        self.dim = int(lev.shape[1])
        #: Cached int32 views of the operands (shared with the
        #: single-sample einsum path; satellite of the engine refactor).
        self.level_i32 = lev.astype(np.int32, copy=False)
        self.feature_i32 = fea.astype(np.int32, copy=False)

        diffs = lev[1:].astype(np.int64) - lev[:-1].astype(np.int64)
        self.supports = [np.flatnonzero(diffs[m]) for m in range(self.levels - 1)]
        support_total = sum(int(s.size) for s in self.supports)

        max_fea = int(np.abs(fea).max(initial=0))
        max_dval = max(
            (
                int(np.abs(diffs[m, s]).max())
                for m, s in enumerate(self.supports)
                if s.size
            ),
            default=0,
        )
        max_lev0 = int(np.abs(lev[0]).max(initial=0))
        # Worst-case magnitude of any partial accumulation: the base term
        # plus every level-difference contribution at full strength.
        bound = self.n_features * max_fea * (
            max_lev0 + max_dval * max(self.levels - 1, 1)
        )

        if bound < 2**24:
            self._float_dtype: np.dtype | None = np.dtype(np.float32)
        elif bound < 2**53:
            self._float_dtype = np.dtype(np.float64)
        else:
            self._float_dtype = None
        support_fits = support_total <= SUPPORT_FALLBACK_RATIO * self.dim

        bipolar = bool(
            np.issubdtype(lev.dtype, np.integer)
            and np.issubdtype(fea.dtype, np.integer)
            and (np.abs(lev) == 1).all()
            and (np.abs(fea) == 1).all()
        )
        if self._float_dtype is not None and support_fits:
            self.mode = "blas"
        elif bipolar:
            self.mode = "bitslice"
        else:
            self.mode = "einsum"

        #: Optional bound metric children set by :meth:`instrument`;
        #: None keeps the hot path at a single attribute check.
        self._obs: tuple | None = None

        if self.mode == "blas":
            dt = self._float_dtype
            self._fea_float = fea.astype(dt)
            # Per-step column slices of the feature matrix and the
            # matching level-difference rows, both restricted to the
            # support. For a linear level memory these total N x D/2
            # floats — cached once instead of re-gathered per call.
            self._fea_cols = [self._fea_float[:, s] for s in self.supports]
            self._dval_rows = [
                diffs[m, s].astype(dt) for m, s in enumerate(self.supports)
            ]
            base = fea.sum(axis=0, dtype=np.int64) * lev[0].astype(np.int64)
            self._base = base.astype(dt)
            max_support = max((int(s.size) for s in self.supports), default=0)
            # accumulator (D) + indicator (N) + contribution tile
            # (|support|, counted twice: the matmul result and the
            # scaled copy) per batch row.
            self._row_bytes = (
                self.dim + self.n_features + 2 * max_support
            ) * dt.itemsize
        elif self.mode == "bitslice":
            # Word-packed operands, the feature planes pre-inverted so
            # the per-feature XNOR is one XOR against a gathered row.
            self._level_words = pack_words(lev)
            self._inv_feature_words = np.bitwise_not(pack_words(fea))
            word_bytes = packed_word_width(self.dim) * 8
            planes = 2 * max(self.n_features, 1).bit_length() + 3
            # live carry-save planes + int32 counts + int64 output + the
            # boolean unpack temporary per batch row.
            self._row_bytes = planes * word_bytes + self.dim * (4 + 8 + 1)
        else:
            # (N, D) int32 gather per row dominates the fallback tile.
            self._row_bytes = self.n_features * self.dim * 4

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def instrument(self, metrics, scope: str = "library") -> None:
        """Attach observability counters to this plan's accumulate calls.

        ``metrics`` is a :class:`repro.obs.metrics.MetricsRegistry` (or
        anything with its surface); ``scope`` labels who owns the plan —
        the serving layer passes the tenant name. The counters record
        rows encoded and calls made per kernel path (``blas`` /
        ``bitslice`` / ``einsum``) and how many chunks were served by an
        already-allocated per-call scratch buffer (the reuse the engine
        exists to provide). Counting happens once per accumulate call,
        outside the chunk loop, so the overhead is independent of batch
        size; an un-instrumented plan pays one ``is None`` check.
        """
        rows = metrics.counter(
            "repro_encode_rows_total",
            "Rows encoded through EncodingPlan, by kernel path.",
            labels=("scope", "path"),
        )
        calls = metrics.counter(
            "repro_encode_calls_total",
            "EncodingPlan accumulate calls, by kernel path.",
            labels=("scope", "path"),
        )
        reuse = metrics.counter(
            "repro_encode_scratch_reuse_total",
            "Chunks that reused the call's existing scratch buffer.",
            labels=("scope",),
        )
        self._obs = (
            rows.bind(scope=scope, path=self.mode),
            calls.bind(scope=scope, path=self.mode),
            reuse.bind(scope=scope),
        )

    def _record_call(
        self, n_rows: int, chunk: int, had_scratch: bool
    ) -> None:
        rows, calls, reuse = self._obs  # type: ignore[misc]
        rows.add(n_rows)
        calls.inc()
        if had_scratch:
            n_chunks = -(-n_rows // chunk)
            if n_chunks > 1:
                reuse.add(n_chunks - 1)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def _call_scratch(self, chunk: int, n_rows: int) -> np.ndarray | None:
        """One float accumulator per accumulate call (blas mode only).

        Allocated once and reused by every chunk of the call — the win
        over PR 1's fresh base-repeat per chunk — but scoped to the
        call, so nothing pins chunk-sized memory to the plan afterwards
        and concurrent calls on one encoder never share a buffer.
        """
        if self.mode != "blas":
            return None
        return np.empty((min(chunk, n_rows), self.dim), dtype=self._float_dtype)

    def _accumulate_blas_into(self, samples: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Base-init + scatter-add fused into the float buffer ``out``."""
        np.copyto(out, self._base)
        for m in range(1, self.levels):
            support = self.supports[m - 1]
            if support.size == 0:
                continue
            indicator = (samples >= m).astype(self._float_dtype)
            contribution = indicator @ self._fea_cols[m - 1]
            contribution *= self._dval_rows[m - 1]
            out[:, support] += contribution
        return out

    def _accumulate_bitslice(self, samples: np.ndarray) -> np.ndarray:
        return bitsliced_accumulate(
            self._level_words, self._inv_feature_words, samples, self.dim
        )

    def _accumulate_einsum(self, samples: np.ndarray) -> np.ndarray:
        """The retained per-sample integer loop (exact reference mode)."""
        out = np.empty((samples.shape[0], self.dim), dtype=ACCUM_DTYPE)
        for b in range(samples.shape[0]):
            out[b] = np.einsum(
                "nd,nd->d",
                self.level_i32[samples[b]],
                self.feature_i32,
                dtype=ACCUM_DTYPE,
            )
        return out

    def _accumulate_chunk(
        self, samples: np.ndarray, scratch: np.ndarray | None
    ) -> np.ndarray:
        """One chunk of accumulations in the plan's native dtype.

        blas mode fills (a slice of) the caller's per-call *float*
        scratch (exact small integers); the other modes return fresh
        int64 rows. Callers either cast into their int64 output or hand
        the rows straight to :func:`repro.hv.packing.pack_signs` — both
        see identical values.
        """
        if self.mode == "blas":
            assert scratch is not None
            return self._accumulate_blas_into(samples, scratch[: samples.shape[0]])
        if self.mode == "bitslice":
            return self._accumulate_bitslice(samples)
        return self._accumulate_einsum(samples)

    def accumulate(
        self, samples: np.ndarray, chunk_size: int | None = None
    ) -> np.ndarray:
        """Encode a validated ``(B, N)`` level batch to ``(B, D)`` int64.

        Chunked along the batch axis so the per-tile working set stays
        under :data:`DEFAULT_MEMORY_BUDGET` (or exactly ``chunk_size``
        rows).
        """
        n_rows = int(samples.shape[0])
        out = np.empty((n_rows, self.dim), dtype=ACCUM_DTYPE)
        if n_rows == 0:
            return out
        chunk = resolve_chunk_size(self._row_bytes, n_rows, chunk_size)
        scratch = self._call_scratch(chunk, n_rows)
        for start in range(0, n_rows, chunk):
            stop = min(start + chunk, n_rows)
            # The assignment casts float chunks to int64 in one pass;
            # every value is an exact small integer, so the cast is too.
            out[start:stop] = self._accumulate_chunk(samples[start:stop], scratch)
        if self._obs is not None:
            self._record_call(n_rows, chunk, scratch is not None)
        return out

    def accumulate_packed(
        self, samples: np.ndarray, chunk_size: int | None = None
    ) -> np.ndarray:
        """Encode a validated ``(B, N)`` batch straight to packed bits.

        The fused binary path: accumulations stream chunk by chunk
        through one per-call scratch buffer and binarize *in place* into
        the returned ``(B, ceil(D/64))`` uint64 bit-planes — no int64
        batch, no int8 sign matrix, no separate pack pass. Bit-exact
        with ``pack_words(binarize_batch(accumulate(samples)))``, which
        the parity tests pin.
        """
        n_rows = int(samples.shape[0])
        out = np.zeros((n_rows, packed_word_width(self.dim)), dtype=PACKED_WORD_DTYPE)
        if n_rows == 0:
            return out
        chunk = resolve_chunk_size(self._row_bytes, n_rows, chunk_size)
        scratch = self._call_scratch(chunk, n_rows)
        for start in range(0, n_rows, chunk):
            stop = min(start + chunk, n_rows)
            pack_signs(
                self._accumulate_chunk(samples[start:stop], scratch),
                out=out[start:stop],
            )
        if self._obs is not None:
            self._record_call(n_rows, chunk, scratch is not None)
        return out


def binarize_batch(accums: np.ndarray) -> np.ndarray:
    """Eq. 3 binarization of a ``(B, D)`` accumulator batch to int8 signs.

    The encoders' dense binarize stage. The rule itself lives in one
    place, :func:`repro.hv.ops.sign_bits`, shared with the fused packed
    path so the dense and packed flavors can never drift apart.
    """
    return sign(accums)


def encode_batch_reference(
    level_matrix: np.ndarray,
    feature_matrix: np.ndarray,
    samples: np.ndarray,
    binary: bool = True,
) -> np.ndarray:
    """The original per-sample encode loop, kept as an executable spec.

    One gather + integer einsum + (optional) sign per sample, casting
    the operands on every iteration exactly as the pre-engine
    implementation did. Differential tests and the old-vs-new benchmarks
    run this against :class:`EncodingPlan`; it is never used on a hot
    path.
    """
    lev = np.asarray(level_matrix)
    fea = np.asarray(feature_matrix)
    arr = np.asarray(samples)
    out = np.empty(
        (arr.shape[0], lev.shape[1]), dtype=BIPOLAR_DTYPE if binary else ACCUM_DTYPE
    )
    for b in range(arr.shape[0]):
        accum = np.einsum(
            "nd,nd->d",
            lev[arr[b]].astype(np.int32, copy=False),
            fea.astype(np.int32, copy=False),
            dtype=ACCUM_DTYPE,
        )
        out[b] = sign(accum) if binary else accum
    return out
