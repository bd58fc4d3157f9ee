"""Vectorized batch-encoding engine: one record-encoding kernel.

The record-encoding kernel (Eq. 2) is a gather-multiply-accumulate::

    H[b, d] = sum_n FeaHV[n, d] * ValHV[f[b, n], d]

The naive batched form gathers a ``(B, N, D)`` value tile and contracts
it with an integer einsum — at paper scale (D = 10,000) that tile is
gigabytes and the integer contraction runs scalar, so it is *slower*
than a per-sample loop. :class:`EncodingPlan` instead runs one kernel,
built on two observations:

* **Level-major decomposition.** There are only ``M`` distinct value
  hypervectors, and any level lookup can be written as a prefix sum of
  level *differences*::

      ValHV[f] = ValHV[0] + sum_{m=1..M-1} [f >= m] * dVal[m]

  so the whole batch becomes one tiny base term plus ``M - 1`` dense
  matrix products ``(f >= m) @ FeaHV[:, support_m]`` — real BLAS calls —
  evaluated only on the coordinates where level ``m`` differs from
  ``m - 1``. The paper's level memories are linear (Eq. 1b: each level
  flips a fresh ``D / (2(M - 1))`` coordinates of the last), so those
  supports are disjoint and total ``D / 2``: the full batch costs about
  *half* a single BLAS pass regardless of ``M``. Any other level memory
  stays exact on the same kernel; its denser supports only cost more
  arithmetic (up to ``M - 1`` full passes), which no workload pays.

* **Contiguous supports.** A support is a random set of coordinates, so
  adding a level's contribution at its support in place is a
  fancy-index scatter that costs more than the matmul that produced it.
  The plan instead reorders the ``D`` axis once, at construction, so
  every level's support is one contiguous block, in level order, then
  the untouched coordinates. Each level adds into a basic slice of a
  permuted buffer, and one gather per chunk restores the original
  column order. Overlapping supports (non-linear level memories) stay
  exact: a coordinate an earlier level already placed is added onto
  that slot through an index array — linear memories have none.

* **Exact small-integer float arithmetic.** Every intermediate value is
  an integer bounded by ``N * max|Fea| * (max|ValHV[0]| + (M - 1) *
  max|dVal|)``. Below 2^24 the plan computes in float32, below 2^53 in
  float64, and either way the BLAS pipeline is bit-exact. A bound of
  2^53 or more fits no float mantissa, so the plan refuses it with
  :class:`~repro.errors.ConfigurationError` at construction; bipolar
  hypervectors stay far below it at any realistic ``N``.

Batches are processed in chunks whose float working set — the ``(chunk,
D)`` accumulator plus the ``(chunk, N)`` indicator and the largest
``(chunk, |support|)`` contribution tile — stays inside
:data:`DEFAULT_MEMORY_BUDGET`, so paper-scale encodes stream through
cache instead of materializing the ``(B, N, D)`` gather. One float
scratch buffer per call serves every chunk, and each chunk is restored
to the original column order :data:`RESTORE_ROWS` rows at a time, so the
restore temporaries never grow with the chunk.

:meth:`EncodingPlan.accumulate` gathers each block back to the original
column order and casts it into the int64 batch;
:meth:`EncodingPlan.accumulate_packed` is the fused binary path: it
binarizes the permuted buffer against the permuted sign(0) tie vector,
gathers the sign bits (one byte per coordinate, the cheapest dtype to
move) and packs them into uint64 bit-planes via
:func:`repro.hv.packing.pack_bits`. Both share one chunk loop, so no
``(B, D)`` int64 cast, int8 sign matrix or re-pack ever materializes on
the packed path.

:func:`encode_batch_reference` preserves the original per-sample loop as
the executable specification; the differential tests in
``tests/encoding/test_batch_parity.py`` and
``tests/encoding/test_packed_path.py`` assert bit-exact equality
(sign(0) ties included) between it and the plan, linear and non-linear
level memories alike, and the golden-seed hashes in
``tests/integration`` pin the numerics against future rewrites. Eq. 3 is
a pure function of each accumulation row
(:func:`repro.hv.ops.sign_bits`), so chunks are independent: any
``chunk_size`` and any row order give the same bits per row.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hv.ops import ACCUM_DTYPE, BIPOLAR_DTYPE, sign, sign_bits, tie_bits
from repro.hv.packing import PACKED_WORD_DTYPE, pack_bits, packed_word_width

#: Default cap on the engine's per-chunk float working set (bytes).
#: 128 MiB keeps a D = 10,000 encode in ~1,500-row chunks — large enough
#: to amortize BLAS call overhead, small enough to coexist with the
#: caller's own arrays on a laptop-class machine.
DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024


#: Rows per block when a chunk is restored to the original column order:
#: small enough that the gather's temporaries stay cache-resident, large
#: enough that the per-block call overhead vanishes.
RESTORE_ROWS = 16


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
    owns the float casts and support slices the reference implementation
    would redo per call.
    """

    #: The plan's only kernel path, the ``path`` label of its counters.
    mode = "blas"

    def __init__(self, level_matrix: np.ndarray, feature_matrix: np.ndarray) -> None:
        lev = np.asarray(level_matrix)
        fea = np.asarray(feature_matrix)
        self.levels = int(lev.shape[0])
        self.n_features = int(fea.shape[0])
        self.dim = int(lev.shape[1])

        diffs = lev[1:].astype(np.int64) - lev[:-1].astype(np.int64)
        max_fea = int(np.abs(fea).max(initial=0))
        max_dval = int(np.abs(diffs).max(initial=0))
        max_lev0 = int(np.abs(lev[0]).max(initial=0))
        # Worst-case magnitude of any partial accumulation: the base term
        # plus every level-difference contribution at full strength.
        bound = self.n_features * max_fea * (
            max_lev0 + max_dval * max(self.levels - 1, 1)
        )
        if bound >= 2**53:
            raise ConfigurationError(
                f"accumulations bounded by {bound} >= 2**53 fit no float "
                f"mantissa; the encoding plan cannot compute them exactly"
            )
        dt = np.dtype(np.float32 if bound < 2**24 else np.float64)
        self._float_dtype = dt

        #: Optional bound metric children set by :meth:`instrument`;
        #: None keeps the hot path at a single attribute check.
        self._obs: tuple | None = None

        # Each level's support lists first the coordinates no earlier
        # level touched ("fresh"), then the ones it revisits. Linear
        # level memories have disjoint supports, so nothing is revisited.
        touched = np.zeros(self.dim, dtype=bool)
        fresh_parts, revisit_parts = [], []
        for step in diffs:
            support = np.flatnonzero(step)
            seen = touched[support]
            fresh_parts.append(support[~seen])
            revisit_parts.append(support[seen])
            touched[support] = True
        self.supports = [
            np.concatenate(parts) for parts in zip(fresh_parts, revisit_parts)
        ]
        # The kernel works on a permuted D axis: every level's fresh
        # coordinates as one contiguous block, in level order, then the
        # coordinates no level touches. ``_inv`` restores the original
        # order; ``_ties`` is the sign(0) tie vector in permuted order.
        perm = np.concatenate(fresh_parts + [np.flatnonzero(~touched)])
        self._inv = np.argsort(perm)
        self._ties = tie_bits(self.dim)[perm]

        # The feature columns of all supports, gathered once on the
        # integer matrix and cast into one float buffer that holds each
        # step's (N, |support|) block contiguously: BLAS streams small
        # batches through a contiguous operand several times faster than
        # through a column view. For a linear level memory these total
        # N x D/2 floats. ``supports``, ``_fea_cols``, ``_dval_rows``
        # and ``_base`` all index the original D axis.
        n = self.n_features
        edges = np.cumsum([0] + [s.size for s in self.supports])
        gathered = fea[:, np.concatenate([perm[:0], *self.supports])]  # M = 1: none
        flat = np.empty(n * int(edges[-1]), dtype=dt)
        self._fea_cols = []
        for a, b in zip(edges[:-1], edges[1:]):
            cols = flat[n * a : n * b].reshape(n, b - a)
            cols[...] = gathered[:, a:b]
            self._fea_cols.append(cols)
        self._dval_rows = [diffs[m, s].astype(dt) for m, s in enumerate(self.supports)]
        base = fea.sum(axis=0, dtype=np.int64) * lev[0].astype(np.int64)
        self._base = base.astype(dt)
        self._perm_base = self._base[perm]
        # Where step m's contribution lands in the permuted buffer: its
        # fresh block is the basic slice ``[start, start + len(fresh))``;
        # a revisit adds onto the slot its coordinate took at the earlier
        # step that first touched it.
        starts = np.cumsum([0] + [f.size for f in fresh_parts])
        self._slots = [
            (int(start), int(fresh.size), self._inv[revisit])
            for start, fresh, revisit in zip(starts, fresh_parts, revisit_parts)
        ]
        max_support = max((int(s.size) for s in self.supports), default=0)
        # accumulator (D) + indicator (N) + contribution tile (|support|)
        # per row. The restore temporaries (the float gather on the dense
        # path; the sign planes and their bool gather on the packed path)
        # cover RESTORE_ROWS rows at a time, whatever the chunk.
        self._row_bytes = (self.dim + self.n_features + max_support) * dt.itemsize

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def instrument(self, metrics, scope: str = "library") -> None:
        """Attach observability counters to this plan's accumulate calls.

        ``metrics`` is a :class:`repro.obs.metrics.MetricsRegistry` (or
        anything with its surface); ``scope`` labels who owns the plan —
        the serving layer passes the tenant name. The counters record
        rows encoded and calls made (labelled with the kernel ``path``,
        always ``blas``) and how many chunks were served by the call's
        already-allocated scratch buffer (the reuse the engine exists to
        provide). Counting happens once per accumulate call, outside the
        chunk loop, so the overhead is independent of batch size; an
        un-instrumented plan pays one ``is None`` check.
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

    def _record_call(self, n_rows: int, chunk: int) -> None:
        rows, calls, reuse = self._obs  # type: ignore[misc]
        rows.add(n_rows)
        calls.inc()
        n_chunks = -(-n_rows // chunk)
        if n_chunks > 1:
            reuse.add(n_chunks - 1)

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------

    def _accumulate_blas_into(self, samples: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Base-init + one basic-slice add per level into the permuted ``out``.

        ``out`` holds the accumulations in the plan's permuted column
        order; only revisited coordinates (non-linear level memories)
        are added through an index array.
        """
        np.copyto(out, self._perm_base)
        # Levels fit the narrowest unsigned dtype, so the M - 1 threshold
        # passes read a byte per sample and write one reused buffer.
        levels = samples.astype(np.min_scalar_type(self.levels - 1))
        indicator = np.empty(samples.shape, dtype=self._float_dtype)
        for m, (cols, dval, (start, n_fresh, revisit)) in enumerate(
            zip(self._fea_cols, self._dval_rows, self._slots), start=1
        ):
            if cols.shape[1] == 0:
                continue
            np.greater_equal(levels, m, out=indicator)
            contribution = indicator @ cols
            contribution *= dval
            out[:, start : start + n_fresh] += contribution[:, :n_fresh]
            if revisit.size:
                out[:, revisit] += contribution[:, n_fresh:]
        return out

    def _run(
        self, samples: np.ndarray, chunk_size: int | None, packed: bool
    ) -> np.ndarray:
        """Shared chunk loop of :meth:`accumulate` and :meth:`accumulate_packed`.

        Accumulations stream chunk by chunk through one per-call float
        scratch buffer — allocated once and reused by every chunk, but
        scoped to the call, so nothing pins chunk-sized memory to the
        plan and concurrent calls on one encoder never share a buffer.
        Each chunk of exact small integers is then restored to the
        original column order, block by block: the float accumulations
        are gathered into the int64 output, or their sign bits (on the
        cheaper bool dtype) are gathered and then packed.
        """
        n_rows = int(samples.shape[0])
        if packed:
            out = np.empty((n_rows, packed_word_width(self.dim)), PACKED_WORD_DTYPE)
        else:
            out = np.empty((n_rows, self.dim), dtype=ACCUM_DTYPE)
        if n_rows == 0:
            return out
        chunk = resolve_chunk_size(self._row_bytes, n_rows, chunk_size)
        scratch = np.empty((chunk, self.dim), dtype=self._float_dtype)
        for start in range(0, n_rows, chunk):
            stop = min(start + chunk, n_rows)
            accums = self._accumulate_blas_into(
                samples[start:stop], scratch[: stop - start]
            )
            # Restore in row blocks, so the gather's temporaries stay
            # small and cache-resident instead of chunk-sized. ``_inv``
            # is a permutation of range(D): no index needs the bounds
            # check that mode="clip" skips.
            for first in range(0, stop - start, RESTORE_ROWS):
                block = accums[first : first + RESTORE_ROWS]
                dest = out[start + first : start + first + block.shape[0]]
                if packed:
                    bits = sign_bits(block, ties=self._ties)
                    pack_bits(bits.take(self._inv, axis=1, mode="clip"), dest)
                else:
                    dest[...] = block.take(self._inv, axis=1, mode="clip")
        if self._obs is not None:
            self._record_call(n_rows, chunk)
        return out

    def accumulate(
        self, samples: np.ndarray, chunk_size: int | None = None
    ) -> np.ndarray:
        """Encode a validated ``(B, N)`` level batch to ``(B, D)`` int64.

        Chunked along the batch axis so the per-tile working set stays
        under :data:`DEFAULT_MEMORY_BUDGET` (or exactly ``chunk_size``
        rows).
        """
        return self._run(samples, chunk_size, packed=False)

    def accumulate_packed(
        self, samples: np.ndarray, chunk_size: int | None = None
    ) -> np.ndarray:
        """Encode a validated ``(B, N)`` batch straight to packed bits.

        The fused binary path: each chunk binarizes *in place* into the
        returned ``(B, ceil(D/64))`` uint64 bit-planes — no int64 batch,
        no int8 sign matrix, no separate pack pass. Bit-exact with
        ``pack_words(binarize_batch(accumulate(samples)))``, which the
        parity tests pin.
        """
        return self._run(samples, chunk_size, packed=True)


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
    implementation did. Differential tests and the slow batch-engine
    gate in ``tests/encoding/test_engine_perf.py`` run this against
    :class:`EncodingPlan`; it is never used on a hot path.
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
