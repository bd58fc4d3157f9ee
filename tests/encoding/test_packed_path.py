"""End-to-end tests of the fused packed-domain hot path.

Four properties pin the packed hot path:

* **parity** — ``encode_batch_packed`` is bit-identical to word-packing
  the dense binary ``encode_batch`` output, for linear and non-linear
  level memories, odd dimensions, chunk boundaries, and the shared
  sign(0) tie vector;
* **one kernel** — non-linear level memories and large magnitudes run
  the same level-difference BLAS kernel as the paper's linear levels
  and stay bit-exact against the per-sample reference, dense and
  packed; bounds no float mantissa holds are refused;
* **permuted layout** — the plan's contiguous-support column order is
  invisible: at plan edges (one level, two levels, an empty level step,
  overlapping non-linear supports, sign(0) ties) and ragged chunks, the
  plan matches the per-sample reference, and its support attributes
  keep their original-column meaning;
* **zero round-trips** — binary classifier inference and attack pool
  scoring never call the dense binarize / byte-pack / unpack helpers
  once their caches are warm: encodings flow as uint64 bit-planes from
  the engine to the XOR-popcount kernels.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.encoding.record as record_mod
import repro.model.classifier as classifier_mod
from repro.encoding.engine import (
    RESTORE_ROWS,
    EncodingPlan,
    encode_batch_reference,
)
from repro.encoding.oracle import EncodingOracle
from repro.encoding.record import RecordEncoder
from repro.errors import ConfigurationError
from repro.hdlock.lock import create_locked_encoder
from repro.hv.packing import PACKED_WORD_DTYPE, pack_words
from repro.hv.random import random_pool
from repro.memory.item_memory import FeatureMemory, LevelMemory
from repro.model.classifier import HDClassifier

ODD_DIM = 251


def _record(dim: int, n_features: int = 13):
    return RecordEncoder.random(n_features, levels=6, dim=dim, rng=424242)


def _locked(dim: int):
    return create_locked_encoder(
        n_features=11, levels=5, dim=dim, layers=2, rng=987
    ).encoder


def _nonlinear(dim: int):
    # Random level hypervectors: dense level differences, no Eq. 1b
    # structure for the decomposition to exploit.
    feature = FeatureMemory(random_pool(9, dim, rng=31))
    level = LevelMemory(random_pool(32, dim, rng=32))
    return RecordEncoder(feature, level)


ENCODERS = {
    "record-odd-dim": lambda: _record(ODD_DIM),
    "record-even-dim": lambda: _record(256),
    # Even N: accumulations are even, so sign(0) ties occur.
    "record-even-n": lambda: _record(ODD_DIM, n_features=12),
    "locked-two-layer": lambda: _locked(ODD_DIM),
    "nonlinear-levels": lambda: _nonlinear(ODD_DIM),
}


def _samples(encoder, batch: int, seed: int = 7) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.integers(0, encoder.levels, size=(batch, encoder.n_features))


class TestPackedParity:
    @pytest.mark.parametrize("name", sorted(ENCODERS))
    @pytest.mark.parametrize("batch", [0, 1, 7, 33])
    def test_packed_equals_dense_then_pack(self, name, batch):
        encoder = ENCODERS[name]()
        samples = _samples(encoder, batch)
        got = encoder.encode_batch_packed(samples)
        want = pack_words(encoder.encode_batch(samples, binary=True))
        assert got.dtype == PACKED_WORD_DTYPE
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 64])
    def test_chunk_boundaries(self, chunk_size):
        encoder = ENCODERS["record-even-n"]()
        samples = _samples(encoder, 33)
        got = encoder.plan.accumulate_packed(samples, chunk_size=chunk_size)
        want = pack_words(encoder.encode_batch(samples, binary=True))
        np.testing.assert_array_equal(got, want)

    def test_tiny_memory_budget(self, monkeypatch):
        monkeypatch.setattr("repro.encoding.engine.DEFAULT_MEMORY_BUDGET", 1)
        encoder = ENCODERS["nonlinear-levels"]()
        samples = _samples(encoder, 9)
        got = encoder.encode_batch_packed(samples)
        want = pack_words(encoder.encode_batch(samples, binary=True))
        np.testing.assert_array_equal(got, want)

    def test_ties_shared_with_dense_path(self):
        # N = 4, M = 2 ties often. Packed and dense encodes break the
        # ties with the same fixed vector, and neither leaves state
        # behind: interleaving them gives the bits of either alone.
        encoder = RecordEncoder.random(n_features=4, levels=2, dim=ODD_DIM, rng=55)
        first = _samples(encoder, 11, seed=2)
        second = _samples(encoder, 6, seed=3)
        assert (encoder.encode_batch(first, binary=False) == 0).any()
        dense_first = encoder.encode_batch(first, binary=True)
        dense_second = encoder.encode_batch(second, binary=True)
        np.testing.assert_array_equal(
            encoder.encode_batch_packed(first), pack_words(dense_first)
        )
        np.testing.assert_array_equal(
            encoder.encode_batch(second, binary=True), dense_second
        )
        np.testing.assert_array_equal(
            encoder.encode_batch_packed(second), pack_words(dense_second)
        )

    def test_encode_packed_single(self):
        encoder = ENCODERS["record-even-n"]()
        sample = _samples(encoder, 1)[0]
        np.testing.assert_array_equal(
            encoder.encode_packed(sample),
            pack_words(encoder.encode(sample, binary=True)),
        )


class TestVectorizedFallback:
    """Level memories the decomposition was not built for stay exact.

    They used to fall back to other kernels; now the one BLAS kernel
    runs them, checked against the per-sample reference, dense and
    packed.
    """

    @staticmethod
    def _assert_matches_reference(encoder, samples, chunk_size=None):
        lev = encoder.level_memory.matrix
        fea = encoder.feature_matrix
        np.testing.assert_array_equal(
            encoder.plan.accumulate(samples, chunk_size=chunk_size),
            encode_batch_reference(lev, fea, samples, binary=False),
        )
        np.testing.assert_array_equal(
            encoder.plan.accumulate_packed(samples, chunk_size=chunk_size),
            pack_words(encode_batch_reference(lev, fea, samples, binary=True)),
        )

    @pytest.mark.parametrize("dim", [64, ODD_DIM, 1027])
    @pytest.mark.parametrize("batch", [1, 7, 33])
    def test_bit_exact_vs_per_sample_reference(self, dim, batch):
        encoder = _nonlinear(dim)
        assert encoder.plan.mode == "blas"
        self._assert_matches_reference(encoder, _samples(encoder, batch))

    @pytest.mark.parametrize("chunk_size", [1, 4, 5, 64])
    def test_chunk_boundaries(self, chunk_size):
        encoder = _nonlinear(ODD_DIM)
        self._assert_matches_reference(
            encoder, _samples(encoder, 17), chunk_size=chunk_size
        )

    def test_large_magnitudes_run_exact_float64_blas(self):
        # Level entries of magnitude 2**28 push the accumulation bound
        # past a float32 mantissa but well inside float64's.
        dim = 64
        gen = np.random.default_rng(8)
        level = LevelMemory(
            (2 * gen.integers(0, 2, (40, dim)) - 1).astype(np.int64) * 2**28
        )
        feature = FeatureMemory(random_pool(6, dim, rng=9))
        encoder = RecordEncoder(feature, level)
        assert encoder.plan.mode == "blas"
        assert encoder.plan._float_dtype == np.float64
        self._assert_matches_reference(encoder, _samples(encoder, 5))

    def test_bound_beyond_float64_mantissa_refused(self):
        # 9 * 2**50 * (1 + 2 * 31) >= 2**53: no float holds it exactly.
        level = random_pool(32, 64, rng=32).astype(np.int64) * 2**50
        feature = random_pool(9, 64, rng=31)
        with pytest.raises(ConfigurationError, match=r"2\*\*53"):
            EncodingPlan(level, feature)


def _empty_step() -> tuple[np.ndarray, np.ndarray]:
    levels = random_pool(5, ODD_DIM, rng=41)
    levels[2] = levels[1]  # step 2 changes no coordinate
    return levels, random_pool(9, ODD_DIM, rng=42)


def _linear_even_n() -> tuple[np.ndarray, np.ndarray]:
    encoder = _record(ODD_DIM, n_features=12)
    return encoder.level_memory.matrix, encoder.feature_matrix


PLAN_CASES = {
    "one-level": lambda: (
        random_pool(1, ODD_DIM, rng=43),
        random_pool(9, ODD_DIM, rng=44),
    ),
    "two-levels": lambda: (
        random_pool(2, ODD_DIM, rng=45),
        random_pool(9, ODD_DIM, rng=46),
    ),
    "empty-step": _empty_step,
    # Even N: accumulations are even, so sign(0) ties occur.
    "linear-even-n": _linear_even_n,
    # Random levels: every support overlaps the earlier ones.
    "nonlinear-overlap": lambda: (
        random_pool(8, ODD_DIM, rng=47),
        random_pool(10, ODD_DIM, rng=48),
    ),
}


class TestPermutedLayout:
    """The plan reorders the D axis; nothing outside it can tell."""

    @pytest.mark.parametrize("name", sorted(PLAN_CASES))
    @pytest.mark.parametrize("chunk_size", [1, 4, 5, None])
    def test_matches_reference(self, name, chunk_size):
        lev, fea = PLAN_CASES[name]()
        plan = EncodingPlan(lev, fea)
        gen = np.random.default_rng(9)
        # More rows than RESTORE_ROWS, not a multiple of it: one default
        # chunk restores in several blocks, the last one ragged.
        rows = 2 * RESTORE_ROWS + 5
        samples = gen.integers(0, lev.shape[0], size=(rows, fea.shape[0]))
        want = encode_batch_reference(lev, fea, samples, binary=False)
        np.testing.assert_array_equal(plan.accumulate(samples, chunk_size), want)
        np.testing.assert_array_equal(
            plan.accumulate_packed(samples, chunk_size),
            pack_words(encode_batch_reference(lev, fea, samples, binary=True)),
        )

    def test_cases_reach_ties_and_overlaps(self):
        lev, fea = PLAN_CASES["linear-even-n"]()
        samples = np.random.default_rng(9).integers(0, lev.shape[0], (13, 12))
        assert (encode_batch_reference(lev, fea, samples, binary=False) == 0).any()
        supports = EncodingPlan(*PLAN_CASES["nonlinear-overlap"]()).supports
        assert sum(s.size for s in supports) > np.unique(np.concatenate(supports)).size
        assert EncodingPlan(*PLAN_CASES["empty-step"]()).supports[1].size == 0
        assert EncodingPlan(*PLAN_CASES["one-level"]()).supports == []

    @pytest.mark.parametrize("name", sorted(PLAN_CASES))
    def test_support_attributes_keep_original_columns(self, name):
        # The slow row-overhead gate rebuilds the unpermuted kernel from
        # these attributes, so each must index the original D axis.
        lev, fea = PLAN_CASES[name]()
        plan = EncodingPlan(lev, fea)
        diffs = np.diff(lev.astype(np.int64), axis=0)
        assert len(plan.supports) == lev.shape[0] - 1
        for m, support in enumerate(plan.supports):
            np.testing.assert_array_equal(np.sort(support), np.flatnonzero(diffs[m]))
            np.testing.assert_array_equal(plan._fea_cols[m], fea[:, support])
            np.testing.assert_array_equal(plan._dval_rows[m], diffs[m, support])
        np.testing.assert_array_equal(
            plan._base, fea.sum(axis=0, dtype=np.int64) * lev[0]
        )

    def test_plan_memory_stays_bounded(self):
        # The feature columns of every support, stored once: N x D/2
        # float32 is 3.06 MiB at the MNIST shape. A second copy of them
        # (or of the full feature matrix) breaks the bound.
        encoder = RecordEncoder.random(784, levels=16, dim=2048, rng=5)
        lev, fea = encoder.level_memory.matrix, encoder.feature_matrix
        tracemalloc.start()
        try:
            plan = EncodingPlan(lev, fea)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.levels == 16
        assert retained <= 3.5 * 2**20, f"plan retains {retained / 2**20:.2f} MiB"


class TestZeroRoundTrips:
    """Dtype-flow and kernel-call-count assertions for the hot path."""

    def _trained_model(self, encoder_factory=None):
        encoder = (encoder_factory or (lambda: _record(ODD_DIM)))()
        gen = np.random.default_rng(17)
        samples = gen.integers(0, encoder.levels, (40, encoder.n_features))
        labels = gen.integers(0, 3, 40)
        model = HDClassifier(encoder, n_classes=3, binary=True)
        model.fit(samples, labels)
        return model, samples

    def test_predict_flows_packed_end_to_end(self, monkeypatch):
        model, samples = self._trained_model()
        model.predict(samples)  # warm the packed class-memory cache

        def boom(name):
            def _fail(*args, **kwargs):
                raise AssertionError(f"{name} called on the packed hot path")

            return _fail

        # No dense binarize, no unpack, and no re-pack of the cached
        # class memory during steady-state predict.
        monkeypatch.setattr(record_mod, "binarize_batch", boom("binarize_batch"))
        monkeypatch.setattr(classifier_mod, "pack_words", boom("pack_words"))
        monkeypatch.setattr("repro.hv.packing.unpack_words", boom("unpack_words"))
        predictions = model.predict(samples)
        assert predictions.shape == (40,)

    def test_predict_matches_dense_reference_flow(self):
        model, samples = self._trained_model()
        encoded = model.encoder.encode_batch(samples, binary=True)
        np.testing.assert_array_equal(
            model.predict(samples), model._predict_encoded(encoded)
        )

    def test_locked_encoder_inference_flows_packed(self, monkeypatch):
        model, samples = self._trained_model(lambda: _locked(ODD_DIM))
        model.predict(samples)
        monkeypatch.setattr(record_mod, "binarize_batch", boom_any)
        monkeypatch.setattr(classifier_mod, "pack_words", boom_any)
        assert model.predict(samples).shape == (40,)

    def test_packed_class_memory_dtype(self):
        model, samples = self._trained_model()
        model.predict(samples)
        assert model._packed_classes is not None
        assert model._packed_classes.dtype == PACKED_WORD_DTYPE
        assert model.encoder.encode_batch_packed(samples).dtype == PACKED_WORD_DTYPE

    def test_attack_scoring_stays_packed(self, monkeypatch):
        from repro.attack.hdlock_attack import (
            observe_difference,
            score_guess,
            score_guesses,
        )
        from repro.attack.threat_model import expose_locked_model

        system = create_locked_encoder(6, 4, 128, layers=1, rng=3)
        surface, _ = expose_locked_model(system.encoder)
        observation = observe_difference(surface, feature=0)
        guesses = [system.key.subkeys[0], system.key.subkeys[1]]
        monkeypatch.setattr("repro.hv.packing.unpack_words", boom_any)
        scores = score_guesses(surface, observation, guesses)
        np.testing.assert_allclose(
            scores,
            [score_guess(surface, observation, g) for g in guesses],
        )
        assert scores[0] == pytest.approx(0.0)

    def test_oracle_packed_queries(self, monkeypatch):
        encoder = ENCODERS["record-odd-dim"]()
        oracle = EncodingOracle(encoder, binary=True)
        samples = _samples(encoder, 8)
        # Three-row chunks, the last one ragged.
        monkeypatch.setattr(
            "repro.encoding.engine.DEFAULT_MEMORY_BUDGET",
            3 * encoder.plan._row_bytes,
        )
        got = oracle.query_batch_packed(samples)
        np.testing.assert_array_equal(
            got, pack_words(encoder.encode_batch(samples, binary=True))
        )
        assert oracle.n_queries == 8

    def test_oracle_packed_queries_require_binary(self):
        oracle = EncodingOracle(ENCODERS["record-odd-dim"](), binary=False)
        with pytest.raises(ConfigurationError):
            oracle.query_batch_packed(np.zeros((1, 13), dtype=np.int64))


def boom_any(*args, **kwargs):
    raise AssertionError("dense pack/unpack helper called on the packed hot path")
