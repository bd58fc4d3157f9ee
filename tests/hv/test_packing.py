"""Tests for bit-packed hypervector storage and popcount Hamming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.engine import binarize_batch
from repro.errors import DimensionMismatchError
from repro.hv.packing import (
    PACKED_WORD_DTYPE,
    PackedPool,
    hamming_packed,
    pack,
    pack_signs,
    pack_words,
    packed_hamming,
    packed_word_width,
    pairwise_hamming_packed,
    unpack,
    unpack_words,
)
from repro.hv.random import random_hv, random_pool
from repro.hv.similarity import hamming


class TestPackUnpackRoundtrip:
    @pytest.mark.parametrize("dim", [8, 64, 100, 1000, 1027])
    def test_roundtrip(self, dim):
        hv = random_hv(dim, rng=dim)
        np.testing.assert_array_equal(unpack(pack(hv), dim), hv)

    def test_matrix_roundtrip(self):
        pool = random_pool(9, 333, rng=1)
        np.testing.assert_array_equal(unpack(pack(pool), 333), pool)

    def test_packed_size(self):
        hv = random_hv(1000, rng=0)
        assert pack(hv).nbytes == 125

    def test_pack_is_8x_smaller(self):
        pool = random_pool(16, 1024, rng=0)
        assert pack(pool).nbytes * 8 == pool.nbytes

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_dim(self, dim):
        hv = random_hv(dim, rng=dim)
        np.testing.assert_array_equal(unpack(pack(hv), dim), hv)


class TestUnpackToInt8:
    """Both unpackers map bits to +-1 inside the int8 unpackbits buffer."""

    DIM = 1001

    @staticmethod
    def _int16_spec(bits: np.ndarray) -> np.ndarray:
        """The former formula on unpacked bits: widen to int16, map, narrow."""
        return (2 * bits.astype(np.int16) - 1).astype(np.int8)

    def test_unpack(self):
        pool = random_pool(7, self.DIM, rng=3)
        out = unpack(pack(pool), self.DIM)
        assert out.dtype == np.int8
        assert out.flags.writeable
        np.testing.assert_array_equal(out, pool)
        np.testing.assert_array_equal(out, self._int16_spec(pool > 0))

    def test_unpack_words(self):
        pool = random_pool(7, self.DIM, rng=4)
        out = unpack_words(pack_words(pool), self.DIM)
        assert out.dtype == np.int8
        assert out.flags.writeable
        np.testing.assert_array_equal(out, pool)
        np.testing.assert_array_equal(out, self._int16_spec(pool > 0))

    def test_single_vector(self):
        hv = random_hv(self.DIM, rng=5)
        for out in (
            unpack(pack(hv), self.DIM),
            unpack_words(pack_words(hv), self.DIM),
        ):
            assert out.shape == (self.DIM,)
            assert out.dtype == np.int8
            np.testing.assert_array_equal(out, hv)


class TestPackedHamming:
    @pytest.mark.parametrize("dim", [64, 100, 512, 1001])
    def test_matches_unpacked(self, dim):
        a = random_hv(dim, rng=1)
        b = random_hv(dim, rng=2)
        assert packed_hamming(pack(a), pack(b), dim) == pytest.approx(
            float(hamming(a, b))
        )

    def test_matrix_vs_vector(self):
        pool = random_pool(6, 300, rng=3)
        target = random_hv(300, rng=4)
        packed = packed_hamming(pack(pool), pack(target), 300)
        np.testing.assert_allclose(packed, hamming(pool, target))

    def test_identical_zero(self):
        a = random_hv(77, rng=5)
        assert packed_hamming(pack(a), pack(a), 77) == 0.0

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            packed_hamming(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8), 32)

    def test_padding_bits_do_not_count(self):
        # dim=9 leaves 7 pad bits per row; they must never add distance.
        a = np.ones(9, dtype=np.int8)
        b = np.ones(9, dtype=np.int8)
        b[0] = -1
        assert packed_hamming(pack(a), pack(b), 9) == pytest.approx(1 / 9)


class TestWordPacking:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 100, 1000, 1027])
    def test_roundtrip(self, dim):
        hv = random_hv(dim, rng=dim)
        packed = pack_words(hv)
        assert packed.dtype == PACKED_WORD_DTYPE
        assert packed.shape == (packed_word_width(dim),)
        np.testing.assert_array_equal(unpack_words(packed, dim), hv)

    def test_matrix_roundtrip(self):
        pool = random_pool(9, 333, rng=1)
        np.testing.assert_array_equal(unpack_words(pack_words(pool), 333), pool)

    def test_word_width(self):
        assert packed_word_width(64) == 1
        assert packed_word_width(65) == 2
        assert packed_word_width(10_000) == 157

    def test_byte_layout_prefix_matches_pack(self):
        # The word layout is the byte layout zero-padded to a word
        # boundary: the uint8 view's leading bytes are exactly pack().
        pool = random_pool(4, 1000, rng=2)
        byte_rows = pack(pool)
        word_rows = pack_words(pool)
        view = word_rows.view(np.uint8)
        np.testing.assert_array_equal(view[:, : byte_rows.shape[1]], byte_rows)
        assert not view[:, byte_rows.shape[1] :].any()

    @pytest.mark.parametrize("dim", [64, 100, 999])
    def test_hamming_matches_byte_layout(self, dim):
        a, b = random_pool(5, dim, rng=3), random_hv(dim, rng=4)
        np.testing.assert_allclose(
            hamming_packed(pack_words(a), pack_words(b), dim),
            hamming_packed(pack(a), pack(b), dim),
        )

    def test_pairwise_hamming_words(self):
        a, b = random_pool(6, 130, rng=5), random_pool(4, 130, rng=6)
        np.testing.assert_allclose(
            pairwise_hamming_packed(pack_words(a), pack_words(b), 130, 2),
            pairwise_hamming_packed(pack(a), pack(b), 130, 2),
        )

    def test_mixed_layouts_rejected(self):
        pool = random_pool(3, 128, rng=7)
        with pytest.raises(DimensionMismatchError):
            hamming_packed(pack_words(pool), pack(pool), 128)
        with pytest.raises(DimensionMismatchError):
            pairwise_hamming_packed(pack(pool), pack_words(pool), 128)

    def test_unpack_words_rejects_byte_layout(self):
        # Value-casting a pack() byte row to uint64 words would decode
        # to garbage; the mix-up must raise, not return wrong bits.
        pool = random_pool(3, 128, rng=8)
        with pytest.raises(DimensionMismatchError):
            unpack_words(pack(pool), 128)


class TestPackSigns:
    @pytest.mark.parametrize("dim", [64, 100, 251])
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_matches_binarize_then_pack(self, dim, rows):
        # Small integer accums with plenty of exact zeros (ties).
        accums = np.random.default_rng(dim + rows).integers(-2, 3, (rows, dim))
        got = pack_signs(accums, np.random.default_rng(42))
        want = pack_words(binarize_batch(accums, np.random.default_rng(42)))
        assert got.dtype == PACKED_WORD_DTYPE
        np.testing.assert_array_equal(got, want)

    def test_float_accums_match_integer_accums(self):
        # The fused blas path hands float accumulators to pack_signs;
        # exact float zeros must tie-break identically to int zeros.
        accums = np.random.default_rng(0).integers(-3, 4, (7, 100))
        got = pack_signs(accums.astype(np.float32), np.random.default_rng(7))
        want = pack_signs(accums, np.random.default_rng(7))
        np.testing.assert_array_equal(got, want)

    def test_out_buffer_written_in_place(self):
        accums = np.random.default_rng(1).integers(-2, 3, (5, 130))
        out = np.empty((5, packed_word_width(130)), dtype=PACKED_WORD_DTYPE)
        result = pack_signs(accums, np.random.default_rng(3), out=out)
        assert result is out
        np.testing.assert_array_equal(
            out, pack_signs(accums, np.random.default_rng(3))
        )

    def test_bad_out_buffer_rejected(self):
        accums = np.zeros((2, 64))
        with pytest.raises(DimensionMismatchError):
            pack_signs(accums, out=np.empty((2, 5), dtype=PACKED_WORD_DTYPE))
        with pytest.raises(DimensionMismatchError):
            pack_signs(np.zeros(64))  # 1-D input

    def test_tie_stream_consumed_row_by_row(self):
        # Two batches that differ only in a later row must agree on all
        # earlier rows' tie draws.
        accums = np.zeros((3, 65), dtype=np.int64)
        accums[2, 0] = 5
        a = pack_signs(accums, np.random.default_rng(9))
        accums2 = accums.copy()
        accums2[2] = -1
        b = pack_signs(accums2, np.random.default_rng(9))
        np.testing.assert_array_equal(a[:2], b[:2])


class TestPackedPool:
    def test_len_and_dim(self):
        pool = PackedPool(random_pool(12, 200, rng=0))
        assert len(pool) == 12
        assert pool.dim == 200

    def test_unpack_row(self):
        raw = random_pool(5, 128, rng=1)
        pool = PackedPool(raw)
        np.testing.assert_array_equal(pool.unpack_row(3), raw[3])

    def test_unpack_all(self):
        raw = random_pool(5, 128, rng=2)
        np.testing.assert_array_equal(PackedPool(raw).unpack_all(), raw)

    def test_hamming_to(self):
        raw = random_pool(5, 128, rng=3)
        pool = PackedPool(raw)
        np.testing.assert_allclose(pool.hamming_to(raw[2]), hamming(raw, raw[2]))

    def test_nbytes(self):
        pool = PackedPool(random_pool(4, 800, rng=4))
        assert pool.nbytes == 4 * 100

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            PackedPool(random_hv(64, rng=5))


class TestPairwiseHammingErrorContract:
    def test_missing_dim_raises_repro_error(self):
        """dim=None must surface as the package's DimensionMismatchError,
        not a bare ValueError — callers catch ReproError subtypes."""
        rows = pack(random_pool(2, 64, rng=9))
        with pytest.raises(DimensionMismatchError, match="dim"):
            pairwise_hamming_packed(rows, rows)
