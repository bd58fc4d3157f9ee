"""Tests for bit-packed hypervector storage and popcount Hamming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.engine import binarize_batch
from repro.errors import DimensionMismatchError
from repro.hv.ops import tie_bits
from repro.hv.packing import (
    PACKED_WORD_DTYPE,
    hamming_packed,
    pack_signs,
    pack_words,
    packed_word_width,
    pairwise_hamming_packed,
    unpack_words,
)
from repro.hv.random import random_hv, random_pool
from repro.hv.similarity import hamming


class TestPackUnpackRoundtrip:
    @pytest.mark.parametrize("dim", [8, 64, 100, 1000, 1027])
    def test_roundtrip(self, dim):
        hv = random_hv(dim, rng=dim)
        np.testing.assert_array_equal(unpack_words(pack_words(hv), dim), hv)

    def test_matrix_roundtrip(self):
        pool = random_pool(9, 333, rng=1)
        np.testing.assert_array_equal(unpack_words(pack_words(pool), 333), pool)

    def test_packed_size(self):
        # 1000 bits round up to 16 words.
        hv = random_hv(1000, rng=0)
        assert pack_words(hv).nbytes == 128

    def test_pack_is_8x_smaller(self):
        pool = random_pool(16, 1024, rng=0)
        assert pack_words(pool).nbytes * 8 == pool.nbytes

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_dim(self, dim):
        hv = random_hv(dim, rng=dim)
        np.testing.assert_array_equal(unpack_words(pack_words(hv), dim), hv)


class TestUnpackToInt8:
    """unpack_words maps bits to +-1 inside the int8 unpackbits buffer."""

    DIM = 1001

    @staticmethod
    def _int16_spec(bits: np.ndarray) -> np.ndarray:
        """The former formula on unpacked bits: widen to int16, map, narrow."""
        return (2 * bits.astype(np.int16) - 1).astype(np.int8)

    def test_unpack_words(self):
        pool = random_pool(7, self.DIM, rng=4)
        out = unpack_words(pack_words(pool), self.DIM)
        assert out.dtype == np.int8
        assert out.flags.writeable
        np.testing.assert_array_equal(out, pool)
        np.testing.assert_array_equal(out, self._int16_spec(pool > 0))

    def test_single_vector(self):
        hv = random_hv(self.DIM, rng=5)
        out = unpack_words(pack_words(hv), self.DIM)
        assert out.shape == (self.DIM,)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, hv)


class TestPackedHamming:
    @pytest.mark.parametrize("dim", [64, 100, 512, 1001])
    def test_matches_unpacked(self, dim):
        a = random_hv(dim, rng=1)
        b = random_hv(dim, rng=2)
        assert hamming_packed(pack_words(a), pack_words(b), dim) == pytest.approx(
            float(hamming(a, b))
        )

    def test_matrix_vs_vector(self):
        pool = random_pool(6, 300, rng=3)
        target = random_hv(300, rng=4)
        packed = hamming_packed(pack_words(pool), pack_words(target), 300)
        np.testing.assert_allclose(packed, hamming(pool, target))

    def test_identical_zero(self):
        a = random_hv(77, rng=5)
        assert hamming_packed(pack_words(a), pack_words(a), 77) == 0.0

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming_packed(
                np.zeros(4, dtype=PACKED_WORD_DTYPE),
                np.zeros(5, dtype=PACKED_WORD_DTYPE),
                256,
            )

    def test_padding_bits_do_not_count(self):
        # dim=9 leaves 55 pad bits per row; they must never add distance.
        a = np.ones(9, dtype=np.int8)
        b = np.ones(9, dtype=np.int8)
        b[0] = -1
        assert hamming_packed(pack_words(a), pack_words(b), 9) == pytest.approx(1 / 9)


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

    def test_mixed_layouts_rejected(self):
        # A non-uint64 operand (here the same bits as uint8 byte rows) is
        # refused by every packed kernel, never value-cast into words.
        pool = random_pool(3, 128, rng=7)
        words = pack_words(pool)
        byte_rows = words.view(np.uint8)
        with pytest.raises(DimensionMismatchError, match="uint64"):
            hamming_packed(words, byte_rows, 128)
        with pytest.raises(DimensionMismatchError, match="uint64"):
            pairwise_hamming_packed(byte_rows, words, 128)
        with pytest.raises(DimensionMismatchError, match="uint64"):
            unpack_words(byte_rows, 128)


class TestPackSigns:
    @pytest.mark.parametrize("dim", [64, 100, 251])
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_matches_binarize_then_pack(self, dim, rows):
        # Small integer accums with plenty of exact zeros (ties).
        accums = np.random.default_rng(dim + rows).integers(-2, 3, (rows, dim))
        got = pack_signs(accums)
        want = pack_words(binarize_batch(accums))
        assert got.dtype == PACKED_WORD_DTYPE
        np.testing.assert_array_equal(got, want)

    def test_float_accums_match_integer_accums(self):
        # The fused blas path hands float accumulators to pack_signs;
        # exact float zeros must take the same tie bits as int zeros.
        accums = np.random.default_rng(0).integers(-3, 4, (7, 100))
        got = pack_signs(accums.astype(np.float32))
        want = pack_signs(accums)
        np.testing.assert_array_equal(got, want)

    def test_out_buffer_written_in_place(self):
        accums = np.random.default_rng(1).integers(-2, 3, (5, 130))
        out = np.empty((5, packed_word_width(130)), dtype=PACKED_WORD_DTYPE)
        result = pack_signs(accums, out=out)
        assert result is out
        np.testing.assert_array_equal(out, pack_signs(accums))

    def test_bad_out_buffer_rejected(self):
        accums = np.zeros((2, 64))
        with pytest.raises(DimensionMismatchError):
            pack_signs(accums, out=np.empty((2, 5), dtype=PACKED_WORD_DTYPE))
        with pytest.raises(DimensionMismatchError):
            pack_signs(np.zeros(64))  # 1-D input

    def test_rows_tie_independently(self):
        # Every all-zero row packs to the fixed tie vector, whatever the
        # other rows of the batch hold.
        accums = np.zeros((3, 65), dtype=np.int64)
        accums[2, 0] = 5
        a = pack_signs(accums)
        accums2 = accums.copy()
        accums2[2] = -1
        b = pack_signs(accums2)
        np.testing.assert_array_equal(a[:2], b[:2])
        np.testing.assert_array_equal(a[0], pack_words(np.where(tie_bits(65), 1, -1)))
        np.testing.assert_array_equal(a[1], a[0])


class TestPairwiseHammingErrorContract:
    def test_missing_dim_raises_repro_error(self):
        """dim=None must surface as the package's DimensionMismatchError,
        not a bare ValueError — callers catch ReproError subtypes."""
        rows = pack_words(random_pool(2, 64, rng=9))
        with pytest.raises(DimensionMismatchError, match="dim"):
            pairwise_hamming_packed(rows, rows)

    @pytest.mark.parametrize(
        "kernel, dim",
        [
            ("unpack", 100),  # 64 bits decoded as 100: 36 made-up coordinates
            ("hamming", 10),  # 64 mismatches normalized by 10: a distance of 6.4
            ("unpack", 10),  # 54 set bits silently dropped
            ("pairwise", 0),  # divides by zero: nan plus a RuntimeWarning
            ("hamming", 0),
            ("unpack", 0),
            ("pairwise", 65),
        ],
    )
    def test_dim_must_match_packed_width(self, kernel, dim):
        """A dim that does not fit the operands' word width is refused,
        never silently decoded or normalized."""
        rows = pack_words(random_pool(2, 64, rng=10))
        calls = {
            "unpack": lambda: unpack_words(rows, dim),
            "hamming": lambda: hamming_packed(rows, ~rows, dim),
            "pairwise": lambda: pairwise_hamming_packed(rows, rows, dim),
        }
        with pytest.raises(DimensionMismatchError, match="dim"):
            calls[kernel]()
