"""Unit and property tests for the MAP operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.hv import ops
from repro.hv.random import random_hv, random_pool

DIM = 256


def hv_strategy(dim: int = 64):
    """Hypothesis strategy generating bipolar hypervectors."""
    return st.lists(
        st.sampled_from([-1, 1]), min_size=dim, max_size=dim
    ).map(lambda xs: np.array(xs, dtype=np.int8))


class TestCheckSameDim:
    def test_matching(self):
        assert ops.check_same_dim(np.ones(5), np.ones((3, 5))) == 5

    def test_mismatched(self):
        with pytest.raises(DimensionMismatchError):
            ops.check_same_dim(np.ones(5), np.ones(6))


class TestBind:
    def test_self_inverse(self, rng):
        a = random_hv(DIM, rng)
        b = random_hv(DIM, rng)
        np.testing.assert_array_equal(ops.bind(ops.bind(a, b), b), a)

    def test_commutative(self, rng):
        a, b = random_pool(2, DIM, rng)
        np.testing.assert_array_equal(ops.bind(a, b), ops.bind(b, a))

    def test_identity_is_ones(self, rng):
        a = random_hv(DIM, rng)
        np.testing.assert_array_equal(ops.bind(a, np.ones(DIM, dtype=np.int8)), a)

    def test_broadcasts_pool_against_vector(self, rng):
        pool = random_pool(7, DIM, rng)
        v = random_hv(DIM, rng)
        out = ops.bind(pool, v)
        assert out.shape == (7, DIM)
        np.testing.assert_array_equal(out[3], ops.bind(pool[3], v))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ops.bind(np.ones(4), np.ones(5))

    @given(hv_strategy(), hv_strategy())
    @settings(max_examples=25, deadline=None)
    def test_result_stays_bipolar(self, a, b):
        out = ops.bind(a, b)
        assert set(np.unique(out)).issubset({-1, 1})


class TestBindMany:
    def test_single_copies(self, rng):
        a = random_hv(DIM, rng)
        out = ops.bind_many(a)
        np.testing.assert_array_equal(out, a)
        out[0] = -out[0]
        assert out[0] != a[0]  # must be a copy

    def test_two_equals_bind(self, rng):
        a, b = random_pool(2, DIM, rng)
        np.testing.assert_array_equal(ops.bind_many([a, b]), ops.bind(a, b))

    def test_order_invariant(self, rng):
        hvs = random_pool(4, DIM, rng)
        np.testing.assert_array_equal(
            ops.bind_many(hvs), ops.bind_many(hvs[::-1])
        )

    def test_repeated_pair_cancels(self, rng):
        a = random_hv(DIM, rng)
        out = ops.bind_many([a, a])
        np.testing.assert_array_equal(out, np.ones(DIM, dtype=np.int8))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ops.bind_many(np.empty((0, DIM), dtype=np.int8))


class TestBundle:
    def test_counts_votes(self):
        hvs = np.array([[1, -1, 1], [1, 1, -1], [1, -1, -1]], dtype=np.int8)
        np.testing.assert_array_equal(ops.bundle(hvs), [3, -1, -1])

    def test_single_vector_promotes_dtype(self, rng):
        a = random_hv(DIM, rng)
        out = ops.bundle(a)
        assert out.dtype == ops.ACCUM_DTYPE

    def test_no_overflow_at_scale(self):
        hvs = np.ones((300, 8), dtype=np.int8)
        np.testing.assert_array_equal(ops.bundle(hvs), np.full(8, 300))


class TestPermute:
    def test_matches_paper_definition(self):
        hv = np.array([10, 20, 30, 40, 50])
        # rho_k(HV) = {HV[k : D-1], HV[0 : k-1]}
        np.testing.assert_array_equal(ops.permute(hv, 2), [30, 40, 50, 10, 20])

    def test_zero_is_identity(self, rng):
        a = random_hv(DIM, rng)
        np.testing.assert_array_equal(ops.permute(a, 0), a)

    def test_full_rotation_is_identity(self, rng):
        a = random_hv(DIM, rng)
        np.testing.assert_array_equal(ops.permute(a, DIM), a)

    def test_negative_rotates_right(self):
        hv = np.array([1, 2, 3, 4])
        np.testing.assert_array_equal(ops.permute(hv, -1), [4, 1, 2, 3])

    def test_composition_adds(self, rng):
        a = random_hv(DIM, rng)
        np.testing.assert_array_equal(
            ops.permute(ops.permute(a, 3), 5), ops.permute(a, 8)
        )

    def test_inverse(self, rng):
        a = random_hv(DIM, rng)
        np.testing.assert_array_equal(
            ops.permute(ops.permute(a, 17), -17), a
        )

    def test_matrix_rotates_last_axis(self, rng):
        pool = random_pool(3, DIM, rng)
        out = ops.permute(pool, 5)
        for i in range(3):
            np.testing.assert_array_equal(out[i], ops.permute(pool[i], 5))

    @given(st.integers(min_value=-200, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_any_k_preserves_multiset(self, k):
        hv = np.arange(32)
        out = ops.permute(hv, k)
        assert sorted(out) == sorted(hv)


class TestPermuteRows:
    def test_per_row_shifts(self, rng):
        pool = random_pool(4, DIM, rng)
        shifts = [0, 1, 7, DIM - 1]
        out = ops.permute_rows(pool, shifts)
        for i, k in enumerate(shifts):
            np.testing.assert_array_equal(out[i], ops.permute(pool[i], k))

    def test_shift_count_mismatch(self, rng):
        pool = random_pool(4, DIM, rng)
        with pytest.raises(DimensionMismatchError):
            ops.permute_rows(pool, [1, 2])

    def test_requires_matrix(self, rng):
        with pytest.raises(ValueError):
            ops.permute_rows(random_hv(DIM, rng), [1])

    def test_shifts_wrap_modulo(self, rng):
        pool = random_pool(2, DIM, rng)
        out = ops.permute_rows(pool, [DIM + 3, 2 * DIM])
        np.testing.assert_array_equal(out[0], ops.permute(pool[0], 3))
        np.testing.assert_array_equal(out[1], pool[1])

    @staticmethod
    def _roll_spec(mat, shifts):
        """Executable spec: one np.roll per row, left by ``shifts[i]``."""
        rows = [np.roll(row, -int(k)) for row, k in zip(mat, shifts, strict=True)]
        return np.array(rows, dtype=mat.dtype).reshape(mat.shape)

    @pytest.mark.parametrize(
        "shifts",
        [
            [-1, -DIM, -DIM - 5, -3 * DIM + 7],
            [2 * DIM, 2 * DIM + 1, 5 * DIM - 1, 10**9],
            [0, DIM - 1, DIM, -(10**9)],
            [DIM + 9],
            [-2 * DIM - 9],
        ],
    )
    def test_matches_roll_spec(self, rng, shifts):
        pool = random_pool(len(shifts), DIM, rng)
        np.testing.assert_array_equal(
            ops.permute_rows(pool, shifts), self._roll_spec(pool, shifts)
        )

    def test_empty_matrix(self):
        pool = np.empty((0, DIM), dtype=ops.BIPOLAR_DTYPE)
        out = ops.permute_rows(pool, np.empty(0, dtype=np.int64))
        assert out.shape == (0, DIM)
        assert out.dtype == ops.BIPOLAR_DTYPE

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda pool: np.repeat(pool, 2, axis=1)[:, ::2]],
        ids=["fortran-order", "column-sliced"],
    )
    def test_non_contiguous_input(self, rng, layout):
        pool = layout(random_pool(6, DIM, rng))
        assert not pool.flags.c_contiguous
        shifts = [0, 1, -1, DIM, 3 * DIM + 2, -7]
        np.testing.assert_array_equal(
            ops.permute_rows(pool, shifts), self._roll_spec(pool, shifts)
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.float64])
    def test_output_is_fresh_writable_same_dtype(self, rng, dtype):
        pool = random_pool(4, DIM, rng).astype(dtype)
        out = ops.permute_rows(pool, [0, 1, 2, 3])
        assert out.dtype == pool.dtype
        assert out.flags.writeable
        assert not np.shares_memory(out, pool)

    def test_rotation_windows_are_every_rotation(self, rng):
        pool = random_pool(3, 16, rng)
        windows = ops.rotation_windows(pool)
        assert windows.shape == (3, 17, 16)
        for i in range(3):
            for k in range(16):
                np.testing.assert_array_equal(windows[i, k], ops.permute(pool[i], k))


class TestSign:
    def test_positive_negative(self):
        out = ops.sign(np.array([5, -3, 1, -1]))
        np.testing.assert_array_equal(out, [1, -1, 1, -1])

    def test_zero_ties_are_random_but_bipolar(self):
        # Ties take the fixed tie vector, whose bits are a random draw:
        # roughly balanced across coordinates.
        out = ops.sign(np.zeros(1000))
        assert set(np.unique(out)) == {-1, 1}
        assert 350 < np.count_nonzero(out == 1) < 650
        np.testing.assert_array_equal(out == 1, ops.tie_bits(1000))

    def test_zero_ties_reproducible_with_seed(self):
        # The tie vector is drawn once from TIE_SEED; every call, and
        # every row of a batch, reuses it.
        want = np.random.default_rng(ops.TIE_SEED).integers(0, 2, 64, dtype=bool)
        np.testing.assert_array_equal(ops.tie_bits(64), want)
        a = ops.sign(np.zeros(64))
        b = ops.sign(np.zeros((3, 64)))
        np.testing.assert_array_equal(b, np.broadcast_to(a, (3, 64)))

    def test_ties_only_where_zero(self):
        accum = np.array([[3, 0, -2, 0], [0, 0, 0, 0]])
        ties = np.where(ops.tie_bits(4), 1, -1)
        out = ops.sign(accum)
        np.testing.assert_array_equal(out[0], [1, ties[1], -1, ties[3]])
        np.testing.assert_array_equal(out[1], ties)

    def test_tie_vector_is_read_only(self):
        with pytest.raises(ValueError):
            ops.tie_bits(64)[0] = True

    def test_output_dtype(self):
        assert ops.sign(np.array([2.5, -0.5])).dtype == ops.BIPOLAR_DTYPE


class TestInvertAndStack:
    def test_stack_builds_matrix(self, rng):
        hvs = [random_hv(DIM, rng) for _ in range(3)]
        out = ops.stack(hvs)
        assert out.shape == (3, DIM)
