"""Property-based tests of the hypervector substrate.

Randomized algebraic laws over arbitrary shapes — the HDXplore-style
harness guarding the kernels every encoder, classifier, and attack is
built from: bind is a self-inverse involution, permutation composes to
identity, packing round-trips, and the packed XOR-popcount Hamming
kernels agree exactly with their dense counterparts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hv.ops import bind, permute
from repro.hv.packing import (
    hamming_packed,
    pack_words,
    pairwise_hamming_packed,
    unpack_words,
)
from repro.hv.random import random_pool
from repro.hv.similarity import hamming

SETTINGS = settings(max_examples=25, deadline=None)

dims = st.integers(min_value=1, max_value=160)
counts = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(dims, counts, seeds)
@SETTINGS
def test_bind_is_self_inverse(dim, count, seed):
    pool = random_pool(2 * count, dim, rng=seed)
    a, b = pool[:count], pool[count:]
    np.testing.assert_array_equal(bind(bind(a, b), b), a)
    # ...and commutative, while we're here.
    np.testing.assert_array_equal(bind(a, b), bind(b, a))


@given(dims, st.integers(min_value=-500, max_value=500), seeds)
@SETTINGS
def test_permute_roundtrip(dim, k, seed):
    hv = random_pool(1, dim, rng=seed)[0]
    np.testing.assert_array_equal(permute(permute(hv, k), -k), hv)
    # rho_k o rho_{-k} == identity stated the other way around:
    np.testing.assert_array_equal(permute(permute(hv, -k), k), hv)


@given(dims, counts, seeds)
@SETTINGS
def test_pack_unpack_roundtrip(dim, count, seed):
    pool = random_pool(count, dim, rng=seed)
    np.testing.assert_array_equal(unpack_words(pack_words(pool), dim), pool)


@given(dims, seeds)
@SETTINGS
def test_hamming_matches_packed(dim, seed):
    pool = random_pool(2, dim, rng=seed)
    dense = float(hamming(pool[0], pool[1]))
    packed = hamming_packed(pack_words(pool[0]), pack_words(pool[1]), dim)
    assert packed == dense  # both are exact multiples of 1/dim


@given(dims, counts, seeds)
@SETTINGS
def test_hamming_stack_matches_packed(dim, count, seed):
    pool = random_pool(count + 1, dim, rng=seed)
    stack, target = pool[:-1], pool[-1]
    np.testing.assert_array_equal(
        np.asarray(hamming_packed(pack_words(stack), pack_words(target), dim)),
        np.asarray(hamming(stack, target)),
    )


@given(dims, counts, counts, seeds, st.integers(min_value=1, max_value=4))
@SETTINGS
def test_pairwise_packed_matches_dense(dim, ka, kb, seed, chunk):
    a = random_pool(ka, dim, rng=seed)
    b = random_pool(kb, dim, rng=seed + 1)
    got = pairwise_hamming_packed(pack_words(a), pack_words(b), dim, chunk_size=chunk)
    want = np.array([[float(hamming(x, y)) for y in b] for x in a])
    np.testing.assert_array_equal(got, want)
