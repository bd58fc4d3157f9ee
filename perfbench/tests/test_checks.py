"""The correctness checks catch corrupted answers and tolerate tie-breaks."""

import json

import numpy as np
import pytest

from perfbench import checks


def _reference(acc: np.ndarray, class_bits: np.ndarray) -> dict:
    return {
        "acc": acc,
        "dim": acc.shape[1],
        "n_classes": class_bits.shape[0],
        "certain": [checks.certain_label(row, class_bits) for row in acc],
    }


def _hex(bits: np.ndarray) -> str:
    words = np.packbits(bits).view("<u8").astype(">u8")
    return words.tobytes().hex()


@pytest.fixture
def encoded():
    from repro.hdlock.lock import create_locked_encoder
    from repro.serving.schemas import packed_rows_to_hex

    system = create_locked_encoder(16, 8, 256, layers=2, rng=3)
    samples = np.random.default_rng(4).integers(0, 8, size=(6, 16))
    acc = system.encoder.encode_batch(samples, binary=False)
    served = packed_rows_to_hex(system.encoder.encode_batch_packed(samples))
    return acc, list(served)


def test_hex_decoding_matches_the_program_wire_format(encoded):
    acc, served = encoded
    assert (acc == 0).any(), "fixture should contain sign(0) ties"
    for text, row in zip(served, acc, strict=True):
        assert checks.encode_matches(checks.hex_to_bits(text, acc.shape[1]), row)


def test_one_flipped_non_tie_bit_is_caught(encoded):
    acc, served = encoded
    bits = checks.hex_to_bits(served[0], acc.shape[1])
    pinned = int(np.flatnonzero(acc[0] != 0)[0])
    bits[pinned] = ~bits[pinned]
    body = json.dumps({"packed_hex": [_hex(bits)]}).encode()
    why = checks.check_response("encode", 200, body, [0], {"acc": acc, "dim": acc.shape[1]})
    assert why is not None and "sign(accumulator)" in why


def test_a_flipped_tie_bit_is_accepted(encoded):
    acc, served = encoded
    row = int(np.flatnonzero((acc == 0).any(axis=1))[0])
    bits = checks.hex_to_bits(served[row], acc.shape[1])
    tie = int(np.flatnonzero(acc[row] == 0)[0])
    bits[tie] = ~bits[tie]
    assert checks.encode_matches(bits, acc[row])


def test_certain_label_respects_tie_count():
    class_bits = np.array([[1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0]], dtype=bool)
    assert checks.certain_label(np.array([3, 2, 1, 4, 1, 2]), class_bits) == 0
    # two ties against a margin of 2 could flip the winner
    assert checks.certain_label(np.array([3, 2, 0, 0, -1, 1]), class_bits) is None


def test_wrong_label_is_caught_where_every_tie_break_agrees():
    class_bits = np.array([[1, 1, 1, 1], [0, 0, 0, 0]], dtype=bool)
    ref = _reference(np.array([[2, 1, 3, 1]]), class_bits)
    ok = json.dumps({"labels": [0]}).encode()
    wrong = json.dumps({"labels": [1]}).encode()
    assert checks.check_response("classify", 200, ok, [0], ref) is None
    assert "every tie-break" in checks.check_response("classify", 200, wrong, [0], ref)
    out_of_range = json.dumps({"labels": [7]}).encode()
    assert "out of range" in checks.check_response("classify", 200, out_of_range, [0], ref)


def test_revoked_tenant_must_refuse_with_reason():
    revoked = json.dumps({"error": "key_access_denied", "reason": "revoked"}).encode()
    rotated = json.dumps({"error": "key_access_denied", "reason": "rotated"}).encode()
    assert checks.check_response("classify", 403, revoked, [0], None) is None
    assert checks.check_response("classify", 403, rotated, [0], None) is not None
    assert checks.check_response("classify", 200, b'{"labels": [1]}', [0], None) is not None


def test_server_errors_are_failures():
    ref = _reference(np.array([[1, 1]]), np.array([[1, 1], [0, 0]], dtype=bool))
    body = json.dumps({"error": "internal_error"}).encode()
    assert checks.check_response("classify", 500, body, [0], ref) is not None
    assert checks.check_response("classify", 200, b"not json", [0], ref) is not None


def test_arena_invariant_needs_l2_held_and_l1_broken():
    held = {"layers": 2, "success_rate": 0.0, "attacker": "a", "defender": "d2"}
    broken = {"layers": 1, "success_rate": 1.0, "attacker": "a", "defender": "d1"}
    assert checks._arena_problems({"cells": [held, broken]}) == []
    assert checks._arena_problems({"cells": [held]})
    assert checks._arena_problems({"cells": [{**held, "success_rate": 0.5}, broken]})
