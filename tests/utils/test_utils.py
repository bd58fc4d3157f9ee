"""Tests for rng/timer/table utilities."""

import time

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, derive_seed, resolve_rng, spawn_rngs
from repro.utils.tables import format_quantity, format_seconds, render_table
from repro.utils.timer import Timer


class TestResolveRng:
    def test_from_int(self):
        a = resolve_rng(42).integers(0, 1000, 10)
        b = resolve_rng(42).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert resolve_rng(gen) is gen

    def test_none_gives_fresh(self):
        assert isinstance(resolve_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        children = spawn_rngs(0, 4)
        assert len(children) == 4

    def test_children_independent_streams(self):
        a, b = spawn_rngs(7, 2)
        assert not np.array_equal(a.integers(0, 100, 20), b.integers(0, 100, 20))

    def test_deterministic(self):
        a1, _ = spawn_rngs(9, 2)
        a2, _ = spawn_rngs(9, 2)
        np.testing.assert_array_equal(
            a1.integers(0, 100, 20), a2.integers(0, 100, 20)
        )

    def test_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed("a", 1, True) == derive_seed("a", 1, True)

    def test_sensitive_to_parts(self):
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a") != derive_seed("b")

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed("x", DEFAULT_SEED) < 2**63


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009


class TestFormatQuantity:
    def test_zero(self):
        assert format_quantity(0) == "0"

    def test_small_integer(self):
        assert format_quantity(784) == "784"

    def test_large_scientific(self):
        assert format_quantity(4.81e16) == "4.81e+16"

    def test_non_integer_small(self):
        assert "e" in format_quantity(0.5) or "." in format_quantity(0.5)


class TestFormatSeconds:
    def test_seconds(self):
        assert format_seconds(4057.59) == "4057.59s"

    def test_milliseconds(self):
        assert format_seconds(0.0042) == "4.200ms"


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        out = render_table(["a", "bb"], [(1, 2), (3, 4)])
        assert "a" in out and "bb" in out
        assert "3" in out and "4" in out

    def test_title(self):
        out = render_table(["x"], [(1,)], title="My Table")
        assert out.startswith("My Table")

    def test_alignment_consistent(self):
        out = render_table(["col"], [("short",), ("a much longer cell",)])
        lines = out.splitlines()
        assert len({len(line) for line in lines if "|" in line or "-" in line}) == 1

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])
