"""The arena as a first-class experiment: determinism, sharding, CSV."""

from __future__ import annotations

import csv
import dataclasses
import json

import pytest

from repro.experiments.arena import (
    ARENA_MAX_FEATURES,
    ARENA_VOLATILE_FIELDS,
    ArenaCell,
    ArenaResult,
    arena_shards,
    combine_arena,
    render_arena,
    run_arena,
    run_arena_cell,
)
from repro.experiments.cache import DiskCache
from repro.experiments.runner import main


@pytest.fixture
def tiny_scale_cli(monkeypatch, test_scale):
    """Route the CLI's scale resolution to the tiny test scale."""
    monkeypatch.setattr(
        "repro.experiments.runner.active_scale", lambda: test_scale
    )
    return test_scale


CELL_PAYLOAD = {
    "attacker": "bruteforce",
    "defender": "shallow-l1",
    "layers": 1,
    "dim": 512,
    "pool_size": 16,
    "binary": True,
    "variant": "plain",
    "monitored": False,
    "features_attacked": 4,
    "features_recovered": 4,
    "success_rate": 1.0,
    "key_distance": 0.0,
    "queries": 8,
    "candidates": 32768,
    "abstained": 0,
    "locked_out": False,
    "seconds": 0.25,
}


class TestArtifactsRoundTrip:
    def test_cell_round_trips(self):
        cell = ArenaCell.from_dict(CELL_PAYLOAD)
        assert cell.to_dict() == CELL_PAYLOAD

    def test_cell_tolerates_stripped_volatiles(self):
        # artifacts on disk have the volatile fields removed
        payload = {
            k: v for k, v in CELL_PAYLOAD.items()
            if k not in ARENA_VOLATILE_FIELDS
        }
        assert ArenaCell.from_dict(payload).seconds == 0.0

    def test_result_round_trips(self):
        result = ArenaResult(cells=(ArenaCell.from_dict(CELL_PAYLOAD),))
        assert ArenaResult.from_dict(result.to_dict()) == result


class TestSharding:
    def test_one_shard_per_cell_defender_major(self, test_scale):
        shards = arena_shards(test_scale)
        assert len(shards) == 24  # 4 attackers x 6 defenders
        assert len(set(shards)) == 24
        # defender-major: the first four shards share the first defender
        assert len({defender for _, defender in shards[:4]}) == 1

    def test_combine_preserves_shard_order(self):
        cells = [
            ArenaCell.from_dict({**CELL_PAYLOAD, "queries": q})
            for q in (1, 2, 3)
        ]
        assert combine_arena(cells).cells == tuple(cells)


class TestCellDeterminism:
    def test_cell_is_reproducible(self, test_scale):
        first = run_arena_cell("adaptive", "shallow-l1", scale=test_scale)
        again = run_arena_cell("adaptive", "shallow-l1", scale=test_scale)
        strip = lambda c: {  # noqa: E731
            k: v
            for k, v in c.to_dict().items()
            if k not in ARENA_VOLATILE_FIELDS
        }
        assert strip(first) == strip(again)
        assert first.features_recovered == ARENA_MAX_FEATURES

    def test_cell_seed_ignores_roster_order(self, test_scale):
        # seeds derive from names, never roster positions: a sub-matrix
        # run reproduces exactly the cells of the full canonical run
        solo = run_arena(
            scale=test_scale,
            attackers=["adaptive"],
            defenders=["shallow-l1"],
        ).cells[0]
        direct = run_arena_cell("adaptive", "shallow-l1", scale=test_scale)
        assert solo.to_dict().keys() == direct.to_dict().keys()
        for key in solo.to_dict():
            if key in ARENA_VOLATILE_FIELDS:
                continue
            assert solo.to_dict()[key] == direct.to_dict()[key], key

    def test_render_mentions_every_cell(self, test_scale):
        result = run_arena(
            scale=test_scale,
            attackers=["adaptive", "plain-reasoning"],
            defenders=["shallow-l1", "baseline-l2"],
        )
        table = render_arena(result)
        assert "broken" in table  # adaptive vs shallow-l1
        assert "held" in table  # everything vs baseline-l2


class TestArenaAcceptance:
    def test_jobs_1_and_4_artifacts_byte_identical(
        self, tmp_path, tiny_scale_cli
    ):
        """Acceptance: the full matrix is byte-stable across --jobs."""
        outputs = {}
        for jobs in ("1", "4"):
            out_dir = tmp_path / f"jobs{jobs}"
            rc = main(
                [
                    "--only",
                    "arena",
                    "--jobs",
                    jobs,
                    "--seed",
                    "11",
                    "--out",
                    str(out_dir),
                    # one cache per jobs level, so parallel-order
                    # nondeterminism can't hide behind cache replay
                    "--cache",
                    str(tmp_path / f"cache{jobs}"),
                ]
            )
            assert rc == 0
            outputs[jobs] = (out_dir / "arena.json").read_bytes()
        assert outputs["1"] == outputs["4"]
        artifact = json.loads(outputs["1"])
        cells = artifact["data"]["cells"]
        assert len(cells) == 24
        assert all("seconds" not in cell for cell in cells)

    @pytest.mark.slow
    def test_warm_cache_replays_cold_matrix(self, tmp_path, test_scale):
        """A cached rerun of the whole matrix changes no stable field,
        and the paper's L >= 2 row holds against every attacker."""
        scale = dataclasses.replace(test_scale, dim=2048, fig8_dim=2048)
        cache = DiskCache(tmp_path / "cache")
        cold = run_arena(scale=scale, cache=cache).cells
        warm = run_arena(scale=scale, cache=cache).cells

        def stable(cells):
            return [
                {
                    k: v
                    for k, v in cell.to_dict().items()
                    if k not in ARENA_VOLATILE_FIELDS
                }
                for cell in cells
            ]

        assert len(cold) == 24  # 4 attackers x 6 defenders
        assert stable(warm) == stable(cold)
        held = [c for c in cold if c.defender == "baseline-l2"]
        assert all(c.features_recovered == 0 for c in held)

    def test_csv_artifact_for_arena(self, capsys, tmp_path, tiny_scale_cli):
        out_dir = tmp_path / "arts"
        rc = main(
            [
                "--only",
                "arena",
                "--format",
                "csv",
                "--out",
                str(out_dir),
                "--cache",
                str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        text = (out_dir / "arena.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][:2] == ["attacker", "defender"]
        assert "seconds" not in rows[0]
        assert len(rows) == 1 + 24
        assert "=== arena ===" in capsys.readouterr().out
