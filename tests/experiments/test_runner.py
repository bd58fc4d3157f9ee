"""Tests for the parallel experiment CLI runner."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.config import active_scale
from repro.experiments.runner import (
    EXPERIMENTS,
    _assemble,
    _combine_fig8,
    _execute_shard,
    child_seed,
    main,
    normalize_names,
    run_experiments,
)
from repro.obs.trace import SpanRecorder, span

#: Cheap experiments (analytic or sub-second at test scale) used by the
#: CLI tests so the suite stays fast.
FAST = "fig7,fig9"


@pytest.fixture
def tiny_scale_cli(monkeypatch, test_scale):
    """Route the CLI's scale resolution to the tiny test scale.

    The resolved scale object is handed to in-process units and pickled
    out to spawned workers alike, so patching the runner-side lookup is
    enough to shrink every run.
    """
    monkeypatch.setattr(
        "repro.experiments.runner.active_scale", lambda: test_scale
    )
    return test_scale


def _cli(tmp_path, *args):
    """Common CLI argv: artifacts and cache under the test's tmp dir."""
    return [
        *args,
        "--cache",
        str(tmp_path / "cache"),
    ]


class TestNormalizeNames:
    def test_none_selects_all(self):
        assert normalize_names(None) == list(EXPERIMENTS)

    def test_strips_whitespace_and_trailing_comma(self):
        assert normalize_names(" fig3, fig9,") == ["fig3", "fig9"]

    def test_drops_empty_segments(self):
        assert normalize_names(",,fig7,,") == ["fig7"]

    def test_dedupes_preserving_order(self):
        assert normalize_names("fig9,fig3,fig9,fig3") == ["fig9", "fig3"]

    def test_unknown_raises_keyerror(self):
        with pytest.raises(KeyError, match="fig99"):
            normalize_names("fig3,fig99")


class TestChildSeeds:
    def test_deterministic_given_root_seed(self):
        assert child_seed(7, "fig3") == child_seed(7, "fig3")

    def test_independent_across_experiments(self):
        seeds = {child_seed(7, name) for name in EXPERIMENTS}
        # fig5/fig6 share one seed group on purpose (same deployed
        # system, two criteria); everything else is distinct.
        assert len(seeds) == len(EXPERIMENTS) - 1
        assert child_seed(7, "fig5") == child_seed(7, "fig6")

    def test_varies_with_root_seed(self):
        assert child_seed(7, "fig3") != child_seed(8, "fig3")

    def test_fits_in_63_bits(self):
        for name in EXPERIMENTS:
            assert 0 <= child_seed(0, name) < 2**63


class TestRunExperiments:
    def test_analytic_subset(self):
        reports = run_experiments(["fig7", "fig9"])
        assert set(reports) == {"fig7", "fig9"}
        assert "Fig. 7a" in reports["fig7"]
        assert "Fig. 9" in reports["fig9"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiments(["fig99"])

    def test_registry_covers_all_paper_results(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "ablations",
            "sweeps",
            "arena",
        }

    def test_arena_is_registered_last(self):
        # Seed-group positions are SeedSequence spawn keys: appending the
        # arena anywhere but last would silently re-seed every other
        # experiment and invalidate all existing artifacts.
        assert list(EXPERIMENTS)[-1] == "arena"


class TestSharding:
    @staticmethod
    def _execute(name, scale, root_seed, cache_dir):
        """Run one whole experiment as a single unit, bypassing shards."""
        outcome = _execute_shard(name, None, scale, root_seed, cache_dir)
        return _assemble(name, scale, root_seed, [None], [outcome])

    def test_table1_sharded_equals_whole_run(self, test_scale):
        spec = EXPERIMENTS["table1"]
        shards = spec.shards(test_scale)
        assert len(shards) == 10  # 5 benchmarks x 2 flavors
        parts = [
            _execute_shard("table1", shard, test_scale, 5, None)
            for shard in shards
        ]
        combined = _assemble("table1", test_scale, 5, shards, parts)
        whole = self._execute("table1", test_scale, 5, None)
        # Identical deterministic payloads and identity keys; only the
        # (volatile, manifest-only) timing sections may differ.
        assert combined.record.data == whole.record.data
        assert combined.record.key == whole.record.key
        assert set(combined.record.timing["shards"]) == {
            str(shard) for shard in shards
        }

    def test_fig8_shard_covers_one_benchmark(self, test_scale):
        outcome = _execute_shard("fig8", "pamap", test_scale, 5, None)
        cells = outcome.partial.cells
        assert {cell.benchmark for cell in cells} == {"pamap"}
        combined = _combine_fig8([outcome.partial])
        assert combined.cells == cells


class TestMain:
    def test_main_analytic_only(self, capsys, tmp_path):
        assert main(_cli(tmp_path, "--only", "fig7")) == 0
        out = capsys.readouterr().out
        assert "=== fig7 ===" in out
        assert "experiment scale" in out

    def test_main_seed_flag(self, capsys, tmp_path):
        assert main(_cli(tmp_path, "--only", "fig9", "--seed", "7")) == 0
        assert "fig9" in capsys.readouterr().out

    def test_messy_only_list(self, capsys, tmp_path):
        assert main(_cli(tmp_path, "--only", " fig9, fig7,,fig9,")) == 0
        out = capsys.readouterr().out
        assert out.count("=== fig9 ===") == 1
        assert "=== fig7 ===" in out

    def test_unknown_name_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(_cli(tmp_path, "--only", "fig3, fig99"))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "Traceback" not in err

    def test_bad_jobs_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(_cli(tmp_path, "--only", "fig7", "--jobs", "0"))
        assert excinfo.value.code == 2

    def test_bad_full_scale_env_exits_2(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("REPRO_FULL_SCALE", "definitely")
        with pytest.raises(SystemExit) as excinfo:
            main(_cli(tmp_path, "--only", "fig7"))
        assert excinfo.value.code == 2
        assert "REPRO_FULL_SCALE" in capsys.readouterr().err


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def unset_blas_env(monkeypatch):
    """Remove the BLAS thread variables; restore their prior state after.

    Setting before deleting makes monkeypatch record each variable's
    original state, so a value a run adds is undone too.
    """
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "unset")
        monkeypatch.delenv(var)


@pytest.fixture
def no_pool(monkeypatch):
    """Make constructing the runner's process pool an error."""

    def refuse(*args, **kwargs):
        raise AssertionError("the runner started a process pool")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", refuse)


@pytest.fixture
def counted_pool(monkeypatch):
    """The real process pool, recording each construction's worker count."""
    real = runner.ProcessPoolExecutor
    workers = []

    def counting(*args, **kwargs):
        workers.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", counting)
    return workers


class TestInProcess:
    """One worker means the runner's own process: no pool, no env writes."""

    def test_jobs_1_never_starts_a_pool(self, capsys, tmp_path, no_pool):
        assert main(_cli(tmp_path, "--only", FAST, "--jobs", "1")) == 0
        out = capsys.readouterr().out
        assert "=== fig7 ===" in out and "=== fig9 ===" in out

    def test_single_unit_selection_never_starts_a_pool(
        self, capsys, tmp_path, no_pool
    ):
        assert main(_cli(tmp_path, "--only", "fig7", "--jobs", "4")) == 0
        assert "=== fig7 ===" in capsys.readouterr().out

    def test_library_entry_never_starts_a_pool(self, no_pool):
        assert set(run_experiments(["fig7", "fig9"])) == {"fig7", "fig9"}

    def test_leaves_blas_env_as_found(self, tmp_path, no_pool, unset_blas_env):
        assert main(_cli(tmp_path, "--only", FAST, "--jobs", "1")) == 0
        for var in BLAS_THREAD_VARS:
            assert var not in os.environ, var

    def test_two_workers_and_units_still_use_the_pool(
        self, tmp_path, tiny_scale_cli, counted_pool, unset_blas_env
    ):
        assert main(_cli(tmp_path, "--only", FAST, "--jobs", "2")) == 0
        assert counted_pool == [2]
        # The pool path still pins its workers' BLAS to one thread.
        for var in BLAS_THREAD_VARS:
            assert os.environ[var] == "1", var

    def test_unit_spans_stay_roots(self, tmp_path, tiny_scale_cli, no_pool):
        """An enclosing span in the caller never becomes a unit's parent."""
        out_dir = tmp_path / "arts"
        argv = _cli(
            tmp_path, "--only", "fig7,fig8", "--jobs", "1", "--out", str(out_dir)
        )
        outer = SpanRecorder()
        with span("caller", outer):
            assert main(argv) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        shapes = {
            name: [(s["name"], s["parent"]) for s in status["timing"]["spans"]]
            for name, status in manifest["experiments"].items()
        }
        assert shapes["fig7"] == [("fig7", None)]
        assert len(shapes["fig8"]) > 1
        assert all(
            name.startswith("fig8/") and parent is None
            for name, parent in shapes["fig8"]
        )
        assert [s["name"] for s in outer.drain()] == ["caller"]


def _boom(*args):
    raise RuntimeError("boom")


class TestErrorPath:
    """A failing experiment is reported; the rest of the run completes."""

    @pytest.fixture
    def failing_fig9(self, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "fig9", dataclasses.replace(EXPERIMENTS["fig9"], run=_boom)
        )

    @pytest.fixture
    def failing_fig8_shard(self, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS,
            "fig8",
            dataclasses.replace(EXPERIMENTS["fig8"], run_shard=_boom),
        )

    @pytest.mark.parametrize(
        ("failing", "name"),
        [("failing_fig9", "fig9"), ("failing_fig8_shard", "fig8")],
    )
    def test_error_status_exit_1_and_other_artifacts_written(
        self, request, capsys, tmp_path, tiny_scale_cli, no_pool, failing, name
    ):
        request.getfixturevalue(failing)
        out_dir = tmp_path / "arts"
        argv = _cli(
            tmp_path,
            "--only",
            f"fig7,{name},fig3",
            "--jobs",
            "1",
            "--out",
            str(out_dir),
        )
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "[error: RuntimeError: boom]" in captured.out
        assert f"error: {name}: RuntimeError: boom" in captured.err
        manifest = json.loads((out_dir / "manifest.json").read_text())
        statuses = manifest["experiments"]
        assert statuses[name] == {"status": "error", "error": "RuntimeError: boom"}
        assert statuses["fig7"]["status"] == "run"
        assert statuses["fig3"]["status"] == "run"
        assert (out_dir / "fig7.json").is_file()
        assert (out_dir / "fig3.json").is_file()
        assert not (out_dir / f"{name}.json").exists()

    def test_manifest_written_when_every_experiment_fails(
        self, capsys, tmp_path, no_pool, failing_fig9
    ):
        out_dir = tmp_path / "fresh" / "arts"
        argv = _cli(tmp_path, "--only", "fig9", "--out", str(out_dir))
        assert main(argv) == 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiments"]["fig9"]["status"] == "error"
        assert "error: fig9: RuntimeError: boom" in capsys.readouterr().err

    def test_library_entry_reraises(self, failing_fig9):
        with pytest.raises(RuntimeError, match="boom"):
            run_experiments(["fig7", "fig9"])


class TestScaleEnv:
    def test_casefolded_truthy_values(self, monkeypatch):
        for value in ("TRUE", "Yes", " on ", "1"):
            monkeypatch.setenv("REPRO_FULL_SCALE", value)
            assert active_scale().name == "full", value

    def test_falsy_values(self, monkeypatch):
        for value in ("", "0", "FALSE", "No", "off"):
            monkeypatch.setenv("REPRO_FULL_SCALE", value)
            assert active_scale().name == "reduced", value

    def test_unrecognized_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "2")
        with pytest.raises(ConfigurationError, match="REPRO_FULL_SCALE"):
            active_scale()


class TestArtifacts:
    def test_json_smoke_jobs_2(self, capsys, tmp_path, tiny_scale_cli):
        out_dir = tmp_path / "arts"
        rc = main(
            _cli(
                tmp_path,
                "--only",
                FAST,
                "--jobs",
                "2",
                "--format",
                "json",
                "--out",
                str(out_dir),
            )
        )
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert [r["experiment"] for r in document["records"]] == [
            "fig7",
            "fig9",
        ]
        required = ("schema", "key", "seed", "child_seed", "scale", "env", "data")
        for record in document["records"]:
            for field in required:
                assert field in record, field
        for name in ("fig7", "fig9"):
            assert (out_dir / f"{name}.json").is_file()
            assert document["experiments"][name]["status"] == "run"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["jobs"] == 2
        assert manifest["experiments"]["fig9"]["status"] == "run"
        assert (
            manifest["experiments"]["fig9"]["timing"]["elapsed_seconds"] >= 0
        )

    def test_resume_skips_up_to_date_artifacts(
        self, capsys, tmp_path, tiny_scale_cli
    ):
        out_dir = tmp_path / "arts"
        argv = _cli(tmp_path, "--only", "fig9", "--out", str(out_dir))
        assert main(argv) == 0
        first = (out_dir / "fig9.json").read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        assert "[skipped: artifact up to date" in capsys.readouterr().out
        assert (out_dir / "fig9.json").read_bytes() == first
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiments"]["fig9"]["status"] == "skipped"

    def test_resume_reruns_on_seed_change(self, tmp_path, tiny_scale_cli):
        out_dir = tmp_path / "arts"
        base = _cli(tmp_path, "--only", "fig9", "--out", str(out_dir))
        assert main(base + ["--seed", "1"]) == 0
        key_one = json.loads((out_dir / "fig9.json").read_text())["key"]
        assert main(base + ["--seed", "2"]) == 0
        key_two = json.loads((out_dir / "fig9.json").read_text())["key"]
        assert key_one != key_two

    def test_artifacts_exclude_timing_volatile(
        self, tmp_path, tiny_scale_cli
    ):
        out_dir = tmp_path / "arts"
        rc = main(
            _cli(tmp_path, "--only", "table1", "--out", str(out_dir))
        )
        assert rc == 0
        artifact = json.loads((out_dir / "table1.json").read_text())
        assert "timing" not in artifact
        for row in artifact["data"]["rows"]:
            assert "reasoning_seconds" not in row
        manifest = json.loads((out_dir / "manifest.json").read_text())
        timing = manifest["experiments"]["table1"]["timing"]
        assert any(
            path.endswith("reasoning_seconds") for path in timing["volatile"]
        )
        assert timing["shards"], "table1 should fan out in shards"


class TestJobsParity:
    def test_jobs_1_and_4_artifacts_byte_identical(
        self, tmp_path, tiny_scale_cli
    ):
        """Acceptance: same seed => byte-identical artifacts at any --jobs.

        ``--jobs 1`` runs in the runner's own process and ``--jobs 4`` on
        the spawn pool, so this is the parity gate between the two paths.
        Covers an analytic experiment (fig7), the cycle model (fig9),
        a stochastic attack (fig3) and the sharded table1. Spans are
        always recorded, so this run doubles as the acceptance check
        that tracing never leaks into artifact bytes; the span *shape*
        (names and nesting) in the manifest's volatile section must
        also agree across jobs levels — only the clock values may move.
        """
        names = "table1,fig3,fig7,fig9"
        outputs = {}
        span_shapes = {}
        for jobs in ("1", "4"):
            out_dir = tmp_path / f"jobs{jobs}"
            rc = main(
                [
                    "--only",
                    names,
                    "--jobs",
                    jobs,
                    "--seed",
                    "11",
                    "--out",
                    str(out_dir),
                    # One cache per jobs level: a shared cache would let
                    # the second run replay the first run's intermediates
                    # and mask parallelism-dependent nondeterminism.
                    "--cache",
                    str(tmp_path / f"cache{jobs}"),
                ]
            )
            assert rc == 0
            outputs[jobs] = {
                path.name: path.read_bytes()
                for path in sorted(out_dir.glob("*.json"))
                if path.name != "manifest.json"
            }
            manifest = json.loads((out_dir / "manifest.json").read_text())
            span_shapes[jobs] = {
                name: [
                    (s["name"], s["parent"])
                    for s in status["timing"]["spans"]
                ]
                for name, status in manifest["experiments"].items()
            }
        assert set(outputs["1"]) == {
            "table1.json",
            "fig3.json",
            "fig7.json",
            "fig9.json",
        }
        assert outputs["1"] == outputs["4"]
        assert span_shapes["1"] == span_shapes["4"]
        assert span_shapes["1"]["fig7"] == [("fig7", None)]
        # The sharded experiment records one span per work unit.
        assert len(span_shapes["1"]["table1"]) > 1
        assert all(
            name.startswith("table1/") and parent is None
            for name, parent in span_shapes["1"]["table1"]
        )


class TestModuleEntrypoint:
    def test_python_m_repro_smoke(self, tmp_path):
        """The issue's smoke line: python -m repro --only ... --jobs 2."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FULL_SCALE", None)
        out_dir = tmp_path / "arts"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "--only",
                FAST,
                "--jobs",
                "2",
                "--format",
                "json",
                "--out",
                str(out_dir),
                "--cache",
                str(tmp_path / "cache"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(proc.stdout)
        assert {r["experiment"] for r in document["records"]} == {
            "fig7",
            "fig9",
        }
        assert (out_dir / "manifest.json").is_file()
