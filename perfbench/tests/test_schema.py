"""BENCHMARK.json is well formed and matches the code."""

import json
import re

import pytest

from perfbench import layers, run
from perfbench.common import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_keys(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_command_and_paths(bench):
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    command = bench["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    for part in command[1:]:
        if "/" in part:
            assert any(part.startswith(p + "/") for p in bench["paths"])


def test_workloads(bench):
    names = [w["name"] for w in bench["workloads"]]
    assert 2 <= len(names) <= 8
    assert set(names) == set(run.WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_units_and_bounds(bench):
    seen = set()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]) and metric["name"] not in seen
        seen.add(metric["name"])
        assert UNIT.match(metric["unit"])
        assert metric["better"] in {"higher", "lower"}
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_json_matches_code(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == layers.END_TO_END
    assert [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        for m in bench["per_layer"]
    ] == [
        {key: m[key] for key in ("name", "unit", "better")} for m in layers.PER_LAYER
    ]
    assert 1 <= len(bench["per_layer"]) <= 128


def test_every_layer_metric_names_its_target():
    for metric in layers.PER_LAYER:
        assert metric["moves"], metric["name"]


def test_complete_fills_every_layer_metric_and_rejects_strays():
    filled = layers.complete({"encoding.calls": 3})
    assert set(filled) == {m["name"] for m in layers.PER_LAYER}
    assert filled["encoding.calls"] == {"value": 3, "unit": "count"}
    with pytest.raises(KeyError):
        layers.complete({"not.a.metric": 1})
