"""Run every example script as a subprocess — the examples are part of
the public API contract and must keep working."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: (script, seconds budget) — the heavier walkthroughs get more time on
#: slow CI machines.
EXAMPLES = [
    ("quickstart.py", 120),
    ("steal_unprotected_model.py", 300),
    ("lock_and_defend.py", 300),
    ("hardware_tradeoff.py", 120),
]


@pytest.mark.parametrize("script,budget", EXAMPLES)
def test_example_runs_clean(script, budget):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=budget,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{proc.stdout}\n"
        f"--- stderr ---\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script} printed nothing"


def test_examples_dir_has_no_strays():
    """Every example on disk is exercised by this test."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = {name for name, _ in EXAMPLES}
    assert on_disk == covered
