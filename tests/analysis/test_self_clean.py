"""Meta-test: the repo passes its own invariant linter.

This is the acceptance gate the CI ``static-analysis`` job enforces;
running it in-tree means a PR that introduces a violation (or a stale
suppression) fails tier-1 locally before CI ever sees it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_lints_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "src",
            "tests",
            "examples",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )
    payload = json.loads(result.stdout)
    pretty = "\n".join(
        f"{f['file']}:{f['line']}: {f['rule']} {f['message']}"
        for f in payload["findings"]
    )
    assert result.returncode == 0, f"reprolint findings:\n{pretty}"
    assert payload["findings"] == []
    # The sweep actually covered the repo (guards against a path typo
    # silently shrinking the lint surface).
    assert payload["files_checked"] > 150
