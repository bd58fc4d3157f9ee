"""Shared helpers: paths, subprocess environment, statistics, host stamp."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from typing import Any, Sequence

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for one run; listed in the root ``.gitignore``.
WORK = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_env(**extra: str) -> dict[str, str]:
    """Environment for a child that imports ``repro`` and ``perfbench``."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra)
    return env


def use_program_path() -> None:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def rss_children_mb() -> float:
    """Peak RSS of the largest waited-for descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def host_fingerprint(child_env: dict[str, str] | None = None) -> dict[str, Any]:
    """nproc, memory, Python, NumPy, BLAS and the thread settings a child got."""
    import numpy as np

    env = child_env if child_env is not None else os.environ
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "mem_gb": round(pages / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "threads": {var: env.get(var) for var in THREAD_VARS},
    }


def report(label: str, payload: Any) -> None:
    """One human-readable report line (never the last stdout line)."""
    print(f"[{label}] {json.dumps(payload, sort_keys=True)}", flush=True)
