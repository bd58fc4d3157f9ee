"""Experiment modules — one per table/figure of the paper's evaluation.

Each module returns structured result dataclasses with a stable
``to_dict()``/``from_dict()`` schema; rendering to the paper-style text
tables is a separate formatter. :mod:`repro.experiments.runner` runs the
modules in its own process or fans them out over worker processes, and
writes them as deterministic JSON artifacts (see
:mod:`repro.experiments.records`), deduplicating shared inputs through
:mod:`repro.experiments.cache`.
"""

from repro.experiments.ablations import AblationsResult, run_ablations
from repro.experiments.cache import DiskCache
from repro.experiments.config import (
    FULL_SCALE,
    REDUCED_SCALE,
    ExperimentScale,
    active_scale,
)
from repro.experiments.fig3 import Fig3Result, render_fig3, run_fig3
from repro.experiments.fig56 import (
    Fig56Result,
    render_fig56,
    run_fig5,
    run_fig6,
)
from repro.experiments.fig7 import Fig7Result, mnist_checkpoints, render_fig7, run_fig7
from repro.experiments.fig8 import Fig8Cell, Fig8Result, render_fig8, run_fig8
from repro.experiments.fig9 import Fig9Result, render_fig9, run_fig9
from repro.experiments.records import (
    SCHEMA_VERSION,
    ExperimentRecord,
)
from repro.experiments.sweeps import SweepsResult, run_sweeps
from repro.experiments.table1 import Table1Row, render_table1, run_table1

# NOTE: repro.experiments.runner is intentionally not imported here so
# that `python -m repro.experiments.runner` does not trigger the
# "found in sys.modules" runpy warning; import it explicitly if needed.

__all__ = [
    "ExperimentScale",
    "REDUCED_SCALE",
    "FULL_SCALE",
    "active_scale",
    "Table1Row",
    "run_table1",
    "render_table1",
    "Fig3Result",
    "run_fig3",
    "render_fig3",
    "Fig56Result",
    "run_fig5",
    "run_fig6",
    "render_fig56",
    "Fig7Result",
    "run_fig7",
    "render_fig7",
    "mnist_checkpoints",
    "Fig8Cell",
    "Fig8Result",
    "run_fig8",
    "render_fig8",
    "Fig9Result",
    "run_fig9",
    "render_fig9",
    "AblationsResult",
    "run_ablations",
    "SweepsResult",
    "run_sweeps",
    "DiskCache",
    "ExperimentRecord",
    "SCHEMA_VERSION",
]
