"""Experiment Fig. 8: classification accuracy vs key depth ``L``.

For every benchmark and both model flavors, train a model at
``L = 0`` (unprotected baseline) through ``L = 5`` and measure test
accuracy. The paper's finding — reproduced here — is a flat line: the
locked feature hypervectors are statistically indistinguishable from
fresh orthogonal ones, so HDLock costs no accuracy at any depth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Mapping, Sequence

from repro.data.benchmarks import BENCHMARK_ORDER, PAPER_REFERENCE, load_benchmark
from repro.encoding.record import RecordEncoder
from repro.experiments.cache import DiskCache, cached
from repro.experiments.config import DEFAULT_SEED, ExperimentScale, active_scale
from repro.hdlock.lock import create_locked_encoder
from repro.model.train import train_model
from repro.utils.rng import derive_seed
from repro.utils.tables import render_table

#: Key depths evaluated by the paper (0 = unprotected baseline).
LAYER_RANGE = (0, 1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Fig8Cell:
    """Accuracy of one (benchmark, flavor, L) trained model."""

    benchmark: str
    binary: bool
    layers: int
    accuracy: float


@dataclass(frozen=True)
class Fig8Result:
    """The full accuracy-vs-L sweep."""

    cells: tuple[Fig8Cell, ...]

    def curve(self, benchmark: str, binary: bool) -> list[tuple[int, float]]:
        """The (L, accuracy) series of one benchmark and flavor."""
        return [
            (c.layers, c.accuracy)
            for c in self.cells
            if c.benchmark == benchmark and c.binary == binary
        ]

    def max_accuracy_drop(self, benchmark: str, binary: bool) -> float:
        """Worst accuracy loss of any locked depth vs the L=0 baseline.

        Negative values mean the locked model did *better* (seed noise).
        """
        curve = dict(self.curve(benchmark, binary))
        baseline = curve[0]
        return max(baseline - acc for l, acc in curve.items() if l > 0)

    def to_dict(self) -> dict[str, Any]:
        """Stable artifact payload: one entry per trained cell."""
        return {"cells": [asdict(c) for c in self.cells]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Fig8Result":
        """Inverse of :meth:`to_dict`."""
        return cls(cells=tuple(Fig8Cell(**c) for c in payload["cells"]))


def _train_cell(
    dataset,
    name: str,
    binary: bool,
    depth: int,
    cfg: ExperimentScale,
    run_seed: int,
) -> float:
    """Train one (benchmark, flavor, L) model and return test accuracy."""
    if depth == 0:
        encoder = RecordEncoder.random(
            dataset.n_features,
            dataset.levels,
            cfg.fig8_dim,
            run_seed,
        )
    else:
        encoder = create_locked_encoder(
            n_features=dataset.n_features,
            levels=dataset.levels,
            dim=cfg.fig8_dim,
            layers=depth,
            rng=run_seed,
        ).encoder
    training = train_model(
        encoder,
        dataset.train_x,
        dataset.train_y,
        n_classes=dataset.n_classes,
        binary=binary,
        retrain_epochs=cfg.retrain_epochs,
    )
    return training.model.score(dataset.test_x, dataset.test_y)


def run_fig8(
    benchmarks: Sequence[str] = BENCHMARK_ORDER,
    flavors: Sequence[bool] = (False, True),
    layers: Sequence[int] = LAYER_RANGE,
    scale: ExperimentScale | None = None,
    seed: int = DEFAULT_SEED,
    cache: DiskCache | None = None,
) -> Fig8Result:
    """Train one model per (benchmark, flavor, L) and collect accuracy.

    This sweep dominates the suite's cold runtime (6 trained models per
    benchmark per flavor), so both the generated datasets and the
    per-cell accuracies go through the shared on-disk ``cache`` when one
    is provided — every cell is a pure function of its key, so warm
    re-runs and concurrent shards skip the training entirely.
    """
    cfg = scale or active_scale()
    cells: list[Fig8Cell] = []
    for name in benchmarks:
        dataset = cached(
            cache,
            ("dataset", name, seed, cfg.fig8_sample_scale),
            partial(
                load_benchmark,
                name,
                rng=seed,
                sample_scale=cfg.fig8_sample_scale,
            ),
        )
        for binary in flavors:
            for depth in layers:
                run_seed = derive_seed(seed, "fig8", name, binary, depth)
                accuracy = cached(
                    cache,
                    (
                        "fig8-cell",
                        name,
                        binary,
                        depth,
                        cfg.fig8_dim,
                        cfg.fig8_sample_scale,
                        cfg.retrain_epochs,
                        run_seed,
                    ),
                    partial(
                        _train_cell, dataset, name, binary, depth, cfg, run_seed
                    ),
                )
                cells.append(
                    Fig8Cell(
                        benchmark=name,
                        binary=binary,
                        layers=depth,
                        accuracy=accuracy,
                    )
                )
    return Fig8Result(cells=tuple(cells))


def render_fig8(result: Fig8Result) -> str:
    """Two tables (one per flavor): benchmark rows, L columns."""
    sections = []
    for binary in (False, True):
        flavor_cells = [c for c in result.cells if c.binary == binary]
        if not flavor_cells:
            continue
        benchmarks = list(dict.fromkeys(c.benchmark for c in flavor_cells))
        layer_values = sorted({c.layers for c in flavor_cells})
        rows = []
        for name in benchmarks:
            curve = dict(result.curve(name, binary))
            ref = PAPER_REFERENCE.get(name)
            paper_acc = (
                (ref.binary_accuracy if binary else ref.nonbinary_accuracy)
                if ref
                else None
            )
            rows.append(
                [name.upper()]
                + [f"{curve[depth]:.4f}" for depth in layer_values]
                + [f"{paper_acc:.4f}" if paper_acc is not None else "-"]
            )
        flavor = "binary" if binary else "non-binary"
        sections.append(
            render_table(
                ["benchmark"]
                + [f"L={depth}" for depth in layer_values]
                + ["paper (L=0)"],
                rows,
                title=f"Fig. 8 — accuracy vs key depth, {flavor} record encoding",
            )
        )
    return "\n\n".join(sections)
