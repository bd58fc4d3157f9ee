"""Smoke and shape tests for the experiment modules (tiny scale)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.ablations import (
    layer_one_is_free,
    naive_attack_on_locked,
    pool_layer_synergy,
    render_ablations,
    single_layer_breakability,
    value_lock_leakage,
)
from repro.experiments.config import (
    DEFAULT_SEED,
    FULL_SCALE,
    REDUCED_SCALE,
    active_scale,
)
from repro.experiments.fig3 import render_fig3, run_fig3
from repro.experiments.fig56 import PANEL_ORDER, render_fig56, run_fig5, run_fig6
from repro.experiments.fig7 import mnist_checkpoints, render_fig7, run_fig7
from repro.experiments.fig8 import LAYER_RANGE, render_fig8, run_fig8
from repro.experiments.fig9 import render_fig9, run_fig9
import repro.experiments.table1 as table1_mod
from repro.attack.pipeline import run_reasoning_attack
from repro.attack.reconstruct import evaluate_theft
from repro.attack.threat_model import expose_model
from repro.data.benchmarks import load_benchmark
from repro.encoding.record import RecordEncoder
from repro.experiments.table1 import recovered_accuracy, render_table1, run_table1
from repro.model.train import train_model


class TestConfig:
    def test_scales_defined(self):
        assert REDUCED_SCALE.dim < FULL_SCALE.dim == 10_000

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert active_scale().name == "reduced"
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert active_scale().name == "full"
        monkeypatch.setenv("REPRO_FULL_SCALE", "0")
        assert active_scale().name == "reduced"


class TestFig3:
    # Fig. 3/5/6 keep the paper's N = 784: with D much below N the
    # binary sign-tie error floor swallows the dip, so these two
    # experiments are tested at the reduced-scale D rather than the
    # pathological test_scale D = 512 used elsewhere.
    def test_correct_guess_separated(self, test_scale):
        scale = replace(test_scale, dim=4096)
        result = run_fig3(scale=scale, seed=1)
        assert result.distances.shape == (784,)
        # The correct candidate is the unique global minimum. (The
        # paper's ~4-5x correct/wrong gap needs the full D = 10,000;
        # at reduced D the tie error floor is proportionally higher.)
        assert result.separation > 0
        assert int(np.argmin(result.distances)) == result.correct_index
        assert result.correct_distance < result.wrong_distances.mean()

    @pytest.mark.slow
    def test_suite_scale_binary_and_nonbinary(self):
        result = run_fig3(scale=active_scale(), seed=DEFAULT_SEED)
        assert result.distances.shape == (784,)
        assert int(np.argmin(result.distances)) == result.correct_index
        assert result.separation > 0
        # Non-binary: the correct guess sits at cosine exactly 1 (the
        # paper's "100% confidence"); scores are 1 - cosine.
        result = run_fig3(scale=active_scale(), seed=DEFAULT_SEED, binary=False)
        assert result.correct_distance < 1e-9
        assert float(result.wrong_distances.min()) > 0.5

    def test_render(self, test_scale):
        scale = replace(test_scale, dim=2048)
        text = render_fig3(run_fig3(scale=scale, seed=2))
        assert "Fig. 3" in text and "correct guess" in text


class TestFig56:
    def test_fig5_all_panels_separate(self, test_scale):
        scale = replace(test_scale, dim=2048)
        result = run_fig5(scale=scale, seed=3)
        assert result.binary
        assert len(result.panels) == len(PANEL_ORDER)
        assert result.all_separated
        for panel in result.panels:
            assert panel.correct_score < 0.1

    @pytest.mark.slow
    def test_fig5_suite_scale_bounds(self):
        result = run_fig5(scale=active_scale(), seed=DEFAULT_SEED)
        assert result.all_separated
        for panel in result.panels:
            assert panel.correct_score < 0.05
            assert panel.scores[1:].min() > panel.correct_score

    def test_fig6_cosine_one(self, test_scale):
        result = run_fig6(scale=test_scale, seed=4)
        assert not result.binary
        for panel in result.panels:
            assert panel.correct_score == pytest.approx(1.0)
            assert panel.separation > 0.3

    @pytest.mark.slow
    def test_fig6_suite_scale_bounds(self):
        result = run_fig6(scale=active_scale(), seed=DEFAULT_SEED)
        assert result.all_separated
        for panel in result.panels:
            assert panel.correct_score == pytest.approx(1.0)
            assert panel.scores[1:].max() < 0.5

    def test_render(self, test_scale):
        scale = replace(test_scale, dim=2048)
        text = render_fig56(run_fig5(scale=scale, seed=5))
        assert "Fig. 5" in text and "k_{1,1}" in text


class TestFig7:
    def test_checkpoints_match_paper(self):
        result = run_fig7()
        assert result.checkpoints_match

    def test_individual_checkpoints(self):
        for checkpoint in mnist_checkpoints():
            assert checkpoint.relative_error < 0.01, checkpoint.label

    def test_series_shapes(self):
        result = run_fig7()
        assert len(result.surface_7a) == 5 * 4
        assert set(result.curves_7b) == {100, 300, 500, 700}

    def test_growth_laws(self):
        result = run_fig7()
        # 7a: at L = 2 and fixed P, guesses grow as D^2.
        by_pool = {}
        for dim, pool, guesses in result.surface_7a:
            by_pool.setdefault(pool, []).append((dim, guesses))
        for series in by_pool.values():
            (d1, g1), (d2, g2) = series[0], series[-1]
            assert g2 / g1 == (d2 / d1) ** 2
        # 7b: each extra layer multiplies guesses by D * P.
        for pool, curve in result.curves_7b.items():
            values = [g for _, g in curve]
            for a, b in zip(values, values[1:], strict=False):
                assert b // a == 10_000 * pool

    def test_render(self):
        text = render_fig7(run_fig7())
        assert "Fig. 7a" in text and "Fig. 7b" in text


class TestFig8:
    def test_accuracy_flat_within_noise(self, test_scale):
        result = run_fig8(
            benchmarks=("pamap",),
            flavors=(False,),
            layers=(0, 1, 2),
            scale=test_scale,
            seed=6,
        )
        assert len(result.cells) == 3
        drop = result.max_accuracy_drop("pamap", binary=False)
        assert drop < 0.25  # tiny-sample noise bound; full scale is ~0

    @pytest.mark.slow
    def test_suite_scale_accuracy_flat(self):
        # Drop allowance per scale: reduced-scale test splits hold a few
        # dozen samples; paper scale tightens to the paper's < 1 % band.
        scale = active_scale()
        bound = {"reduced": 0.15, "full": 0.02}[scale.name]
        result = run_fig8(scale=scale, seed=DEFAULT_SEED)
        names = sorted({c.benchmark for c in result.cells})
        for name in names:
            for binary in (False, True):
                drop = result.max_accuracy_drop(name, binary)
                assert drop < bound, (
                    f"{name} binary={binary}: locked model lost {drop:.3f} "
                    f"accuracy vs L=0 (allowance {bound})"
                )
        assert len(result.cells) == len(names) * 2 * len(LAYER_RANGE)

    def test_curve_extraction(self, test_scale):
        result = run_fig8(
            benchmarks=("pamap",),
            flavors=(True,),
            layers=(0, 2),
            scale=test_scale,
            seed=7,
        )
        curve = result.curve("pamap", binary=True)
        assert [l for l, _ in curve] == [0, 2]

    def test_render(self, test_scale):
        result = run_fig8(
            benchmarks=("pamap",),
            flavors=(False, True),
            layers=(0, 1),
            scale=test_scale,
            seed=8,
        )
        text = render_fig8(result)
        assert "Fig. 8" in text and "PAMAP" in text


class TestFig9:
    def test_headline_overhead(self):
        result = run_fig9()
        at_l2 = result.overhead_at(2)
        for value in at_l2.values():
            assert value == pytest.approx(1.21, abs=0.02)

    def test_l1_free_everywhere(self):
        result = run_fig9()
        for value in result.overhead_at(1).values():
            assert value == pytest.approx(1.0)

    def test_curves_coincide(self):
        assert run_fig9().curve_spread_at_l2 < 0.02

    def test_linear_in_depth(self):
        for curve in run_fig9().curves.values():
            values = [v for _, v in sorted(curve)]
            steps = [b - a for a, b in zip(values, values[1:], strict=False)]
            assert max(steps) - min(steps) < 1e-6

    def test_render_mentions_paper(self):
        text = render_fig9(run_fig9())
        assert "1.210" in text and "Fig. 9" in text


class TestTable1:
    def test_single_benchmark_rows(self, test_scale):
        rows = run_table1(
            benchmarks=("pamap",), flavors=(True,), scale=test_scale, seed=9
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.benchmark == "pamap"
        assert row.feature_mapping_accuracy == 1.0
        assert abs(row.original_accuracy - row.recovered_accuracy) < 0.15
        assert row.oracle_queries == 27 + 1  # one per feature + value step

    @pytest.mark.slow
    def test_suite_scale_theft_and_time_ordering(self):
        rows = run_table1(scale=active_scale(), seed=DEFAULT_SEED)
        for row in rows:
            assert abs(row.original_accuracy - row.recovered_accuracy) < 0.08
            assert row.feature_mapping_accuracy > 0.95
        # Reasoning time follows N^2, as in the paper's Table 1.
        by_key = {(r.benchmark, r.binary): r.reasoning_seconds for r in rows}
        for binary in (False, True):
            times = {name: t for (name, b), t in by_key.items() if b == binary}
            assert times["face"] > times["mnist"] > times["pamap"]
            assert times["isolet"] > times["pamap"]
            assert times["mnist"] > times["ucihar"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_byte_equal_clone_reuses_victim_score(self, test_scale, binary):
        # A clone with the victim's memories is the victim's model, so
        # skipping its training gives evaluate_theft's accuracy exactly.
        dataset = load_benchmark("pamap", rng=3, sample_scale=test_scale.sample_scale)
        victim = RecordEncoder.random(
            dataset.n_features, dataset.levels, test_scale.dim, rng=4
        )
        accuracy = train_model(
            victim,
            dataset.train_x,
            dataset.train_y,
            n_classes=dataset.n_classes,
            binary=binary,
            retrain_epochs=test_scale.retrain_epochs,
        ).model.score(dataset.test_x, dataset.test_y)
        surface, _ = expose_model(victim, binary=binary, rng=5)
        result = run_reasoning_attack(surface)
        args = (surface, result, dataset)
        kwargs = dict(binary=binary, retrain_epochs=test_scale.retrain_epochs)
        recovered, retrained = recovered_accuracy(victim, accuracy, *args, **kwargs)
        assert not retrained
        theft, _ = evaluate_theft(accuracy, *args, **kwargs)
        assert recovered == theft.recovered_accuracy

    def test_clone_with_swapped_features_is_retrained(self, test_scale, monkeypatch):
        def swap_two_features(surface):
            result = run_reasoning_attack(surface)
            assignment = result.feature.assignment.copy()
            assignment[[0, 1]] = assignment[[1, 0]]
            feature = replace(result.feature, assignment=assignment)
            return replace(result, feature=feature)

        kwargs = dict(benchmarks=("pamap",), scale=test_scale, seed=9)
        assert not any(row.clone_retrained for row in run_table1(**kwargs))
        monkeypatch.setattr(table1_mod, "run_reasoning_attack", swap_two_features)
        rows = run_table1(**kwargs)
        assert [row.clone_retrained for row in rows] == [True, True]

    def test_render(self, test_scale):
        rows = run_table1(
            benchmarks=("pamap",),
            flavors=(False, True),
            scale=test_scale,
            seed=10,
        )
        text = render_table1(rows)
        assert "Non-Binary" in text and "Binary" in text
        assert "PAMAP" in text


class TestAblations:
    def test_value_lock_leakage(self):
        leak = value_lock_leakage(levels=8, dim=1024, seed=11)
        assert leak.recovered_order_correct
        assert leak.correlated_profile_error < 0.05
        assert leak.orthogonal_max_deviation < 0.1

    @pytest.mark.slow
    def test_value_lock_leakage_at_defaults(self):
        leak = value_lock_leakage(seed=DEFAULT_SEED)
        assert leak.recovered_order_correct
        assert leak.correlated_profile_error < 0.02
        assert leak.orthogonal_max_deviation < 0.06

    def test_layer_one_free(self):
        cost = layer_one_is_free()
        assert cost.relative_time_l1 == pytest.approx(1.0)
        assert cost.relative_time_l2 == pytest.approx(1.21, abs=0.01)

    def test_pool_layer_synergy(self):
        synergy = pool_layer_synergy()
        assert synergy.mutually_enhanced
        assert synergy.gain_at_l1 == pytest.approx(7.0)
        assert synergy.gain_at_l3 == pytest.approx(7.0**3)

    @pytest.mark.slow
    def test_single_layer_breaks_and_l2_is_out_of_reach(self):
        # The L = 2 projection scales the measured L = 1 guess rate.
        result = single_layer_breakability(seed=DEFAULT_SEED)
        assert result.key_recovered
        assert result.l2_infeasible_factor > 1e3

    def test_naive_attack_comparison(self, test_scale):
        naive = naive_attack_on_locked(
            n_features=32, levels=6, scale=test_scale, seed=12
        )
        assert naive.lock_removed_the_dip
        assert naive.locked_best > naive.unprotected_best

    @pytest.mark.slow
    def test_naive_attack_at_suite_scale(self):
        naive = naive_attack_on_locked(scale=active_scale(), seed=DEFAULT_SEED)
        assert naive.lock_removed_the_dip
        assert naive.locked_best > 0.35
        assert naive.unprotected_best < 0.15

    def test_render(self, test_scale):
        text = render_ablations(
            value_lock_leakage(levels=6, dim=512, seed=13),
            layer_one_is_free(),
            pool_layer_synergy(),
            naive_attack_on_locked(n_features=24, levels=4, scale=test_scale, seed=14),
        )
        assert "ablation" in text
