"""Contract tests for the top-level public API surface."""

import importlib
import subprocess
import sys

import pytest

import repro

#: Every subpackage that declares ``__all__``.
SUBPACKAGES = (
    "repro.analysis",
    "repro.arena",
    "repro.attack",
    "repro.data",
    "repro.encoding",
    "repro.experiments",
    "repro.hardware",
    "repro.hdlock",
    "repro.hv",
    "repro.memory",
    "repro.model",
    "repro.obs",
    "repro.serving",
    "repro.utils",
)

#: Deleted public names: the n-gram encoder, the one-implementer encoder
#: base, helpers that no experiment, tenant or example called, and the
#: single-key file writer whose file nothing read.
REMOVED_NAMES = frozenset(
    {
        "Encoder",
        "NGramEncoder",
        "train_test_split",
        "stratified_indices",
        "accuracy",
        "confusion_matrix",
        "per_class_recall",
        "CapacityPoint",
        "empirical_capacity_curve",
        "recommend_layers",
        "relative_inference_time",
        "attack_query_stream",
        "load_key",
        "save_key",
        "dequantize",
        "level_bounds",
        "as_bipolar",
        "invert",
        "permute_inverse",
        "expected_level_distance",
        "expected_random_deviation",
        "time_call",
        "plain_guesses_per_feature",
    }
)

#: Deleted modules.
REMOVED_MODULES = (
    "repro.encoding.base",
    "repro.encoding.ngram",
    "repro.data.splits",
    "repro.model.metrics",
)

#: Deleted module-level names, including ones no ``__all__`` listed.
REMOVED_ATTRIBUTES = (
    ("repro.hdlock.provisioning", "save_key"),
    ("repro.hdlock.provisioning", "KEY_FILE"),
)


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.5.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_core_workflow_symbols_present(self):
        # the names the README quickstart uses must stay exported
        for name in (
            "RecordEncoder",
            "LockedEncoder",
            "HDClassifier",
            "train_model",
            "load_benchmark",
            "expose_model",
            "run_reasoning_attack",
            "verify_mapping",
            "lock_model",
            "generate_key",
            "relative_encoding_time",
        ):
            assert name in repro.__all__

    def test_subpackage_alls_resolve(self):
        for module in map(importlib.import_module, SUBPACKAGES):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_removed_names_stay_unexported(self):
        for module in (repro, *map(importlib.import_module, SUBPACKAGES)):
            leaked = REMOVED_NAMES & set(module.__all__)
            assert not leaked, f"{module.__name__} exports {sorted(leaked)}"

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_removed_module_is_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize("module, name", REMOVED_ATTRIBUTES)
    def test_removed_attribute_is_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    def test_errors_inherit_base(self):
        from repro import errors

        subclasses = [
            errors.DimensionMismatchError,
            errors.NotBipolarError,
            errors.SecureMemoryError,
            errors.KeyFormatError,
            errors.AttackError,
            errors.ConfigurationError,
        ]
        for exc in subclasses:
            assert issubclass(exc, errors.ReproError)


class TestModuleEntryPoints:
    @pytest.mark.parametrize(
        "module", ["repro", "repro.experiments.runner"]
    )
    def test_runner_entry(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--only", "fig7"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Fig. 7a" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_runner_rejects_unknown(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--only", "nope"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0

    def test_docstring_quickstart_runs(self):
        """The package docstring promises a workflow; keep it honest
        (smoke version with tiny sizes)."""
        from repro import (
            RecordEncoder,
            expose_model,
            load_benchmark,
            lock_encoder,
            run_reasoning_attack,
            train_model,
        )

        ds = load_benchmark("pamap", rng=0, sample_scale=0.05)
        encoder = RecordEncoder.random(ds.n_features, ds.levels, 512, rng=0)
        model = train_model(
            encoder, ds.train_x, ds.train_y, ds.n_classes, retrain_epochs=1
        ).model
        assert 0.0 <= model.score(ds.test_x, ds.test_y) <= 1.0
        surface, _ = expose_model(encoder, rng=1)
        result = run_reasoning_attack(surface)
        assert result.total_queries == ds.n_features + 1
        locked = lock_encoder(encoder, layers=2, rng=2)
        assert locked.layers == 2
