"""Serving fixtures: a provisioned tenant directory + loaded registries.

Encoders and classifiers are pure functions, so a tenant rebuilt via
``load_tenant`` answers bit-identically to the original in-memory system
and to every other replica.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.model.train import train_model
from repro.serving.registry import ModelRegistry, load_tenant, provision_tenant


@pytest.fixture
def provisioned(tmp_path, locked_system, tiny_dataset):
    """Provision the shared locked system + trained model to disk."""
    training = train_model(
        locked_system.encoder,
        tiny_dataset.train_x,
        tiny_dataset.train_y,
        n_classes=tiny_dataset.n_classes,
        binary=True,
        retrain_epochs=1,
    )
    directory = tmp_path / "alpha"
    tenant = provision_tenant(directory, "alpha", locked_system, training.model)
    return SimpleNamespace(
        directory=directory, original=training.model, tenant=tenant
    )


@pytest.fixture
def tenant_dir(provisioned):
    return provisioned.directory


@pytest.fixture
def registry(tenant_dir):
    """A registry holding one freshly loaded replica of the tenant."""
    reg = ModelRegistry()
    reg.add(load_tenant(tenant_dir))
    return reg
