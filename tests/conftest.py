"""Shared fixtures for the test suite."""

import threading

import numpy as np
import pytest
from hypothesis import settings

from repro.utils.rng import SeedTree

# ``--hypothesis-profile=ci``: the budget CI runs the generated-layer,
# generated-loss and generated-trainer tests
# (tests/test_nn_ensemble.py::TestGeneratedLayers, ::TestGeneratedTrainer,
# tests/test_nn_losses.py::TestGeneratedLosses) at, as its own step.
# Tier-1 keeps Hypothesis' default profile.
settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def seed_tree() -> SeedTree:
    """A deterministic seed tree per test."""
    return SeedTree(12345)


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a live thread it started behind: the server's
    evaluation thread, an engine's accept loop and in-process agents must all
    be joined by whoever started them."""
    before = set(threading.enumerate())
    yield
    leaked = [thread for thread in threading.enumerate() if thread not in before]
    for thread in leaked:
        # A thread already told to stop may still be unwinding.
        thread.join(timeout=5)
    leaked = [thread.name for thread in leaked if thread.is_alive()]
    assert not leaked, f"test left live threads behind: {leaked}"
