"""Tests for evaluation protocols and the loss-landscape tooling."""

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy
from repro.data import synthetic_iwildcam, synthetic_pacs
from repro.eval import (
    ExperimentSetting,
    client_minima_divergence,
    loss_landscape_slice,
    run_fixed_split_protocol,
    run_lodo_protocol,
    run_ltdo_protocol,
    run_split_experiment,
)
from repro.eval.landscape import LandscapeSlice
from repro.fl import LocalTrainingConfig
from repro.nn import build_mlp_model

SUITE = synthetic_pacs(seed=0, samples_per_class=6, image_size=8)
FAST = ExperimentSetting(
    num_clients=4, clients_per_round=2, heterogeneity=0.2,
    num_rounds=2, eval_every=2, seed=0, model_widths=(4, 8), embed_dim=16,
)


class TestSplitExperiment:
    def test_returns_both_accuracies(self):
        out = run_split_experiment(
            SUITE, {"train": [0, 1], "val": [2], "test": [3]},
            FedAvgStrategy(LocalTrainingConfig(batch_size=8)), FAST,
        )
        assert 0.0 <= out.val_accuracy <= 1.0
        assert 0.0 <= out.test_accuracy <= 1.0
        assert out.val_domains == ["cartoon"]
        assert out.test_domains == ["sketch"]

    @pytest.mark.parametrize(
        "split, role",
        [
            ({"train": [0, 2], "val": [2], "test": [3]}, "val"),
            ({"train": [0, 3], "val": [2], "test": [3]}, "test"),
        ],
        ids=["val", "test"],
    )
    def test_held_out_domains_must_be_unseen(self, split, role):
        """Every protocol reports unseen-domain accuracy, so a split that
        scores a training domain is refused (LODO's val == test is not an
        overlap: ``test_lodo_covers_every_domain`` runs it)."""
        with pytest.raises(ValueError, match=f"{role} domain .* also a training"):
            run_split_experiment(
                SUITE, split,
                FedAvgStrategy(LocalTrainingConfig(batch_size=8)), FAST,
            )

    def test_same_setting_same_clients_across_methods(self):
        """Two methods see the identical partition — the fairness guarantee
        behind every table."""
        from repro.eval.protocols import make_clients

        a = make_clients(SUITE, [0, 1], FAST, seed_label=(0, 1))
        b = make_clients(SUITE, [0, 1], FAST, seed_label=(0, 1))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.dataset.images, cb.dataset.images)


class TestProtocols:
    def test_lodo_covers_every_domain(self):
        outcomes = run_lodo_protocol(
            SUITE, lambda: FedAvgStrategy(LocalTrainingConfig(batch_size=8)), FAST
        )
        assert sorted(outcomes) == sorted(SUITE.domain_names)
        for name, outcome in outcomes.items():
            assert outcome.val_domains == [name]
            assert outcome.test_domains == [name]

    def test_ltdo_assigns_distinct_val_test(self):
        outcomes = run_ltdo_protocol(
            SUITE, lambda: FedAvgStrategy(LocalTrainingConfig(batch_size=8)), FAST
        )
        assert sorted(outcomes) == sorted(SUITE.domain_names)
        for name, outcome in outcomes.items():
            assert outcome.val_domains == [name]
            assert outcome.test_domains != outcome.val_domains

    def test_fixed_split_protocol_uses_suite_roles(self):
        wild = synthetic_iwildcam(
            seed=0, num_train_domains=4, num_val_domains=2, num_test_domains=2,
            num_classes=6, mean_samples_per_domain=20, image_size=8,
        )
        out = run_fixed_split_protocol(
            wild, FedAvgStrategy(LocalTrainingConfig(batch_size=8)), FAST
        )
        assert 0.0 <= out.test_accuracy <= 1.0

    def test_fixed_split_requires_roles(self):
        with pytest.raises(ValueError):
            run_fixed_split_protocol(SUITE, FedAvgStrategy(), FAST)


class TestLandscape:
    def test_slice_geometry(self, rng):
        model = build_mlp_model(SUITE.image_shape, SUITE.num_classes, rng=rng,
                                hidden_dim=8, embed_dim=8)
        state = model.state_dict()
        landscape = loss_landscape_slice(
            model, state, SUITE.datasets[0], rng, radius=0.3, grid_points=5
        )
        assert landscape.losses.shape == (5, 5)
        assert np.all(np.isfinite(landscape.losses))
        # Weights must be restored afterwards.
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_center_loss_is_grid_center(self, rng):
        losses = np.arange(25, dtype=float).reshape(5, 5)
        s = LandscapeSlice(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), losses)
        assert s.center_loss() == losses[2, 2]

    def test_minimum_position(self):
        losses = np.full((3, 3), 5.0)
        losses[0, 2] = 0.1
        s = LandscapeSlice(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0]), losses)
        assert s.minimum_position() == (-1.0, 1.0)

    def test_divergence_of_identical_minima_is_zero(self):
        losses = np.full((3, 3), 1.0)
        losses[1, 1] = 0.0
        s = LandscapeSlice(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0]), losses)
        assert client_minima_divergence([s, s]) == 0.0

    def test_grid_validation(self, rng):
        model = build_mlp_model(SUITE.image_shape, SUITE.num_classes, rng=rng)
        with pytest.raises(ValueError):
            loss_landscape_slice(
                model, model.state_dict(), SUITE.datasets[0], rng, grid_points=4
            )

    def test_divergence_needs_two(self):
        s = LandscapeSlice(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            client_minima_divergence([s])


class TestUtils:
    def test_seed_tree_independence(self):
        from repro.utils.rng import SeedTree

        tree = SeedTree(7)
        a = tree.generator("x").random(5)
        b = tree.generator("y").random(5)
        assert not np.allclose(a, b)
        again = SeedTree(7).generator("x").random(5)
        np.testing.assert_array_equal(a, again)

    def test_format_table_alignment(self):
        from repro.utils.tables import format_table, format_percent

        table = format_table(["a", "bb"], [["x", 1.0], ["yyyy", 2.5]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "yyyy" in table
        assert format_percent(0.7363) == "73.63%"

    def test_stable_hash_is_stable(self):
        from repro.utils.rng import stable_hash

        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)


class TestSurfaceDivergence:
    def test_identical_surfaces_zero(self):
        from repro.eval.landscape import surface_divergence

        losses = np.arange(9, dtype=float).reshape(3, 3)
        s = LandscapeSlice(np.zeros(3), np.zeros(3), losses)
        assert surface_divergence([s, s]) == 0.0

    def test_offset_surfaces_still_zero(self):
        """A constant loss offset between clients is not misalignment —
        surfaces are centred on their own origin before comparison."""
        from repro.eval.landscape import surface_divergence

        losses = np.arange(9, dtype=float).reshape(3, 3)
        a = LandscapeSlice(np.zeros(3), np.zeros(3), losses)
        b = LandscapeSlice(np.zeros(3), np.zeros(3), losses + 5.0)
        assert surface_divergence([a, b]) < 1e-12

    def test_differently_bent_surfaces_positive(self):
        from repro.eval.landscape import surface_divergence

        a = LandscapeSlice(np.zeros(3), np.zeros(3),
                           np.arange(9, dtype=float).reshape(3, 3))
        b = LandscapeSlice(np.zeros(3), np.zeros(3),
                           np.arange(9, dtype=float).reshape(3, 3)[::-1].copy())
        assert surface_divergence([a, b]) > 0.0

    def test_needs_two(self):
        from repro.eval.landscape import surface_divergence

        s = LandscapeSlice(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            surface_divergence([s])
