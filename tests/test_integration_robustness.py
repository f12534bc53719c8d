"""Integration and failure-injection tests across the whole stack.

These exercise the paths the unit tests cannot: full federated runs of
PARDON and its ablation variants, degenerate client data (single sample,
single class, constant images), and the end-to-end claim that style
transfer helps on a strongly style-shifted unseen domain.
"""

import numpy as np
import pytest

from repro import (
    ExperimentSetting,
    FedAvgStrategy,
    PardonConfig,
    PardonStrategy,
    run_fixed_split_protocol,
    run_split_experiment,
    synthetic_iwildcam,
    synthetic_pacs,
)
from repro.core import compute_client_style, extract_interpolation_style
from repro.data import LabeledDataset, partition_clients
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    run_prepare,
)
from repro.nn import build_mlp_model
from repro.style import InvertibleEncoder, StyleVector, adain
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=10, image_size=8)
ENCODER = InvertibleEncoder(levels=1, seed=7)


class TestPardonEndToEnd:
    @pytest.mark.parametrize(
        "config_factory",
        [PardonConfig.v1, PardonConfig.v2, PardonConfig.v3,
         PardonConfig.v4, PardonConfig.v5],
        ids=["v1", "v2", "v3", "v4", "v5"],
    )
    def test_all_ablation_variants_complete(self, config_factory):
        setting = ExperimentSetting(
            num_clients=4, clients_per_round=2, heterogeneity=0.2,
            num_rounds=2, eval_every=2, seed=0, model_widths=(4, 8),
            embed_dim=16,
        )
        outcome = run_split_experiment(
            SUITE,
            {"train": [0, 1], "val": [2], "test": [3]},
            PardonStrategy(config_factory(),
                           LocalTrainingConfig(batch_size=8)),
            setting,
        )
        assert 0.0 <= outcome.test_accuracy <= 1.0
        for value in outcome.result.final_state.values():
            assert np.all(np.isfinite(value))

    def test_pardon_beats_fedavg_on_many_domain_suite(self):
        """The paper's headline, at test scale: on an IWildCam-like suite
        with domain-separated clients, PARDON's unseen-camera accuracy
        exceeds FedAvg's."""
        wild = synthetic_iwildcam(
            seed=3, num_train_domains=10, num_val_domains=2,
            num_test_domains=4, num_classes=10, mean_samples_per_domain=40,
            image_size=16,
        )
        setting = ExperimentSetting(
            num_clients=10, clients_per_round=0.3, heterogeneity=0.0,
            num_rounds=10, eval_every=10, seed=3,
        )
        fedavg = run_fixed_split_protocol(wild, FedAvgStrategy(), setting)
        pardon = run_fixed_split_protocol(wild, PardonStrategy(), setting)
        assert pardon.test_accuracy > fedavg.test_accuracy

    def test_pardon_full_run_deterministic(self):
        def run_once():
            setting = ExperimentSetting(
                num_clients=4, clients_per_round=2, heterogeneity=0.2,
                num_rounds=2, eval_every=2, seed=1, model_widths=(4, 8),
                embed_dim=16,
            )
            return run_split_experiment(
                SUITE,
                {"train": [0, 1], "val": [2], "test": [3]},
                PardonStrategy(local_config=LocalTrainingConfig(batch_size=8)),
                setting,
            )

        a, b = run_once(), run_once()
        assert a.val_accuracy == b.val_accuracy
        assert a.test_accuracy == b.test_accuracy


class TestDegenerateClients:
    def test_single_sample_client_styles(self):
        """A client with one image must still produce a finite style and
        survive a PARDON round."""
        images = SUITE.datasets[0].images[:1]
        style = compute_client_style(images, ENCODER)
        assert np.all(np.isfinite(style.to_array()))

    def test_single_class_client_trains(self, rng):
        """A client whose data is all one class has no triplet negatives;
        the loss degrades gracefully to the positive pull."""
        mask = SUITE.datasets[0].labels == 0
        dataset = SUITE.datasets[0].subset(np.nonzero(mask)[0])
        clients = [
            Client(0, dataset),
            Client(1, SUITE.datasets[1]),
        ]
        model = build_mlp_model(SUITE.image_shape, SUITE.num_classes, rng=rng)
        strategy = PardonStrategy(local_config=LocalTrainingConfig(batch_size=8))
        server = FederatedServer(
            strategy=strategy,
            clients=clients,
            model=model,
            eval_sets={},
            config=FederatedConfig(num_rounds=2, clients_per_round=2, seed=0),
        )
        result = server.run()
        for value in result.final_state.values():
            assert np.all(np.isfinite(value))

    def test_constant_image_client(self):
        """Zero-variance images (dead sensor) must not produce NaN styles
        or NaN style transfer."""
        constant = np.full((4, 3, 8, 8), 0.7)
        style = compute_client_style(constant, ENCODER)
        assert np.all(np.isfinite(style.to_array()))
        features = ENCODER.encode(constant)
        target = StyleVector(
            mu=np.zeros(ENCODER.out_channels),
            sigma=np.ones(ENCODER.out_channels),
        )
        assert np.all(np.isfinite(adain(features, target)))

    def test_interpolation_from_identical_styles(self):
        """All clients identical (degenerate FINCH input): the global style
        equals the shared style."""
        style = compute_client_style(SUITE.datasets[0].images[:8], ENCODER)
        merged = extract_interpolation_style([style] * 5)
        np.testing.assert_allclose(merged.to_array(), style.to_array())

    def test_mixed_empty_and_nonempty_clients(self, rng):
        partition = partition_clients(
            SUITE, [0, 1], 4, 0.0, np.random.default_rng(0)
        )
        clients = [Client(i, d) for i, d in enumerate(partition.client_datasets)]
        empty_dataset = LabeledDataset(
            images=np.zeros((0,) + SUITE.image_shape),
            labels=np.zeros(0, dtype=np.int64),
            domain_ids=np.zeros(0, dtype=np.int64),
        )
        clients.append(Client(99, empty_dataset))
        strategy = PardonStrategy(local_config=LocalTrainingConfig(batch_size=8))
        run_prepare(strategy, clients, SeedTree(0))
        assert 99 not in strategy.client_styles
        assert strategy.interpolation_style is not None


class TestStyleTransferHelps:
    def test_transferred_training_data_closes_style_gap(self):
        """Mechanistic end-to-end check: transferring two domains' data to
        the interpolation style shrinks the distance between their channel
        statistics (what makes the learned features style-invariant)."""
        from repro.style import apply_style_to_images

        imgs_a = SUITE.datasets[0].images
        imgs_b = SUITE.datasets[3].images  # sketch: extreme style
        styles = [
            compute_client_style(imgs_a, ENCODER),
            compute_client_style(imgs_b, ENCODER),
        ]
        target = extract_interpolation_style(styles)
        moved_a = apply_style_to_images(imgs_a, target, ENCODER)
        moved_b = apply_style_to_images(imgs_b, target, ENCODER)

        def channel_stats(x):
            return np.concatenate(
                [x.mean(axis=(0, 2, 3)), x.std(axis=(0, 2, 3))]
            )

        gap_before = np.linalg.norm(channel_stats(imgs_a) - channel_stats(imgs_b))
        gap_after = np.linalg.norm(channel_stats(moved_a) - channel_stats(moved_b))
        assert gap_after < gap_before * 0.5
