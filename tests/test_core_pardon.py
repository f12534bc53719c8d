"""Tests for the PARDON method: style pipeline, strategy, and the Table-V
ablation switches."""

import numpy as np
import pytest

from repro.core import (
    PardonConfig,
    PardonStrategy,
    cluster_client_styles,
    cluster_styles_of_features,
    compute_client_style,
    extract_interpolation_style,
)
from repro.data import DomainStyle, render_images, synthetic_pacs, partition_clients
from repro.fl import Client, EnsembleBackend, LocalTrainingConfig, run_prepare
from repro.nn import build_mlp_model
from repro.style import InvertibleEncoder, StyleVector
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
ENCODER = InvertibleEncoder(levels=1, seed=7)


def two_domain_images(rng, per_domain=8):
    content = rng.normal(size=(2 * per_domain, 8, 8))
    style_a = DomainStyle("a", (1.0,) * 3, (2.0, 0.5, 1.0), (0.5, -0.5, 0.0),
                          noise_std=0.01)
    style_b = DomainStyle("b", (1.0,) * 3, (0.4, 1.8, 0.9), (-0.6, 0.6, 0.3),
                          noise_std=0.01)
    return np.concatenate([
        render_images(content[:per_domain], style_a, rng),
        render_images(content[per_domain:], style_b, rng),
    ])


class TestConfig:
    def test_variant_switches(self):
        assert not PardonConfig.v1().local_clustering
        assert not PardonConfig.v2().global_clustering
        assert not PardonConfig.v3().contrastive
        v4 = PardonConfig.v4()
        assert not v4.local_clustering and not v4.global_clustering
        assert not v4.style_positives
        v5 = PardonConfig.v5()
        assert v5.local_clustering and v5.global_clustering and v5.contrastive

    def test_validation(self):
        with pytest.raises(ValueError):
            PardonConfig(gamma_triplet=-1.0)
        with pytest.raises(ValueError):
            PardonConfig(margin=-0.1)

    def test_with_overrides(self):
        cfg = PardonConfig().with_overrides(gamma_triplet=9.0)
        assert cfg.gamma_triplet == 9.0
        assert cfg.local_clustering  # untouched


class TestLocalStyle:
    def test_cluster_styles_separate_domains(self, rng):
        images = two_domain_images(rng)
        styles = cluster_styles_of_features(ENCODER.encode(images))
        # Two visually distinct domains should produce at least 2 clusters.
        assert len(styles) >= 2

    def test_client_style_shape(self, rng):
        images = two_domain_images(rng)
        style = compute_client_style(images, ENCODER)
        assert style.dim == ENCODER.out_channels

    def test_clustered_style_resists_domain_imbalance(self, rng):
        """The point of local clustering (paper Eq. 1-2): when 80% of a
        client's data comes from one domain, averaging *cluster* styles sits
        closer to the balanced two-domain midpoint than the sample-weighted
        pooled average does.  Each domain renders through two sub-styles so
        the minority domain has internal cluster structure (a lone singleton
        cluster is unavoidably absorbed by FINCH's next level)."""
        content = rng.normal(size=(60, 8, 8))
        a1 = DomainStyle("a1", (1.0,) * 3, (3.0, 0.3, 1.0), (1.0, -1.0, 0.0),
                         noise_std=0.01)
        a2 = DomainStyle("a2", (1.0,) * 3, (2.5, 0.4, 1.2), (1.2, -0.8, 0.1),
                         noise_std=0.01)
        b1 = DomainStyle("b1", (1.0,) * 3, (0.3, 3.0, 1.0), (-1.0, 1.0, 0.0),
                         noise_std=0.01)
        b2 = DomainStyle("b2", (1.0,) * 3, (0.4, 2.5, 0.8), (-1.2, 0.8, -0.1),
                         noise_std=0.01)
        imbalanced = np.concatenate([
            render_images(content[:16], a1, rng),
            render_images(content[16:32], a2, rng),
            render_images(content[32:36], b1, rng),
            render_images(content[36:40], b2, rng),
        ])
        pure_a = compute_client_style(
            np.concatenate([
                render_images(content[40:50], a1, rng),
                render_images(content[50:60], a2, rng),
            ]), ENCODER, use_local_clustering=False,
        )
        pure_b = compute_client_style(
            np.concatenate([
                render_images(content[40:50], b1, rng),
                render_images(content[50:60], b2, rng),
            ]), ENCODER, use_local_clustering=False,
        )
        midpoint = (pure_a.to_array() + pure_b.to_array()) / 2
        clustered = compute_client_style(imbalanced, ENCODER, use_local_clustering=True)
        pooled = compute_client_style(imbalanced, ENCODER, use_local_clustering=False)
        dist_clustered = np.linalg.norm(clustered.to_array() - midpoint)
        dist_pooled = np.linalg.norm(pooled.to_array() - midpoint)
        assert dist_clustered < dist_pooled

    def test_single_image_client(self, rng):
        images = two_domain_images(rng)[:1]
        style = compute_client_style(images, ENCODER)
        assert np.all(np.isfinite(style.to_array()))

    def test_empty_client_rejected(self):
        with pytest.raises(ValueError):
            compute_client_style(np.zeros((0, 3, 8, 8)), ENCODER)


class TestInterpolation:
    def make_styles(self, rng, n, offset=0.0):
        return [
            StyleVector(
                mu=rng.normal(size=4) + offset,
                sigma=np.abs(rng.normal(size=4)) + 0.1,
            )
            for _ in range(n)
        ]

    def test_single_client(self, rng):
        styles = self.make_styles(rng, 1)
        out = extract_interpolation_style(styles)
        np.testing.assert_array_equal(out.to_array(), styles[0].to_array())

    def test_simple_average_mode(self, rng):
        styles = self.make_styles(rng, 5)
        out = extract_interpolation_style(styles, use_global_clustering=False)
        matrix = np.stack([s.to_array() for s in styles])
        np.testing.assert_allclose(out.to_array(), matrix.mean(axis=0))

    def test_median_resists_dominant_cluster(self, rng):
        """Eq. 5's rationale: 8 clients share one style, 2 clients each hold
        two other styles.  The clustered median lands near the middle style
        region; the plain mean is dragged toward the dominant group."""
        dominant = [
            StyleVector(mu=np.full(4, 10.0) + 0.01 * rng.normal(size=4),
                        sigma=np.ones(4))
            for _ in range(8)
        ]
        minority_low = [
            StyleVector(mu=np.full(4, -10.0) + 0.01 * rng.normal(size=4),
                        sigma=np.ones(4))
            for _ in range(2)
        ]
        minority_mid = [
            StyleVector(mu=np.zeros(4) + 0.01 * rng.normal(size=4),
                        sigma=np.ones(4))
            for _ in range(2)
        ]
        styles = dominant + minority_low + minority_mid
        clustered = extract_interpolation_style(styles, use_global_clustering=True)
        plain = extract_interpolation_style(styles, use_global_clustering=False)
        # Plain mean ≈ (8*10 - 2*10 + 0)/12 = 5; clustered median of cluster
        # centres {10, -10, 0} = 0.
        assert abs(clustered.mu.mean()) < abs(plain.mu.mean())

    def test_permutation_invariance(self, rng):
        styles = self.make_styles(rng, 6)
        forward = extract_interpolation_style(styles)
        backward = extract_interpolation_style(list(reversed(styles)))
        np.testing.assert_allclose(forward.to_array(), backward.to_array())

    def test_dimension_mismatch_rejected(self, rng):
        styles = [
            StyleVector(mu=np.zeros(4), sigma=np.ones(4)),
            StyleVector(mu=np.zeros(6), sigma=np.ones(6)),
        ]
        with pytest.raises(ValueError):
            extract_interpolation_style(styles)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_interpolation_style([])

    def test_cluster_client_styles_groups_similar(self, rng):
        styles = self.make_styles(rng, 4, offset=0.0) + self.make_styles(
            rng, 4, offset=50.0
        )
        clusters = cluster_client_styles(styles)
        assert 2 <= len(clusters) <= 4


def make_pardon_clients(n_clients=6, heterogeneity=0.2):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, heterogeneity, np.random.default_rng(0)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def train_one(strategy, client, model, seed=0):
    """One client's local update through the trainer, from ``model``'s
    weights."""
    (update,) = EnsembleBackend().run_group(
        strategy, model, model.state_dict(), [client], 0, [seed]
    )
    return update


class TestPardonStrategy:
    def test_prepare_extracts_global_style(self):
        strategy = PardonStrategy()
        clients = make_pardon_clients()
        run_prepare(strategy, clients, SeedTree(0))
        assert strategy.interpolation_style is not None
        assert len(strategy.client_styles) == sum(
            1 for c in clients if c.num_samples
        )

    def test_local_update_before_prepare_raises(self, rng):
        strategy = PardonStrategy()
        clients = make_pardon_clients()
        model = build_mlp_model(SUITE.image_shape, SUITE.num_classes, rng=rng)
        with pytest.raises(RuntimeError, match="fuse_prepare"):
            train_one(strategy, clients[0], model)

    def test_transfer_cache_reused(self, rng):
        strategy = PardonStrategy()
        clients = make_pardon_clients()
        run_prepare(strategy, clients, SeedTree(0))
        first = strategy._transferred_images(clients[0], rng)
        second = strategy._transferred_images(clients[0], rng)
        assert first is second  # cached object identity

    def test_v4_augmentation_positives_fresh_each_round(self, rng):
        strategy = PardonStrategy(PardonConfig.v4())
        clients = make_pardon_clients()
        run_prepare(strategy, clients, SeedTree(0))
        first = strategy._transferred_images(clients[0], rng)
        second = strategy._transferred_images(clients[0], rng)
        assert not np.array_equal(first, second)

    def test_local_update_changes_weights_and_returns_loss(self, rng):
        strategy = PardonStrategy(
            local_config=LocalTrainingConfig(batch_size=8)
        )
        clients = make_pardon_clients()
        model = build_mlp_model(SUITE.image_shape, SUITE.num_classes, rng=rng)
        run_prepare(strategy, clients, SeedTree(0))
        before = model.state_dict()
        update = train_one(strategy, clients[0], model)
        assert update.loss > 0
        assert update.client_id == clients[0].client_id
        changed = any(
            not np.allclose(before[key], update.state[key]) for key in before
        )
        assert changed

    def test_transferred_images_carry_interpolation_style(self, rng):
        strategy = PardonStrategy()
        clients = make_pardon_clients()
        run_prepare(strategy, clients, SeedTree(0))
        transferred = strategy._transferred_images(clients[0], rng)
        feats = strategy.encoder.encode(transferred)
        target = strategy.interpolation_style
        np.testing.assert_allclose(
            feats.mean(axis=(2, 3)).mean(axis=0), target.mu, atol=0.15
        )

    def test_prepare_with_all_empty_clients_raises(self):
        strategy = PardonStrategy()
        clients = make_pardon_clients()
        empty = [
            Client(i, clients[0].dataset.subset(np.array([], dtype=int)))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            run_prepare(strategy, empty, SeedTree(0))

    def test_runs_on_a_lazy_population(self):
        """The style exchange enumerates any population: a lazy one traces
        exactly like the same clients held in a list (sampled by the lazy
        population's id sampler, so only the population type differs)."""
        from repro.fl import (
            FederatedConfig,
            FederatedServer,
            LazyPopulation,
            ListPopulation,
        )
        from repro.fl.net.serve import trace_dict

        clients = [c for c in make_pardon_clients(8) if c.num_samples]
        by_id = {c.client_id: c for c in clients}

        def run(population):
            return trace_dict(
                FederatedServer(
                    PardonStrategy(local_config=LocalTrainingConfig(batch_size=8)),
                    population,
                    build_mlp_model(
                        SUITE.image_shape, SUITE.num_classes,
                        rng=np.random.default_rng(0),
                    ),
                    {"test": SUITE.datasets[2]},
                    FederatedConfig(num_rounds=2, clients_per_round=3, seed=0),
                ).run()
            )

        class SampledByIds(ListPopulation):
            def sample(self, sampler, rng):
                return [self.clients[i] for i in sampler.sample_ids(len(self), rng)]

        assert sorted(by_id) == list(range(len(clients)))
        lazy = LazyPopulation(len(clients), lambda i: Client(i, by_id[i].dataset))
        assert run(lazy) == run(SampledByIds(clients))
