"""Tests for the five FedDG baselines (+ FedAvg)."""

import numpy as np
import pytest

from repro.baselines import (
    CCSTStrategy,
    FedAlignStrategy,
    FedAvgStrategy,
    FedCCRLStrategy,
    FedDGGAStrategy,
    FedGMAStrategy,
    FedSRStrategy,
    FPLStrategy,
)
from repro.data import synthetic_pacs, partition_clients
from repro.fl import (
    Client,
    ClientUpdate,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    run_prepare,
)
from repro.nn import build_mlp_model
from repro.nn.serialize import state_allclose, state_sub
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)


def make_clients(n_clients=6, heterogeneity=0.2, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, heterogeneity, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def make_model(seed=0):
    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(seed)
    )


def run_strategy(strategy, rounds=3, n_clients=6):
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients(n_clients),
        model=make_model(),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(num_rounds=rounds, clients_per_round=3, seed=0),
    )
    return server.run()


ALL_STRATEGIES = [
    lambda: FedAvgStrategy(FAST),
    lambda: FedSRStrategy(local_config=FAST),
    lambda: FedGMAStrategy(local_config=FAST),
    lambda: FPLStrategy(local_config=FAST),
    lambda: FedDGGAStrategy(local_config=FAST),
    lambda: CCSTStrategy(local_config=FAST),
    lambda: FedAlignStrategy(local_config=FAST),
    lambda: FedCCRLStrategy(local_config=FAST),
]
STRATEGY_IDS = [
    "fedavg", "fedsr", "fedgma", "fpl", "feddg_ga", "ccst",
    "fedalign", "fedccrl",
]


class TestAllStrategiesRun:
    @pytest.mark.parametrize("factory", ALL_STRATEGIES, ids=STRATEGY_IDS)
    def test_completes_and_stays_finite(self, factory):
        result = run_strategy(factory())
        assert len(result.history.records) == 3
        for value in result.final_state.values():
            assert np.all(np.isfinite(value))

    @pytest.mark.parametrize("factory", ALL_STRATEGIES, ids=STRATEGY_IDS)
    def test_deterministic(self, factory):
        a = run_strategy(factory(), rounds=2)
        b = run_strategy(factory(), rounds=2)
        assert state_allclose(a.final_state, b.final_state)


class TestFedSR:
    def test_regularizers_shrink_embeddings(self):
        """Stronger FedSR regularization yields smaller embedding norms —
        the mechanism behind its collapse in the paper's tables."""
        def mean_embedding_norm(l2_weight):
            strategy = FedSRStrategy(
                l2_weight=l2_weight, cmi_weight=0.0, local_config=FAST
            )
            result = run_strategy(strategy, rounds=4)
            model = make_model()
            model.load_state_dict(result.final_state)
            z = model.forward_features(SUITE.datasets[0].images[:32])
            return float(np.linalg.norm(z, axis=1).mean())

        assert mean_embedding_norm(2.0) < mean_embedding_norm(0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            FedSRStrategy(l2_weight=-1.0)


class TestFedGMA:
    def test_full_agreement_equals_fedavg(self, rng):
        """When every client sends the same update, masking changes nothing."""
        strategy = FedGMAStrategy(agreement_threshold=0.8, local_config=FAST)
        model = make_model()
        global_state = model.state_dict()
        shared_update = {
            key: value + 0.5 for key, value in global_state.items()
        }
        clients = make_clients(3)
        updates = [
            ClientUpdate.from_client(
                c, {k: v.copy() for k, v in shared_update.items()}, 0.0
            )
            for c in clients
        ]
        merged = strategy.aggregate(global_state, updates, 0)
        assert state_allclose(merged, shared_update)

    def test_disagreement_attenuates_update(self, rng):
        """Two clients pushing in opposite directions: masked update is
        (much) smaller than either delta."""
        strategy = FedGMAStrategy(agreement_threshold=0.8, local_config=FAST)
        model = make_model()
        global_state = model.state_dict()
        up = {k: v + 1.0 for k, v in global_state.items()}
        down = {k: v - 1.0 for k, v in global_state.items()}
        clients = make_clients(2)
        # Force equal weights by giving both clients the same dataset.
        clients[1].dataset = clients[0].dataset
        merged = strategy.aggregate(
            global_state,
            [
                ClientUpdate.from_client(clients[0], up, 0.0),
                ClientUpdate.from_client(clients[1], down, 0.0),
            ],
            0,
        )
        delta = state_sub(merged, global_state)
        max_change = max(np.max(np.abs(v)) for v in delta.values())
        assert max_change < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            FedGMAStrategy(agreement_threshold=1.5)
        with pytest.raises(ValueError):
            FedGMAStrategy(server_lr=0.0)


class TestFPL:
    def test_prototypes_populated_after_round(self):
        strategy = FPLStrategy(local_config=FAST)
        run_strategy(strategy, rounds=2)
        assert strategy.global_prototypes
        dim = make_model().embed_dim
        for proto in strategy.global_prototypes.values():
            assert proto.shape == (dim,)
            assert np.all(np.isfinite(proto))

    def test_prototype_gradient_skips_unknown_classes(self, rng):
        strategy = FPLStrategy(local_config=FAST)
        z = rng.normal(size=(4, 8))
        loss, grad = strategy._prototype_gradient(z, np.array([0, 1, 2, 3]))
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_prototype_gradient_is_finite_at_scale(self, rng):
        strategy = FPLStrategy(local_config=FAST)
        strategy.global_prototypes = {0: rng.normal(size=8), 1: rng.normal(size=8)}
        z = rng.normal(size=(6, 8)) * 1e4  # extreme embeddings
        loss, grad = strategy._prototype_gradient(z, np.array([0, 1, 0, 1, 0, 1]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_validation(self):
        with pytest.raises(ValueError):
            FPLStrategy(proto_weight=-0.1)
        with pytest.raises(ValueError):
            FPLStrategy(temperature=0.0)


class TestFedAlign:
    def test_targets_populated_after_round(self):
        strategy = FedAlignStrategy(local_config=FAST)
        run_strategy(strategy, rounds=2)
        assert strategy.global_targets
        dim = make_model().embed_dim
        for target in strategy.global_targets.values():
            assert target.shape == (dim,)
            assert np.all(np.isfinite(target))

    def test_fusion_is_count_weighted(self):
        strategy = FedAlignStrategy(local_config=FAST)
        clients = make_clients(2)
        a = np.zeros(4)
        b = np.ones(4)
        updates = [
            ClientUpdate.from_client(
                clients[0],
                make_model().state_dict(),
                0.0,
                payload={"feature_stats": {0: (a, 1)}},
            ),
            ClientUpdate.from_client(
                clients[1],
                make_model().state_dict(),
                0.0,
                payload={"feature_stats": {0: (b, 3)}},
            ),
        ]
        strategy.fuse_payloads(updates, 0)
        assert np.allclose(strategy.global_targets[0], 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedAlignStrategy(align_weight=-0.1)


class TestFedCCRL:
    def test_targets_and_spread_populated(self):
        strategy = FedCCRLStrategy(local_config=FAST)
        run_strategy(strategy, rounds=2)
        assert strategy.global_targets
        spread = strategy.target_spread()
        assert set(spread) == set(strategy.global_targets)
        for value in spread.values():
            assert np.isfinite(value)
            assert value >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FedCCRLStrategy(consistency_weight=-1.0)
        with pytest.raises(ValueError):
            FedCCRLStrategy(align_weight=-1.0)


class TestFedDGGA:
    def test_gaps_come_from_the_uploads(self):
        """The server adjusts weights from the gaps the participants
        report; a participant that reports none keeps its weight."""
        strategy = FedDGGAStrategy(step_size=0.5, momentum=0.0, local_config=FAST)
        clients = make_clients(3)
        global_state = make_model().state_dict()
        updates = [
            ClientUpdate.from_client(
                c, {k: v + 0.1 for k, v in global_state.items()}, 0.0,
                payload={"gap": gap} if gap is not None else None,
            )
            for c, gap in zip(clients, [0.5, 2.5, None])
        ]
        strategy.aggregate(global_state, updates, 0)
        assert strategy.client_weights == {
            clients[0].client_id: 0.5,
            clients[1].client_id: 1.5,
        }

    def test_participant_reports_loss_of_the_broadcast_weights(self):
        from repro.fl import evaluate_loss

        strategy = FedDGGAStrategy(local_config=FAST)
        client = make_clients(3)[0]
        model = make_model()
        expected = evaluate_loss(model, client.dataset)
        update = strategy.local_update(client, model, 0, np.random.default_rng(0))
        assert update.payload == {"gap": expected}

    def test_weights_shift_toward_high_loss_clients(self):
        strategy = FedDGGAStrategy(step_size=0.5, momentum=0.0, local_config=FAST)
        result = run_strategy(strategy, rounds=3)
        assert result is not None
        weights = strategy.client_weights
        assert weights  # populated
        assert all(w >= strategy.weight_floor for w in weights.values())
        # After rounds with heterogeneous clients, weights differentiate.
        assert np.std(list(weights.values())) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FedDGGAStrategy(momentum=1.0)
        with pytest.raises(ValueError):
            FedDGGAStrategy(weight_floor=0.0)


class TestCCST:
    def test_style_bank_built_in_prepare(self):
        strategy = CCSTStrategy(local_config=FAST)
        clients = make_clients(5)
        run_prepare(strategy, clients, SeedTree(0))
        assert len(strategy.style_bank) == sum(1 for c in clients if c.num_samples)

    def test_sample_mode_banks_multiple_styles_per_client(self):
        strategy = CCSTStrategy(mode="sample", styles_per_client=3, local_config=FAST)
        clients = make_clients(4)
        run_prepare(strategy, clients, SeedTree(0))
        nonempty = sum(1 for c in clients if c.num_samples)
        assert len(strategy.style_bank) > nonempty

    def test_foreign_styles_exclude_own(self):
        strategy = CCSTStrategy(local_config=FAST)
        clients = make_clients(4)
        run_prepare(strategy, clients, SeedTree(0))
        own_excluded = strategy._foreign_styles(clients[0].client_id)
        assert len(own_excluded) == len(strategy.style_bank) - 1

    def test_bank_exposes_client_statistics(self):
        """The privacy-relevant property: CCST's bank carries per-client
        statistics that third parties can read."""
        strategy = CCSTStrategy(local_config=FAST)
        clients = make_clients(4)
        run_prepare(strategy, clients, SeedTree(0))
        entry = strategy.style_bank[0]
        assert entry.client_id == clients[0].client_id
        assert np.all(np.isfinite(entry.style.to_array()))

    def test_validation(self):
        with pytest.raises(ValueError):
            CCSTStrategy(mode="nope")
        with pytest.raises(ValueError):
            CCSTStrategy(styles_per_client=0)
        with pytest.raises(ValueError):
            CCSTStrategy(augment_per_batch=0)
