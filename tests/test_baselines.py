"""Tests for the FedDG baselines (+ FedAvg), and for every ``repro.cli``
method training through the shared objective runners."""

import hashlib
import json

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
    MixStyleStrategy,
)
from repro.cli import METHODS
from repro.data import synthetic_pacs, partition_clients
from repro.fl import (
    Client,
    ClientUpdate,
    EnsembleBackend,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    run_prepare,
)
from repro.fl.aggregate import make_aggregator
from repro.fl.net.serve import trace_dict
from repro.fl.strategy import Strategy
from repro.nn import build_cnn_model, build_mlp_model
from repro.nn.objective import prototype_nce
from repro.nn.serialize import state_allclose, state_sub
from repro.utils.rng import SeedTree
from tests import reference_loop

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
        def mean_embedding_norm(overrides):
            strategy = FedSRStrategy(local_config=FAST)
            strategy.apply_objective_overrides(overrides)
            result = run_strategy(strategy, rounds=4)
            model = make_model()
            model.load_state_dict(result.final_state)
            z = model.forward_features(SUITE.datasets[0].images[:32])
            return float(np.linalg.norm(z, axis=1).mean())

        assert mean_embedding_norm("embed_l2=2,class_align=0") < (
            mean_embedding_norm("embed_l2=0,class_align=0")
        )


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
        assert strategy.class_targets
        dim = make_model().embed_dim
        for proto in strategy.class_targets.values():
            assert proto.shape == (dim,)
            assert np.all(np.isfinite(proto))

    def test_prototype_gradient_skips_unknown_classes(self, rng):
        strategy = FPLStrategy(local_config=FAST)
        z = rng.normal(size=(4, 8))
        loss, grad = prototype_nce(
            z, np.array([0, 1, 2, 3]), strategy.class_targets, 0.5
        )
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_prototype_gradient_is_finite_at_scale(self, rng):
        strategy = FPLStrategy(local_config=FAST)
        strategy.class_targets = {0: rng.normal(size=8), 1: rng.normal(size=8)}
        z = rng.normal(size=(6, 8)) * 1e4  # extreme embeddings
        loss, grad = prototype_nce(
            z, np.array([0, 1, 0, 1, 0, 1]), strategy.class_targets, 0.5
        )
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_validation(self):
        with pytest.raises(ValueError):
            FPLStrategy(temperature=0.0)


class TestFedAlign:
    def test_targets_populated_after_round(self):
        strategy = FedAlignStrategy(local_config=FAST)
        run_strategy(strategy, rounds=2)
        assert strategy.class_targets
        dim = make_model().embed_dim
        for target in strategy.class_targets.values():
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
                payload={"class_stats": {0: (a, 1)}},
            ),
            ClientUpdate.from_client(
                clients[1],
                make_model().state_dict(),
                0.0,
                payload={"class_stats": {0: (b, 3)}},
            ),
        ]
        strategy.fuse_payloads(updates, 0)
        assert np.allclose(strategy.class_targets[0], 0.75)


class TestFedCCRL:
    def test_targets_and_spread_populated(self):
        strategy = FedCCRLStrategy(local_config=FAST)
        run_strategy(strategy, rounds=2)
        assert strategy.class_targets
        dim = make_model().embed_dim
        for target in strategy.class_targets.values():
            assert target.shape == (dim,)
            assert np.all(np.isfinite(target))


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
        strategy = FedDGGAStrategy(local_config=FAST)
        client = make_clients(3)[0]
        model = make_model()
        expected = reference_loop.evaluate_loss(model, client.dataset)
        (update,) = EnsembleBackend().run_group(
            strategy, model, model.state_dict(), [client], 0, [0]
        )
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


# --------------------------------------------------------------------------
# One epoch loop: every method trains through the objective runners
# --------------------------------------------------------------------------

VIEWS_CONFIG = LocalTrainingConfig(batch_size=5, local_epochs=2)


def traced_run(strategy, executor):
    """Three rounds of four of eight 14-sample clients on the CNN (which
    has an ensemble converter); the digest of the run's trace."""
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients(8),
        model=build_cnn_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        ),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(num_rounds=3, clients_per_round=4, seed=0),
        executor=executor,
    )
    trace = json.dumps(trace_dict(server.run()), sort_keys=True)
    return hashlib.sha256(trace.encode()).hexdigest()[:16]


class TestEveryMethodOwnsItsWeights:
    """Each method states its loss weights once, in its objective; these
    are the defaults every ``repro.cli`` method trained with before the
    per-method weight keywords went."""

    SPECS = {
        "ccst": "ce=1",
        "fedalign": "ce=1,align=0.5",
        "fedavg": "ce=1",
        "fedccrl": "ce=1,consistency=0.5,align=0.25",
        "feddg_ga": "ce=1",
        "fedgma": "ce=1",
        "fedsr": "ce=1,embed_l2=0.1,class_align=0.2",
        "fpl": "ce=1,proto_nce=0.5",
        "mixstyle": "ce=1",
        "pardon": "ce=1,triplet_style=2,pair_l2=0.005",
    }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_default_objective_is_pinned(self, method):
        assert METHODS[method]().objective.spec == self.SPECS[method]


class TestEveryMethodOnTheRunners:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_objective_override_moves_the_trace(self, method):
        """``--objective ce=0.5`` reaches every method's training step —
        CCST and MixStyle used to accept it and train unchanged."""
        reweighted = METHODS[method]()
        reweighted.apply_objective_overrides("ce=0.5")
        assert traced_run(reweighted, SerialExecutor()) != traced_run(
            METHODS[method](), SerialExecutor()
        )

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_trains_on_stacks_only(self, method, monkeypatch):
        """Every participant of every round trains through
        ``Strategy.train_group``, once."""
        trained = []
        train_group = Strategy.train_group
        monkeypatch.setattr(
            Strategy, "train_group",
            lambda self, clients, *rest: trained.extend(
                client.client_id for client in clients
            ) or train_group(self, clients, *rest),
        )
        traced_run(METHODS[method](), SerialExecutor())
        assert len(trained) == 3 * 4


class TestPerBatchViewDigests:
    """CCST's style-bank copies and MixStyle's mixing moved from their own
    epoch loops onto ``Strategy.batch_views``; these digests were traced
    with those loops and must not move, on the serial engine or the pool."""

    DIGESTS = {
        "ccst": "0c8a9edf78b3c652",
        "ccst-sample": "0e49ee0456443bc8",
        "mixstyle": "d93c2bd7eec9a78a",
        "mixstyle-p1": "8215aa9ed9137485",
    }
    FACTORIES = {
        "ccst": lambda: CCSTStrategy(local_config=VIEWS_CONFIG),
        "ccst-sample": lambda: CCSTStrategy(
            mode="sample", augment_per_batch=2, local_config=VIEWS_CONFIG
        ),
        "mixstyle": lambda: MixStyleStrategy(local_config=VIEWS_CONFIG),
        "mixstyle-p1": lambda: MixStyleStrategy(
            mix_probability=1.0, local_config=VIEWS_CONFIG
        ),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_serial(self, case):
        assert traced_run(self.FACTORIES[case](), SerialExecutor()) == (
            self.DIGESTS[case]
        )

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_pool(self, case):
        with ParallelExecutor(num_workers=2) as executor:
            digest = traced_run(self.FACTORIES[case](), executor)
        assert digest == self.DIGESTS[case]


class TestFedSRDigests:
    """FedSR's two regularizers (``embed_l2``, ``class_align``) were traced
    while both ran through the per-slice fallback; their stacked forms
    must not move these digests, on the serial engine or the pool."""

    DIGESTS = {"mean": "037720b7abfb264c", "median": "62773eb12d5c2e2c"}

    @pytest.mark.parametrize("rule", sorted(DIGESTS))
    def test_serial(self, rule):
        strategy = METHODS["fedsr"]()
        strategy.aggregator = make_aggregator(rule)
        assert traced_run(strategy, SerialExecutor()) == self.DIGESTS[rule]

    def test_pool(self):
        with ParallelExecutor(num_workers=2) as executor:
            digest = traced_run(METHODS["fedsr"](), executor)
        assert digest == self.DIGESTS["mean"]
