"""Tests for the ensemble trainer (`repro.nn.ensemble` + `repro.fl.compute`).

The acceptance bar: slice ``k`` of every ``(K, ...)`` ensemble layer is
*bitwise* the template layer's computation on that slice (forward, backward,
parameter gradients, running buffers); a K-stack local update is bitwise K
independent loop updates, so client results never depend on how an engine
groups them; ``_STACK_STEP_ELEMENTS = 1`` (K=1 stacks through the ensemble
code) proves that equivalence one client at a time; and unsupported models
or strategies fall back to the trainer's per-client loop rather than
erroring.  The loop reference is that fallback itself: ``_run_loop`` at the
trainer boundary, a strategy whose ``supports_ensemble()`` is ``False`` at
the engine boundary — the path CCST and MixStyle take in production.
"""

import sys
import threading

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy, FedDGGAStrategy, FPLStrategy
from repro.core import PardonStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.data.synthetic import LabeledDataset
from repro.fl import (
    Client,
    EnsembleBackend,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    run_prepare,
    shm_supported,
)
from repro.fl import compute as fl_compute
from repro.fl.faults import FaultEvent, FaultPlan
from repro.fl.net.executor import RemoteExecutor
from repro.fl.strategy import Strategy
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    FeatureClassifierModel,
    Flatten,
    GlobalAvgPool2d,
    InstanceNorm2d,
    LayerNorm,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    build_cnn_model,
    build_mlp_model,
    ensemble_of,
    ensemble_state_dicts,
    ensemble_supports,
    load_state_broadcast,
    load_state_stack,
)
from repro.nn import conv
from repro.nn.conv import im2col
from repro.nn.ensemble import ensemble_cross_entropy
from repro.nn.losses import CrossEntropyLoss
from repro.utils.rng import SeedTree
from tests.gradcheck import check_module_gradients

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)

K = 3  # default stack size for layer parity checks
FAST = LocalTrainingConfig(batch_size=5, local_epochs=2)


# --------------------------------------------------------------------------
# Layer-level bitwise parity: slice k of the ensemble == template on slice k
# --------------------------------------------------------------------------


def _perturbed_variants(factory, k, seed):
    """K template layers with distinct parameters (norm layers initialize
    to constants, so perturb every parameter to make slices distinguishable)."""
    layers = []
    for index in range(k):
        rng = np.random.default_rng(seed + index)
        layer = factory(rng)
        for _, param in layer.named_parameters():
            param.data += 0.1 * rng.normal(size=param.data.shape)
        layers.append(layer)
    return layers


def _assert_slicewise_equal(factory, x_shape, seed=0, k=K, training=True):
    """Forward, input gradient, parameter gradients, and buffers of the
    ensemble must be bitwise the K independent template computations."""
    templates = _perturbed_variants(factory, k, seed)
    emodel = ensemble_of(templates[0], k)
    states = [template.state_dict() for template in templates]
    if states[0]:
        load_state_stack(emodel, states)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(k,) + x_shape)

    for module in (emodel, *templates):
        module.train() if training else module.eval()

    out = emodel.forward(x)
    emodel.zero_grad()
    emodel.forward(x)
    grad_out = rng.normal(size=out.shape)
    grad_in = emodel.backward(grad_out)

    ensemble_params = dict(emodel.named_parameters())
    ensemble_buffers = dict(emodel.named_buffers())
    for index, template in enumerate(templates):
        ref_out = template.forward(x[index])
        assert np.array_equal(out[index], ref_out), (
            f"slice {index}: forward diverged from template"
        )
        template.zero_grad()
        template.forward(x[index])
        ref_grad_in = template.backward(grad_out[index])
        assert np.array_equal(grad_in[index], ref_grad_in), (
            f"slice {index}: input gradient diverged from template"
        )
        for name, param in template.named_parameters():
            assert np.array_equal(ensemble_params[name].grad[index], param.grad), (
                f"slice {index}: gradient of {name} diverged from template"
            )
        for name, buffer in template.named_buffers():
            assert np.array_equal(ensemble_buffers[name][index], buffer), (
                f"slice {index}: buffer {name} diverged from template"
            )


class TestLayerParity:
    """Every layer type of the PARDON model (and the rest of the registry)."""

    def test_conv2d(self):
        _assert_slicewise_equal(
            lambda rng: Conv2d(3, 5, kernel_size=3, stride=2, padding=1, rng=rng),
            (4, 3, 8, 8),
        )

    def test_conv2d_unit_stride_no_padding(self):
        _assert_slicewise_equal(
            lambda rng: Conv2d(2, 4, kernel_size=3, stride=1, padding=0, rng=rng),
            (3, 2, 6, 6),
        )

    def test_linear(self):
        _assert_slicewise_equal(lambda rng: Linear(7, 4, rng=rng), (6, 7))

    def test_batchnorm_training(self):
        _assert_slicewise_equal(lambda rng: BatchNorm2d(5), (4, 5, 6, 6))

    def test_batchnorm_eval(self):
        _assert_slicewise_equal(
            lambda rng: BatchNorm2d(5), (4, 5, 6, 6), training=False
        )

    def test_instancenorm(self):
        _assert_slicewise_equal(lambda rng: InstanceNorm2d(5), (4, 5, 6, 6))

    def test_layernorm(self):
        _assert_slicewise_equal(lambda rng: LayerNorm(7), (6, 7))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: MaxPool2d(2),
            lambda rng: AvgPool2d(2),
            lambda rng: GlobalAvgPool2d(),
        ],
        ids=["maxpool", "avgpool", "globalavgpool"],
    )
    def test_pools(self, factory):
        _assert_slicewise_equal(factory, (3, 4, 6, 6))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: ReLU(),
            lambda rng: LeakyReLU(0.2),
            lambda rng: Tanh(),
            lambda rng: Sigmoid(),
        ],
        ids=["relu", "leaky_relu", "tanh", "sigmoid"],
    )
    def test_elementwise(self, factory):
        _assert_slicewise_equal(factory, (5, 7))

    def test_flatten(self):
        _assert_slicewise_equal(lambda rng: Flatten(), (3, 2, 4, 5))

    def test_channels_last_activations_through_every_spatial_layer(self):
        """Conv outputs are NHWC in memory and elementwise layers keep that
        layout, so norm, pool and 1x1-conv layers all see strided input; the
        per-slice reductions must still be the template's, bit for bit."""
        _assert_slicewise_equal(
            lambda rng: Sequential(
                Conv2d(3, 5, kernel_size=3, stride=1, padding=1, rng=rng),
                ReLU(),
                BatchNorm2d(5),
                MaxPool2d(2),
                Conv2d(5, 6, kernel_size=3, stride=2, padding=1, rng=rng),
                InstanceNorm2d(6),
                LeakyReLU(0.1),
                AvgPool2d(2),
                Conv2d(6, 4, kernel_size=1, rng=rng),
                Tanh(),
                GlobalAvgPool2d(),
                Linear(4, 3, rng=rng),
            ),
            (4, 3, 16, 16),
        )

    def test_full_cnn_model(self):
        """The whole PARDON backbone: split-gradient routing included."""
        templates = _perturbed_variants(
            lambda rng: build_cnn_model((3, 8, 8), 4, rng, widths=(4, 6), embed_dim=8),
            K,
            seed=7,
        )
        emodel = ensemble_of(templates[0], K)
        load_state_stack(emodel, [t.state_dict() for t in templates])
        rng = np.random.default_rng(11)
        x = rng.normal(size=(K, 5, 3, 8, 8))
        embeddings = emodel.forward_features(x)
        logits = emodel.forward_logits(embeddings)
        grad_logits = rng.normal(size=logits.shape)
        grad_embedding = rng.normal(size=embeddings.shape)
        emodel.zero_grad()
        emodel.forward_features(x)
        emodel.forward_logits(embeddings)
        grad_in = emodel.backward(
            grad_logits=grad_logits, grad_embedding=grad_embedding
        )
        ensemble_params = dict(emodel.named_parameters())
        for index, template in enumerate(templates):
            ref_embed = template.forward_features(x[index])
            ref_logits = template.forward_logits(ref_embed)
            assert np.array_equal(embeddings[index], ref_embed)
            assert np.array_equal(logits[index], ref_logits)
            template.zero_grad()
            template.forward_features(x[index])
            template.forward_logits(ref_embed)
            ref_grad_in = template.backward(
                grad_logits=grad_logits[index],
                grad_embedding=grad_embedding[index],
            )
            assert np.array_equal(grad_in[index], ref_grad_in)
            for name, param in template.named_parameters():
                assert np.array_equal(
                    ensemble_params[name].grad[index], param.grad
                )

    def test_cross_entropy_matches_template_loss(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(K, 6, 4))
        labels = rng.integers(0, 4, size=(K, 6))
        losses, grads = ensemble_cross_entropy(logits, labels)
        for index in range(K):
            loss_fn = CrossEntropyLoss()
            ref_loss = loss_fn.forward(logits[index], labels[index])
            assert losses[index] == ref_loss
            assert np.array_equal(grads[index], loss_fn.backward())


class TestGradcheck:
    """Finite differences agree with the ensemble's analytic gradients."""

    def test_ensemble_feature_stack(self):
        model = build_cnn_model(
            (2, 4, 4), 3, np.random.default_rng(0), widths=(3, 4), embed_dim=5
        )
        emodel = ensemble_of(model, 2)
        x = np.random.default_rng(1).normal(size=(2, 2, 2, 4, 4))
        check_module_gradients(emodel.features, x)

    def test_ensemble_norm_layers(self):
        stack = Sequential(
            ensemble_of(BatchNorm2d(3), 2), ensemble_of(InstanceNorm2d(3), 2)
        )
        x = np.random.default_rng(2).normal(size=(2, 3, 3, 4, 4))
        check_module_gradients(stack, x)


# --------------------------------------------------------------------------
# Trainer-level property: a K-stack == K independent loop updates, bitwise
# --------------------------------------------------------------------------


def _toy_clients(sizes, num_classes=4, image_shape=(3, 8, 8), seed=0):
    """Deterministic per-client datasets so fresh copies are identical."""
    clients = []
    for client_id, count in enumerate(sizes):
        rng = np.random.default_rng(seed * 1000 + client_id)
        clients.append(
            Client(
                client_id,
                LabeledDataset(
                    images=rng.normal(size=(count,) + image_shape),
                    labels=rng.integers(0, num_classes, size=count),
                    domain_ids=np.full(count, client_id % 3),
                ),
            )
        )
    return clients


def _run_trainer(strategy_factory, sizes, seed=0, loop=False):
    """One round on fresh clients through the trainer (or, with ``loop``,
    its per-client loop fallback alone); returns (updates, clients)."""
    clients = _toy_clients(sizes, seed=seed)
    model = build_cnn_model(
        (3, 8, 8), 4, np.random.default_rng(42), widths=(4, 6), embed_dim=8
    )
    strategy = strategy_factory()
    run_prepare(strategy, clients, SeedTree(7))
    wire_state = model.state_dict()
    seeds = [1000 + client.client_id for client in clients]
    train = fl_compute._run_loop if loop else EnsembleBackend().run_group
    updates = train(strategy, model, wire_state, clients, 0, seeds)
    return updates, clients


def _assert_updates_bitwise_equal(got, want):
    assert [u.client_id for u in got] == [u.client_id for u in want]
    for got_update, want_update in zip(got, want):
        assert got_update.loss == want_update.loss
        assert got_update.num_samples == want_update.num_samples
        assert set(got_update.state) == set(want_update.state)
        for name in want_update.state:
            assert np.array_equal(got_update.state[name], want_update.state[name]), (
                f"client {want_update.client_id}: state {name} diverged"
            )
        assert set(got_update.payload) == set(want_update.payload)
        for key, value in want_update.payload.items():
            if isinstance(value, dict):
                assert set(got_update.payload[key]) == set(value)
                for inner, array in value.items():
                    assert np.array_equal(got_update.payload[key][inner], array)
            else:
                assert np.array_equal(got_update.payload[key], value)


def _assert_scratch_equal(got_clients, want_clients):
    """The caches each backend left resident on its clients, bitwise."""
    for got, want in zip(got_clients, want_clients):
        assert set(got.scratch) == set(want.scratch)
        for key, value in want.scratch.items():
            for got_part, want_part in zip(got.scratch[key], value):
                assert np.array_equal(got_part, want_part), (
                    f"client {want.client_id}: scratch {key} diverged"
                )


STRATEGIES = {
    "fedavg": lambda: FedAvgStrategy(FAST),
    "feddg_ga": lambda: FedDGGAStrategy(local_config=FAST),
    "fpl": lambda: FPLStrategy(local_config=FAST),
    "pardon": lambda: PardonStrategy(local_config=FAST),
}


class TestGroupingInvariance:
    """The tentpole's numerical contract, at the trainer boundary."""

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    @pytest.mark.parametrize(
        "stack_step, stacks",
        # A budget of one element makes every client a K=1 stack; one of
        # two slices' steps (5 x 3x8x8 each) splits the three 10-sample
        # clients into stacks of 2 and 1, and the 7s reuse the 2.
        [(None, None), (1, [1]), (2 * FAST.batch_size * 3 * 8 * 8, [2, 1])],
        ids=["ensemble", "strict", "ensemble-split"],
    )
    def test_stack_matches_independent_loop_runs(
        self, method, stack_step, stacks, monkeypatch
    ):
        built = []
        if stack_step is not None:
            monkeypatch.setattr(fl_compute, "_STACK_STEP_ELEMENTS", stack_step)
            monkeypatch.setattr(
                fl_compute, "ensemble_of",
                lambda model, stack: built.append(stack) or ensemble_of(model, stack),
            )
        # Mixed dataset sizes exercise the order-preserving sub-grouping.
        sizes = (10, 7, 10, 7, 10)
        batched, batched_clients = _run_trainer(STRATEGIES[method], sizes)
        if stacks is not None:
            assert built == stacks
        loop, loop_clients = _run_trainer(STRATEGIES[method], sizes, loop=True)
        _assert_updates_bitwise_equal(batched, loop)
        _assert_scratch_equal(batched_clients, loop_clients)

    def test_result_independent_of_group_order(self):
        sizes = (8, 8, 8, 8)
        forward, _ = _run_trainer(STRATEGIES["fedavg"], sizes)
        loop, _ = _run_trainer(STRATEGIES["fedavg"], sizes, loop=True)
        # Same clients presented in reverse: per-client results must not move.
        clients = _toy_clients(sizes)[::-1]
        model = build_cnn_model(
            (3, 8, 8), 4, np.random.default_rng(42), widths=(4, 6), embed_dim=8
        )
        reversed_updates = EnsembleBackend().run_group(
            STRATEGIES["fedavg"](),
            model,
            model.state_dict(),
            clients,
            round_index=0,
            seeds=[1000 + client.client_id for client in clients],
        )
        by_id = {update.client_id: update for update in reversed_updates}
        _assert_updates_bitwise_equal(
            [by_id[update.client_id] for update in forward], loop
        )

    def test_clone_cache_reuse_is_trace_invisible(self):
        """The trainer memoizes stacked clones across rounds; a warm cache
        must produce the same bytes as a fresh trainer."""
        sizes = (8, 8, 8)
        backend = EnsembleBackend()
        model = build_cnn_model(
            (3, 8, 8), 4, np.random.default_rng(42), widths=(4, 6), embed_dim=8
        )
        strategy = STRATEGIES["fedavg"]()

        def run(warm_backend):
            clients = _toy_clients(sizes)
            return warm_backend.run_group(
                strategy,
                model,
                model.state_dict(),
                clients,
                round_index=0,
                seeds=[1000 + client.client_id for client in clients],
            )

        run(backend)  # populate the clone cache
        assert backend._clones
        warm = run(backend)
        fresh = run(EnsembleBackend())
        _assert_updates_bitwise_equal(warm, fresh)

    def test_clone_cache_keeps_only_the_latest_groups_clones(self):
        """Dropout changes the survivor count from round to round; the
        cache keeps only the clones the latest group trained on (it used to
        keep one per survivor count ever seen), and the trace stays the
        loop fallback's."""

        def run(strategy):
            executor = SerialExecutor(faults="dropout=0.3,seed=3")
            server = FederatedServer(
                strategy=strategy,
                clients=_toy_clients((6,) * 12),
                model=build_mlp_model((3, 8, 8), 4, rng=np.random.default_rng(0)),
                eval_sets={"test": _toy_clients((12,), seed=9)[0].dataset},
                config=FederatedConfig(num_rounds=6, clients_per_round=10, seed=0),
                executor=executor,
            )
            with executor:
                return server.run(), executor._trainer

        batched, trainer = run(STRATEGIES["fedavg"]())
        reference, _ = run(_LoopOnlyFedAvg(FAST))
        survivor_counts = {len(r.survivors) for r in batched.history.records}
        assert len(survivor_counts) > 2
        assert 1 <= len(trainer._clones) <= 2
        assert _trace(batched) == _trace(reference)

    def test_empty_client_routes_through_loop_path(self):
        sizes = (6, 0, 6)
        batched, _ = _run_trainer(STRATEGIES["fedavg"], sizes)
        loop, _ = _run_trainer(STRATEGIES["fedavg"], sizes, loop=True)
        _assert_updates_bitwise_equal(batched, loop)

    def test_scratch_deltas_stay_per_client(self):
        """PARDON's style cache: each slice writes only its own scratch —
        the images it caches are its own client's, re-styled exactly as
        the loop fallback re-styles them."""
        sizes = (9, 9, 9)
        updates, clients = _run_trainer(STRATEGIES["pardon"], sizes)
        _, loop_clients = _run_trainer(STRATEGIES["pardon"], sizes, loop=True)
        for update, client in zip(updates, clients):
            assert update.client_id == client.client_id
            (_, transferred), = client.scratch.values()
            assert transferred.shape == client.dataset.images.shape
        _assert_scratch_equal(clients, loop_clients)


# --------------------------------------------------------------------------
# Fallbacks: anything the ensemble path cannot fuse runs the loop, bitwise
# --------------------------------------------------------------------------


class _CustomLoopOnlyStrategy(Strategy):
    """Overrides local_update without an ensemble counterpart."""

    name = "loop-only"

    def local_update(self, client, model, round_index, rng):
        update = super().local_update(client, model, round_index, rng)
        update.payload["marker"] = np.array([client.client_id])
        return update


class _LoopOnlyFedAvg(FedAvgStrategy):
    """FedAvg forced onto the trainer's loop fallback: the engine-level
    reference every stacked run must match bitwise.  It keeps FedAvg's
    ``name``, which seeds the run, so the two sample the same clients."""

    def supports_ensemble(self):
        return False


class _DecliningStrategy(FedAvgStrategy):
    """Claims ensemble support but declines every group at run time."""

    name = "declining"

    def ensemble_update(self, clients, emodel, round_index, rngs):
        return None


class TestFallbacks:
    def test_strategy_without_ensemble_update_uses_loop(self):
        factory = lambda: _CustomLoopOnlyStrategy(FAST)
        assert not factory().supports_ensemble()
        batched, _ = _run_trainer(factory, (6, 6))
        loop, _ = _run_trainer(factory, (6, 6), loop=True)
        _assert_updates_bitwise_equal(batched, loop)

    def test_declined_group_reruns_through_loop(self):
        factory = lambda: _DecliningStrategy(FAST)
        assert factory().supports_ensemble()
        batched, _ = _run_trainer(factory, (6, 6, 6))
        loop, _ = _run_trainer(factory, (6, 6, 6), loop=True)
        _assert_updates_bitwise_equal(batched, loop)

    def test_base_strategy_supports_ensemble(self):
        assert FedAvgStrategy(FAST).supports_ensemble()
        assert FPLStrategy(local_config=FAST).supports_ensemble()
        assert PardonStrategy(local_config=FAST).supports_ensemble()


def _dropout_model():
    rng = np.random.default_rng(0)
    features = Sequential(
        Flatten(), Linear(12, 8, rng=rng), Dropout(0.5, rng=rng)
    )
    return FeatureClassifierModel(features, Linear(8, 3, rng=rng), embed_dim=8)


class TestRegistry:
    """The two engine keywords that accept one value each (the frozen
    benchmark harness passes them), and the one model type the trainer
    cannot stack."""

    def test_unknown_spec_raises(self):
        for spec in ("loop", "ensemble", "strict", "abacus"):
            with pytest.raises(ValueError, match="ROADMAP item 6"):
                SerialExecutor(compute=spec)
        with pytest.raises(ValueError, match="ROADMAP item 6"):
            RemoteExecutor(pipelined=False)

    def test_auto_resolution(self):
        """``auto`` (and ``pipelined=True``) still build: they resolve to
        the one trainer and the one wave every engine runs."""
        assert isinstance(SerialExecutor(compute="auto")._trainer, EnsembleBackend)
        RemoteExecutor(pipelined=True).close()

    def test_dropout_model_is_unsupported(self):
        model = _dropout_model()
        assert not ensemble_supports(model)
        with pytest.raises(ValueError, match="Dropout"):
            ensemble_of(model, 2)

    def test_dropout_model_falls_back_bitwise(self):
        """The trainer must *run* unsupported models via its loop."""
        clients = _toy_clients((4, 4), image_shape=(1, 2, 6))
        strategy = FedAvgStrategy(FAST)

        def run(train):
            rng = np.random.default_rng(5)
            features = Sequential(Flatten(), Linear(12, 8, rng=rng), Dropout(0.5, rng=rng))
            model = FeatureClassifierModel(
                features, Linear(8, 4, rng=rng), embed_dim=8
            )
            return train(strategy, model, model.state_dict(), clients, 0, [3, 4])

        _assert_updates_bitwise_equal(
            run(EnsembleBackend().run_group), run(fl_compute._run_loop)
        )


class TestStateHelpers:
    def test_stack_then_split_round_trips(self):
        templates = _perturbed_variants(
            lambda rng: build_cnn_model((3, 8, 8), 4, rng, widths=(4, 6), embed_dim=8),
            K,
            seed=1,
        )
        emodel = ensemble_of(templates[0], K)
        states = [template.state_dict() for template in templates]
        load_state_stack(emodel, states)
        for state, recovered in zip(states, ensemble_state_dicts(emodel)):
            assert set(state) == set(recovered)
            for name in state:
                assert np.array_equal(state[name], recovered[name])

    def test_broadcast_loads_same_state_into_every_slice(self):
        model = build_cnn_model(
            (3, 8, 8), 4, np.random.default_rng(2), widths=(4, 6), embed_dim=8
        )
        emodel = ensemble_of(model, K)
        load_state_broadcast(emodel, model.state_dict(), K)
        state = model.state_dict()
        for recovered in ensemble_state_dicts(emodel):
            for name in state:
                assert np.array_equal(state[name], recovered[name])

    def test_split_states_are_snapshots_independent_per_client(self):
        """One copy per stack, row views handed out: a state must not follow
        the live stack, clients must not alias each other, and every tensor
        stays C-contiguous (the out-of-band wire path needs that)."""
        rng = np.random.default_rng(3)
        model = Sequential(
            Conv2d(3, 5, kernel_size=3, padding=1, rng=rng),
            BatchNorm2d(5),
            GlobalAvgPool2d(),
            Linear(5, 3, rng=rng),
        )
        emodel = ensemble_of(model, K)
        states = ensemble_state_dicts(emodel)
        frozen = [{name: value.copy() for name, value in state.items()} for state in states]
        assert list(emodel.named_buffers()), "the test model must have buffers"
        for _, param in emodel.named_parameters():
            param.data += 1.0  # the live stack trains on
        for _, buffer in emodel.named_buffers():
            buffer[...] = 7.0
        for state in states:
            for value in state.values():
                assert value.flags.c_contiguous
        for name in states[0]:
            states[0][name][...] = -3.0  # one client's tensors are written to
        for state, original in zip(states[1:], frozen[1:]):
            for name in original:
                assert np.array_equal(state[name], original[name])


# --------------------------------------------------------------------------
# Cross-engine traces: serial / pipe / shm x loop fallback / stacks / K=1
# --------------------------------------------------------------------------

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)


def _server_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _run_server(executor, rounds=2, strategy=None, model=None):
    server = FederatedServer(
        strategy=strategy or FedAvgStrategy(LocalTrainingConfig(batch_size=8)),
        clients=_server_clients(),
        model=model or build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        ),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(num_rounds=rounds, clients_per_round=4, seed=0),
        executor=executor,
    )
    return server.run()


def _trace(result):
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.eval_accuracy.items())))
            for r in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


def _assert_same_run(run, reference, context):
    assert _trace(run) == _trace(reference), f"{context} trace diverged"
    for key in reference.final_state:
        assert np.array_equal(run.final_state[key], reference.final_state[key])


def _server_dropout_model(p):
    rng = np.random.default_rng(0)
    features = Sequential(
        Flatten(), Linear(int(np.prod(SUITE.image_shape)), 16, rng=rng),
        Dropout(p, rng=rng),
    )
    return FeatureClassifierModel(
        features, Linear(16, SUITE.num_classes, rng=rng), embed_dim=16
    )


class TestCrossEngineTraces:
    """The same run must trace bit-identically on every engine, whether
    the trainer stacks or loops."""

    def test_all_backends_all_engines_match_serial_loop(self, monkeypatch):
        reference = _run_server(
            SerialExecutor(), strategy=_LoopOnlyFedAvg(LocalTrainingConfig(batch_size=8))
        )
        transports = ["pipe"] + (["shm"] if shm_supported() else [])
        # ``strict``: K=1 stacks; fork-started pool workers inherit the patch.
        for label, stack_step in (("ensemble", None), ("strict", 1)):
            if stack_step is not None:
                monkeypatch.setattr(fl_compute, "_STACK_STEP_ELEMENTS", stack_step)
            _assert_same_run(
                _run_server(SerialExecutor()), reference, f"serial/{label}"
            )
            for transport in transports:
                with ParallelExecutor(num_workers=2, transport=transport) as executor:
                    parallel = _run_server(executor)
                _assert_same_run(parallel, reference, f"{transport}/{label}")
        with ParallelExecutor(num_workers=2, transport="pipe") as executor:
            parallel = _run_server(
                executor, strategy=_LoopOnlyFedAvg(LocalTrainingConfig(batch_size=8))
            )
        _assert_same_run(parallel, reference, "pipe/loop")

    def test_dropout_model_on_the_pool(self, monkeypatch):
        """``Dropout`` has no ensemble converter, so a pool worker's one
        task per home runs through the trainer's loop fallback.  With
        ``p=0`` the pool traces equal serial.  With ``p>0`` the layer's own
        mask generator advances per model instance — one per worker, one
        on the server — so the pool is held against itself with one task
        per client (zero-delay stragglers ride alone): grouping moves no
        bit."""
        tasks = []
        submit = ParallelExecutor.submit
        monkeypatch.setattr(
            ParallelExecutor, "submit",
            lambda self, task_id, home, task: tasks.append(task[0])
            or submit(self, task_id, home, task),
        )
        serial = _run_server(SerialExecutor(), model=_server_dropout_model(0.0))
        with ParallelExecutor(num_workers=2, transport="pipe") as executor:
            pool = _run_server(executor, model=_server_dropout_model(0.0))
        _assert_same_run(pool, serial, "pipe/dropout")
        assert max(len(client_ids) for client_ids in tasks) > 1
        singles = FaultPlan(events=tuple(
            FaultEvent("straggler", round_index, client_id)
            for round_index in range(2) for client_id in range(8)
        ))
        runs = []
        for faults in (None, singles):
            tasks.clear()
            with ParallelExecutor(
                num_workers=2, transport="pipe", faults=faults
            ) as executor:
                runs.append(_run_server(executor, model=_server_dropout_model(0.5)))
            grouped = max(len(client_ids) for client_ids in tasks) > 1
            assert grouped == (faults is None)
        _assert_same_run(runs[1], runs[0], "pipe/dropout p=0.5")

    def test_executor_reports_resolved_backend(self):
        """The serial engine trains through one trainer, built with the
        engine and kept across rounds (its stacked clones survive them)."""
        executor = SerialExecutor()
        trainer = executor._trainer
        assert isinstance(trainer, EnsembleBackend)
        _run_server(executor)
        assert executor._trainer is trainer and trainer._clones


# --------------------------------------------------------------------------
# im2col scratch reuse: the perf fix must never alias caller-visible arrays
# --------------------------------------------------------------------------


class TestIm2colScratch:
    def test_results_never_alias_the_reused_pad_buffer(self):
        rng = np.random.default_rng(0)
        x_first = rng.normal(size=(2, 3, 8, 8))
        cols_first, _ = im2col(x_first, kernel=3, stride=1, padding=1)
        snapshot = cols_first.copy()
        # A second same-shape call reuses the padding scratch; it must not
        # rewrite the first call's (cached by Conv2d) column matrix.
        x_second = rng.normal(size=(2, 3, 8, 8))
        cols_second, _ = im2col(x_second, kernel=3, stride=1, padding=1)
        assert not np.shares_memory(cols_first, cols_second)
        assert np.array_equal(cols_first, snapshot)

    def test_padded_path_matches_np_pad_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 5, 5))
        cols, shape = im2col(x, kernel=3, stride=2, padding=2)
        padded = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)))
        ref_cols, ref_shape = im2col(padded, kernel=3, stride=2, padding=0)
        assert shape == ref_shape
        assert np.array_equal(cols, ref_cols)

    def test_scratch_border_survives_dirty_interiors(self):
        """Repeated calls only overwrite the interior; the zero border the
        padding contract depends on must survive arbitrarily many calls."""
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = rng.normal(size=(1, 2, 6, 6))
            cols, _ = im2col(x, kernel=3, stride=1, padding=1)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref_cols, _ = im2col(padded, kernel=3, stride=1, padding=0)
        assert np.array_equal(cols, ref_cols)

    # Shaped like one pacs_* round of the perf benchmark: two conv layers, each
    # seeing the stacked train batch, the train tail, the 256-image eval chunk
    # and an eval tail (NCHW input shapes; kernel 3, stride 2, padding 1).
    ROUND_SHAPES = [
        (batch, channels, side, side)
        for batch in (320, 120, 256, 88)
        for channels, side in ((3, 16), (16, 8))
    ]

    def test_one_rounds_shapes_do_not_evict_each_other(self, monkeypatch):
        monkeypatch.setattr(conv, "_PAD_SCRATCH", {})
        for shape in self.ROUND_SHAPES:
            im2col(np.ones(shape), kernel=3, stride=2, padding=1)
        first_round = dict(conv._PAD_SCRATCH)
        assert len(first_round) == len(self.ROUND_SHAPES)
        # Other shapes arrive between rounds (style encoders, probes) ...
        for side in (5, 7, 9):
            im2col(np.ones((4, 3, side, side)), kernel=3, stride=1, padding=1)
        # ... and the next round still finds every one of its buffers.
        for shape in self.ROUND_SHAPES:
            im2col(np.ones(shape), kernel=3, stride=2, padding=1)
        for key, buffer in first_round.items():
            assert conv._PAD_SCRATCH[key] is buffer

    def test_scratch_is_byte_bounded_with_lru_eviction(self, monkeypatch):
        float64 = np.dtype(np.float64)
        monkeypatch.setattr(conv, "_PAD_SCRATCH", {})
        monkeypatch.setattr(conv, "_PAD_SCRATCH_MAX_BYTES", 3 * 16 * float64.itemsize)
        conv._padded_scratch((4, 4), float64)
        conv._padded_scratch((4, 4, 1), float64)
        conv._padded_scratch((4, 4, 1, 1), float64)
        conv._padded_scratch((4, 4), float64)  # refreshed: now most recent
        conv._padded_scratch((2, 8), float64)  # evicts (4, 4, 1), the oldest
        assert [key[0] for key in conv._PAD_SCRATCH] == [(4, 4, 1, 1), (4, 4), (2, 8)]
        held = sum(buffer.nbytes for buffer in conv._PAD_SCRATCH.values())
        assert held <= conv._PAD_SCRATCH_MAX_BYTES
        # A buffer over the whole budget is handed out but never retained.
        big = conv._padded_scratch((4, 4, 4), float64)
        assert big.shape == (4, 4, 4) and not big.any()
        assert ((4, 4, 4), float64.str) not in conv._PAD_SCRATCH
        assert len(conv._PAD_SCRATCH) == 3

    def test_same_shape_im2col_from_two_threads_is_exact(self):
        """The server's evaluation thread and training share shapes (an eval
        tail chunk is a train tail batch), so a pad buffer visible to both
        would hand one thread the other's input between its interior write
        and its gather."""
        shape = (120, 12, 8, 8)  # conv2's input for a 120-image tail
        inputs = [
            np.random.default_rng(seed).normal(size=shape) for seed in (0, 1)
        ]
        expected = [im2col(x, kernel=3, stride=2, padding=1)[0] for x in inputs]
        wrong: list[tuple[int, int]] = []
        start = threading.Barrier(2)

        def hammer(index):
            start.wait(timeout=30)
            for iteration in range(200):
                cols, _ = im2col(inputs[index], kernel=3, stride=2, padding=1)
                if not np.array_equal(cols, expected[index]):
                    wrong.append((index, iteration))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(index,)) for index in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_other_threads_leave_the_main_threads_pool_alone(self, monkeypatch):
        monkeypatch.setattr(conv, "_PAD_SCRATCH", {})
        x = np.ones((2, 3, 8, 8))
        thread = threading.Thread(target=im2col, args=(x, 3, 1, 1))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert conv._PAD_SCRATCH == {}
        im2col(x, kernel=3, stride=1, padding=1)
        assert len(conv._PAD_SCRATCH) == 1
