"""Tests for the ensemble trainer (`repro.nn.ensemble` + `repro.fl.compute`).

The acceptance bar: slice ``k`` of every ``(K, ...)`` ensemble layer is
*bitwise* the template layer's computation on that slice (forward, backward,
parameter gradients); a K-stack local update is bitwise K
independent scalar updates, so client results never depend on how an engine
groups them, K=1 stacks (``_STACK_STEP_ELEMENTS = 1``) included; and a model
with a module that has no ensemble converter is refused before any dispatch
on every engine.  Every CLI method stacks, CCST's and MixStyle's per-batch
views included.  The reference is the scalar per-client loop in
``tests/reference_loop.py``: ``run_loop`` at the trainer boundary, patched
over ``EnsembleBackend.train_stacks`` at the engine boundary
(:func:`_loop_reference`).
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.baselines import CCSTStrategy, FedAvgStrategy
from repro.cli import METHODS
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
from repro.fl.net.executor import RemoteExecutor
from repro.nn import (
    Conv2d,
    FeatureClassifierModel,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Tanh,
    build_cnn_model,
    build_mlp_model,
    check_stackable,
    ensemble_of,
    ensemble_state_dicts,
    load_state_broadcast,
    load_state_stack,
)
from repro.nn import conv
from repro.nn.conv import im2col
from repro.nn.ensemble import _CONVERTERS, ensemble_cross_entropy
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.utils.rng import SeedTree
from tests import reference_loop
from tests.gradcheck import check_module_gradients
from tests.test_fl_net import thread_agents

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)

K = 3  # default stack size for layer parity checks
FAST = LocalTrainingConfig(batch_size=5, local_epochs=2)


# --------------------------------------------------------------------------
# Layer-level bitwise parity: slice k of the ensemble == template on slice k
# --------------------------------------------------------------------------


def _perturbed_variants(factory, k, seed):
    """K template layers with distinct parameters (biases initialize to
    zeros, so perturb every parameter to make slices distinguishable)."""
    layers = []
    for index in range(k):
        rng = np.random.default_rng(seed + index)
        layer = factory(rng)
        for _, param in layer.named_parameters():
            param.data += 0.1 * rng.normal(size=param.data.shape)
        layers.append(layer)
    return layers


def _assert_slicewise_equal(factory, x_shape, seed=0, k=K):
    """Forward, input gradient and parameter gradients of the ensemble must
    be bitwise the K independent template computations."""
    templates = _perturbed_variants(factory, k, seed)
    emodel = ensemble_of(templates[0], k)
    states = [template.state_dict() for template in templates]
    if states[0]:
        load_state_stack(emodel, states)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(k,) + x_shape)

    out = emodel.forward(x)
    emodel.zero_grad()
    emodel.forward(x)
    grad_out = rng.normal(size=out.shape)
    grad_in = emodel.backward(grad_out)

    ensemble_params = dict(emodel.named_parameters())
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

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)],
        ids=[f"k{k}s{s}p{p}" for k in (1, 3) for s in (1, 2) for p in (0, 1)],
    )
    def test_conv2d_on_the_grid(self, kernel, stride, padding):
        _assert_slicewise_equal(
            lambda rng: Conv2d(
                2, 3, kernel_size=kernel, stride=stride, padding=padding, rng=rng
            ),
            (2, 2, 7, 7),
        )

    def test_conv2d_without_bias(self):
        _assert_slicewise_equal(
            lambda rng: Conv2d(3, 4, kernel_size=3, padding=1, bias=False, rng=rng),
            (2, 3, 5, 5),
        )

    def test_linear(self):
        _assert_slicewise_equal(lambda rng: Linear(7, 4, rng=rng), (6, 7))

    def test_linear_without_bias(self):
        _assert_slicewise_equal(lambda rng: Linear(7, 4, rng=rng, bias=False), (6, 7))

    def test_single_slice_stack(self):
        """K=1 is the stack every engine trains a lone client on."""
        _assert_slicewise_equal(
            lambda rng: Sequential(
                Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng),
                ReLU(),
                Flatten(),
                Linear(3 * 3 * 3, 2, rng=rng),
            ),
            (4, 2, 6, 6),
            k=1,
        )

    @pytest.mark.parametrize("factory", [lambda rng: ReLU()], ids=["relu"])
    def test_elementwise(self, factory):
        _assert_slicewise_equal(factory, (5, 7))

    def test_flatten(self):
        _assert_slicewise_equal(lambda rng: Flatten(), (3, 2, 4, 5))

    def test_channels_last_activations_through_every_spatial_layer(self):
        """Conv outputs are NHWC in memory and ReLU keeps that layout, so the
        second conv and Flatten see strided input; the per-slice computation
        must still be the template's, bit for bit."""
        _assert_slicewise_equal(
            lambda rng: Sequential(
                Conv2d(3, 5, kernel_size=3, stride=1, padding=1, rng=rng),
                ReLU(),
                Conv2d(5, 6, kernel_size=3, stride=2, padding=1, rng=rng),
                ReLU(),
                Flatten(),
                Linear(6 * 8 * 8, 3, rng=rng),
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
    the scalar reference loop); returns (updates, clients)."""
    clients = _toy_clients(sizes, seed=seed)
    model = build_cnn_model(
        (3, 8, 8), 4, np.random.default_rng(42), widths=(4, 6), embed_dim=8
    )
    strategy = strategy_factory()
    run_prepare(strategy, clients, SeedTree(7))
    wire_state = model.state_dict()
    seeds = [1000 + client.client_id for client in clients]
    train = reference_loop.run_loop if loop else EnsembleBackend().run_group
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
        _assert_payload_equal(got_update.payload, want_update.payload)


def _assert_payload_equal(got, want):
    """Bitwise, through nested dicts and tuples (FedAlign's and FedCCRL's
    per-class statistics)."""
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key, value in want.items():
            _assert_payload_equal(got[key], value)
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for got_part, want_part in zip(got, want):
            _assert_payload_equal(got_part, want_part)
    else:
        assert np.array_equal(got, want)


def _assert_scratch_equal(got_clients, want_clients):
    """The caches each backend left resident on its clients, bitwise."""
    for got, want in zip(got_clients, want_clients):
        assert set(got.scratch) == set(want.scratch)
        for key, value in want.scratch.items():
            for got_part, want_part in zip(got.scratch[key], value):
                assert np.array_equal(got_part, want_part), (
                    f"client {want.client_id}: scratch {key} diverged"
                )


#: Every CLI method on the ``FAST`` config, plus CCST's sampling mode.
STRATEGIES = {
    **{
        name: (lambda factory=factory: factory(local_config=FAST))
        for name, factory in METHODS.items()
    },
    "ccst-sample": lambda: CCSTStrategy(
        mode="sample", augment_per_batch=2, local_config=FAST
    ),
}


class TestGroupingInvariance:
    """The tentpole's numerical contract, at the trainer boundary."""

    @pytest.mark.parametrize("method", sorted(STRATEGIES))
    @pytest.mark.parametrize(
        "stack_step, stacks",
        # A budget of one element makes every client a K=1 stack; one of
        # two slices' steps (5 x 3x8x8 each) splits the three 10-sample
        # clients into stacks of 2 and 1 and the 7s into one 2: one clone
        # of 2 trains all three, the 1 on its leading slice.
        [(None, None), (1, [1]), (2 * FAST.batch_size * 3 * 8 * 8, [2])],
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
        assert backend._clone is not None
        warm = run(backend)
        fresh = run(EnsembleBackend())
        _assert_updates_bitwise_equal(warm, fresh)

    def test_clone_is_rebuilt_for_a_model_that_differs_only_in_hyperparameters(
        self,
    ):
        """Conv strides (2, 1) and (1, 2) give the same parameter names and
        shapes but a different forward pass: a trainer that trained the
        first model must train the second as a fresh trainer does, not on
        the first one's clone."""

        def model(strides):
            rng = np.random.default_rng(0)
            return FeatureClassifierModel(
                Sequential(
                    Conv2d(3, 4, kernel_size=3, stride=strides[0], padding=1, rng=rng),
                    ReLU(),
                    Conv2d(4, 6, kernel_size=3, stride=strides[1], padding=1, rng=rng),
                    ReLU(),
                    Flatten(),
                    Linear(6 * 4 * 4, 8, rng=rng),
                ),
                Linear(8, SUITE.num_classes, rng=rng),
                embed_dim=8,
            )

        def run(backend, model):
            clients = _server_clients()[:4]
            return backend.run_group(
                FedAvgStrategy(FAST),
                model,
                model.state_dict(),
                clients,
                round_index=0,
                seeds=[1000 + client.client_id for client in clients],
            )

        first, second = model((2, 1)), model((1, 2))
        assert {k: v.shape for k, v in first.state_dict().items()} == {
            k: v.shape for k, v in second.state_dict().items()
        }
        backend = EnsembleBackend()
        run(backend, first)
        _assert_updates_bitwise_equal(
            run(backend, second), run(EnsembleBackend(), second)
        )

    def test_clone_cache_keeps_only_the_latest_groups_clones(self, monkeypatch):
        """Fault dropout changes the survivor count from round to round;
        the trainer holds exactly one clone (it used to keep one per stack
        size of the latest group), rebuilt only when a round needs a larger
        stack, and the trace stays the scalar reference's."""
        built = []
        monkeypatch.setattr(
            fl_compute, "ensemble_of",
            lambda model, stack: built.append(stack) or ensemble_of(model, stack),
        )

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
        reference, _ = _loop_reference(monkeypatch, lambda: run(FedAvgStrategy(FAST)))
        survivor_counts = {len(r.survivors) for r in batched.history.records}
        assert len(survivor_counts) > 2
        assert built == sorted(set(built)) and len(built) < len(survivor_counts)
        assert trainer._clone[1] == max(survivor_counts)
        assert _trace(batched) == _trace(reference)

    def test_one_clone_serves_uneven_stacks(self, monkeypatch):
        """128 six-sample 3x8x8 clients split 43/43/42: one clone of 43
        trains all three stacks, the 42 on its leading slices."""
        built = []
        monkeypatch.setattr(
            fl_compute, "ensemble_of",
            lambda model, stack: built.append(stack) or ensemble_of(model, stack),
        )
        trainer = EnsembleBackend()
        model = build_mlp_model((3, 8, 8), 4, rng=np.random.default_rng(0))
        clients = _toy_clients((6,) * 128)
        stacks = [
            len(positions)
            for positions, _ in trainer.train_stacks(
                FedAvgStrategy(LocalTrainingConfig(batch_size=8)), model,
                model.state_dict(), clients, 0, list(range(128)),
            )
        ]
        assert stacks == [43, 43, 42]
        assert built == [43]
        assert trainer._clone[1] == 43

    def test_leading_slices_train_like_a_fresh_stack(self):
        """A clone built (and trained) at K, then used at k < K, trains on
        views of its own storage and gives bitwise a fresh k-stack's
        updates."""
        rng = np.random.default_rng(4)
        model = FeatureClassifierModel(
            Sequential(
                Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng),
                ReLU(),
                Flatten(),
                Linear(4 * 4 * 4, 8, rng=rng),
            ),
            Linear(8, 4, rng=rng),
            embed_dim=8,
        )
        strategy = STRATEGIES["fedavg"]()
        wire = model.state_dict()

        def train(emodel, stack, seed):
            load_state_broadcast(emodel, wire, stack)
            clients = _toy_clients((6,) * stack, seed=seed)
            rngs = [np.random.default_rng(100 + k) for k in range(stack)]
            return strategy.train_group(clients, emodel, 0, rngs)

        clone = ensemble_of(model, 4)
        train(clone, 4, seed=1)
        storage = [param.data for param in clone.parameters()]
        got = train(clone, 2, seed=2)
        for param, full in zip(clone.parameters(), storage):
            assert param.data.shape[0] == 2
            assert np.shares_memory(param.data, full)
            assert param.data.flags.c_contiguous
        _assert_updates_bitwise_equal(got, train(ensemble_of(model, 2), 2, seed=2))

    def test_scratch_deltas_stay_per_client(self):
        """PARDON's style cache: each slice writes only its own scratch —
        the images it caches are its own client's, re-styled exactly as
        the reference loop re-styles them."""
        sizes = (9, 9, 9)
        updates, clients = _run_trainer(STRATEGIES["pardon"], sizes)
        _, loop_clients = _run_trainer(STRATEGIES["pardon"], sizes, loop=True)
        for update, client in zip(updates, clients):
            assert update.client_id == client.client_id
            (_, transferred), = client.scratch.values()
            assert transferred.shape == client.dataset.images.shape
        _assert_scratch_equal(clients, loop_clients)


# --------------------------------------------------------------------------
# The engine-level reference
# --------------------------------------------------------------------------


def _loop_reference(monkeypatch, run):
    """``run()`` with every trainer on the scalar reference loop: the
    engine-level reference every stacked run must match bitwise.  Pool
    workers forked inside ``run`` inherit the patch."""
    with monkeypatch.context() as patch:
        patch.setattr(EnsembleBackend, "train_stacks", reference_loop.train_stacks)
        return run()


class TestRegistry:
    """The converter table, and the two engine keywords that accept one
    value each (the frozen benchmark harness passes them)."""

    def test_converters_are_exactly_the_layers_the_builders_build(self):
        """A layer type arrives with a model builder that uses it: the table
        holds no converter that no buildable model needs."""
        rng = np.random.default_rng(0)
        built = {
            type(module)
            for builder in (build_cnn_model, build_mlp_model)
            for module in builder((3, 8, 8), 4, rng).modules()
        }
        assert set(_CONVERTERS) == built

    @pytest.mark.parametrize("builder", [build_cnn_model, build_mlp_model],
                             ids=["cnn", "mlp"])
    def test_every_builder_is_stackable(self, builder):
        check_stackable(builder((3, 8, 8), 4, np.random.default_rng(0)))

    @pytest.mark.parametrize("name", ["Tanh", "_Halve"], ids=["tanh", "custom"])
    def test_unconverted_layers_are_named(self, name):
        """Tanh stays a layer (the inversion decoder uses it) but no
        builder stacks it, so a model that holds it is refused by name,
        before any conversion starts."""
        layer = {"Tanh": Tanh, "_Halve": _Halve}[name]()
        model = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), layer)
        for refuse in (check_stackable, lambda m: ensemble_of(m, K)):
            with pytest.raises(ValueError, match=rf"converters: \['{name}'\]"):
                refuse(model)

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
            ReLU(),
            Flatten(),
            Linear(5 * 4 * 4, 3, rng=rng),
        )
        emodel = ensemble_of(model, K)
        states = ensemble_state_dicts(emodel)
        frozen = [{name: value.copy() for name, value in state.items()} for state in states]
        for _, param in emodel.named_parameters():
            param.data += 1.0  # the live stack trains on
        for state in states:
            for value in state.values():
                assert value.flags.c_contiguous
        for name in states[0]:
            states[0][name][...] = -3.0  # one client's tensors are written to
        for state, original in zip(states[1:], frozen[1:]):
            for name in original:
                assert np.array_equal(state[name], original[name])


# --------------------------------------------------------------------------
# Cross-engine traces: serial / pipe / shm x reference loop / stacks / K=1
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


class TestCrossEngineTraces:
    """The same run must trace bit-identically on every engine, and as
    the scalar reference loop traces it."""

    def test_all_backends_all_engines_match_serial_loop(self, monkeypatch):
        reference = _loop_reference(
            monkeypatch, lambda: _run_server(SerialExecutor())
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

        def pool_loop():
            with ParallelExecutor(num_workers=2, transport="pipe") as executor:
                return _run_server(executor)

        _assert_same_run(
            _loop_reference(monkeypatch, pool_loop), reference, "pipe/loop"
        )

    #: The quorum run below, traced before the serial engine answered its
    #: round stack by stack: the change must not move a bit.
    QUORUM_DIGEST = "4118d5dd67697b96"

    def test_serial_quorum_closes_mid_stack(self, monkeypatch):
        """Twelve participants train in stacks of three and the quorum of
        eight closes inside the third: every poll answers one stack, the
        fourth stack never reaches ``train_group``, and the engine
        pins no frame once the round is over."""
        monkeypatch.setattr(
            fl_compute, "_STACK_STEP_ELEMENTS", 3 * FAST.batch_size * 3 * 8 * 8
        )
        trained = []

        class Recording(FedAvgStrategy):
            def train_group(self, clients, emodel, round_index, rngs):
                trained.append([client.client_id for client in clients])
                return super().train_group(clients, emodel, round_index, rngs)

        executor = SerialExecutor(quorum=8)
        answered = []
        poll = executor.poll
        monkeypatch.setattr(
            executor, "poll",
            lambda timeout: answered.append(len(events := poll(timeout))) or events,
        )
        server = FederatedServer(
            strategy=Recording(FAST),
            clients=_toy_clients((6,) * 16),
            model=build_cnn_model(
                (3, 8, 8), 4, np.random.default_rng(0), widths=(4, 6), embed_dim=8
            ),
            eval_sets={"test": _toy_clients((12,), seed=9)[0].dataset},
            config=FederatedConfig(num_rounds=2, clients_per_round=12, seed=0),
            executor=executor,
        )
        with executor:
            result = server.run()
        assert executor._frame is None and executor._stacks is None
        assert answered == [3, 3, 3] * 2
        for record in result.history.records:
            participants = record.participants
            assert record.accepted == participants[:8]
            assert record.dropped == dict.fromkeys(participants[8:], "quorum")
        assert trained == [
            record.participants[start : start + 3]
            for record in result.history.records
            for start in (0, 3, 6)
        ]
        trace = repr((_trace(result), [
            (r.accepted, sorted(r.dropped.items())) for r in result.history.records
        ])).encode()
        for key in sorted(result.final_state):
            trace += result.final_state[key].tobytes()
        assert hashlib.sha256(trace).hexdigest()[:16] == self.QUORUM_DIGEST

    def test_serial_arrival_is_sampling_order_with_mixed_sizes(self, monkeypatch):
        """Interleaved dataset sizes split into stacks of two per size: the
        stacks train in order of their first row, so every poll answers the
        lowest untrained one and a quorum keeps the first six participants,
        exactly as the scalar reference loop does."""
        monkeypatch.setattr(
            fl_compute, "_STACK_STEP_ELEMENTS", 2 * FAST.batch_size * 3 * 8 * 8
        )

        def run(strategy):
            executor = SerialExecutor(quorum=6)
            server = FederatedServer(
                strategy=strategy,
                clients=_toy_clients((6, 7) * 6),
                model=build_mlp_model((3, 8, 8), 4, rng=np.random.default_rng(0)),
                eval_sets={"test": _toy_clients((12,), seed=9)[0].dataset},
                config=FederatedConfig(num_rounds=2, clients_per_round=10, seed=0),
                executor=executor,
            )
            with executor:
                return server.run()

        batched = run(FedAvgStrategy(FAST))
        for record in batched.history.records:
            assert record.accepted == record.participants[:6]
        reference = _loop_reference(monkeypatch, lambda: run(FedAvgStrategy(FAST)))
        _assert_same_run(batched, reference, "serial/mixed sizes")

    def test_executor_reports_resolved_backend(self):
        """The serial engine trains through one trainer, built with the
        engine and kept across rounds (its stacked clones survive them)."""
        executor = SerialExecutor()
        trainer = executor._trainer
        assert isinstance(trainer, EnsembleBackend)
        _run_server(executor)
        assert executor._trainer is trainer and trainer._clone is not None


# --------------------------------------------------------------------------
# Models no engine can train
# --------------------------------------------------------------------------


class _Halve(Module):
    """A layer with no ensemble converter."""

    def forward(self, x):
        return 0.5 * x

    def backward(self, grad_output):
        return 0.5 * grad_output


class TestUnstackableModel:
    """A model with a module that has no ensemble converter cannot train,
    and ``Executor.run_round`` says so before it opens a lane."""

    @pytest.mark.parametrize("engine", ["serial", "pool", "agents"])
    def test_refused_before_any_dispatch(self, engine, monkeypatch):
        rng = np.random.default_rng(0)
        model = FeatureClassifierModel(
            Sequential(
                Flatten(),
                Linear(int(np.prod(SUITE.image_shape)), 16, rng=rng),
                _Halve(),
            ),
            Linear(16, SUITE.num_classes, rng=rng),
            embed_dim=16,
        )
        executor = {
            "serial": SerialExecutor,
            "pool": lambda: ParallelExecutor(num_workers=2),
            "agents": lambda: RemoteExecutor(num_agents=2),
        }[engine]()
        opened = []
        open_lanes = type(executor).open
        monkeypatch.setattr(
            type(executor), "open",
            lambda self, model: opened.append(model) or open_lanes(self, model),
        )
        refusal = pytest.raises(ValueError, match=r"converters: \['_Halve'\]")
        if engine == "agents":
            with thread_agents(executor):
                # A stackable run first, so both agents are connected (and
                # leave on a clean shutdown) when the refusal comes.
                _run_server(executor, rounds=1)
                opened.clear()
                with refusal:
                    _run_server(executor, model=model)
        else:
            with executor, refusal:
                _run_server(executor, model=model)
        assert opened == []


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

    def test_one_padded_shape_from_two_paddings_is_exact(self):
        """A 7x7 input at padding 1 and a 5x5 input at padding 2 both pad
        to 9x9; the second must not see the first's data in its border."""
        rng = np.random.default_rng(4)
        im2col(rng.normal(size=(2, 2, 7, 7)), kernel=3, stride=1, padding=1)
        x = rng.normal(size=(2, 2, 5, 5))
        cols, _ = im2col(x, kernel=3, stride=2, padding=2)
        padded = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)))
        ref_cols, _ = im2col(padded, kernel=3, stride=2, padding=0)
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
        conv._padded_scratch((4, 4), 1, float64)
        conv._padded_scratch((4, 4, 1), 1, float64)
        conv._padded_scratch((4, 4, 1, 1), 1, float64)
        conv._padded_scratch((4, 4), 1, float64)  # refreshed: now most recent
        conv._padded_scratch((2, 8), 1, float64)  # evicts (4, 4, 1), the oldest
        assert [key[0] for key in conv._PAD_SCRATCH] == [(4, 4, 1, 1), (4, 4), (2, 8)]
        held = sum(buffer.nbytes for buffer in conv._PAD_SCRATCH.values())
        assert held <= conv._PAD_SCRATCH_MAX_BYTES
        # A buffer over the whole budget is handed out but never retained.
        big = conv._padded_scratch((4, 4, 4), 1, float64)
        assert big.shape == (4, 4, 4) and not big.any()
        assert ((4, 4, 4), 1, float64.str) not in conv._PAD_SCRATCH
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
