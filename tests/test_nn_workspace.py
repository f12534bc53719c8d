"""One workspace per model: what a warm step and an evaluation chunk allocate.

The trainer's stacked clone and the evaluation stage's private copy each
hold one :class:`repro.nn.module.Workspace`, and their layers write every
per-step array into it.  These tests hold that to numbers: ``tracemalloc``
around a warm training step (PARDON at PACS shapes, FedAvg at the
cross-device shapes) bounds what the step allocates by a small multiple of
its input; the workspace lives as long as its model and is reused round
after round; copies carry none of it; the arrays a model hands its caller
stay the caller's; and a serial round reads no client's images whole.
"""

import copy
import hashlib
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy, FedDGGAStrategy, FPLStrategy
from repro.core.pardon import PardonStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.data.partition import SuiteRows
from repro.fl import (
    Client,
    EnsembleBackend,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    SerialExecutor,
)
from repro.fl.evaluation import _STAGE_CHUNK, EvaluationStage
from repro.nn import build_cnn_model, ensemble_of
from repro.nn.objective import CompositeObjective, _step_input, _train_step
from repro.nn.serialize import encode_payload

PACS_SHAPE, PACS_WIDTHS = (3, 16, 16), (16, 32)
XDEV_SHAPE, XDEV_ROWS, XDEV_STACK = (3, 8, 8), 6, 43
NUM_CLASSES = 7

#: What a warm step may allocate, as a multiple of its gathered input: the
#: objective's own temporaries (PARDON's pairwise triplet terms are about
#: 1.7x the input at 32 rows a view) and the caller's embeddings, logits
#: and gradient buffers.  Every layer array lives in the workspace.
STEP_BOUND = 2.5


def _nbytes(workspace):
    return sum(buffer.nbytes for buffer in workspace._buffers.values())


def _traced_peak(call):
    """``(result, peak bytes)`` of ``call()`` above what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _warm_step(model, objective, stack, rows, shape, two_views, seed=0):
    """The trainer's step on a workspace clone of ``model``: a closure
    gathering ``rows`` rows per slice (and their twins) and training once;
    it returns the step input's bytes."""
    rng = np.random.default_rng(seed)
    emodel = ensemble_of(model, stack)
    emodel.attach_workspace()
    emodel.train()
    images = [rng.normal(size=(rows,) + shape) for _ in range(stack)]
    secondary = (
        [rng.normal(size=(rows,) + shape) for _ in range(stack)] if two_views else None
    )
    labels = [rng.integers(0, NUM_CLASSES, size=rows) for _ in range(stack)]
    optimizer = LocalTrainingConfig().make_optimizer(emodel)
    indices = [rng.permutation(rows) for _ in range(stack)]

    def step():
        combined = _step_input(emodel, images, indices, secondary, None, [rng] * stack)
        step_labels = np.stack([part[index] for part, index in zip(labels, indices)])
        _train_step(emodel, optimizer, objective, combined, step_labels, rows, None)
        return combined.nbytes

    return emodel, step


class TestWarmStepAllocations:
    """The allocation gate: after three warm-up steps, one more step's
    ``tracemalloc`` peak stays within ``STEP_BOUND`` times its input."""

    @pytest.mark.parametrize("stack", [2, 5])
    def test_pardon_step_at_pacs_shapes(self, stack):
        model = build_cnn_model(
            PACS_SHAPE, NUM_CLASSES, np.random.default_rng(1), widths=PACS_WIDTHS
        )
        objective = PardonStrategy().objective
        _, step = _warm_step(
            model, objective, stack, rows=32, shape=PACS_SHAPE, two_views=True
        )
        for _ in range(3):
            step()
        input_bytes, peak = _traced_peak(step)
        assert input_bytes == stack * 2 * 32 * np.prod(PACS_SHAPE) * 8
        assert peak <= STEP_BOUND * input_bytes, (
            f"K={stack}: a warm PARDON step allocated {peak} B "
            f"against {input_bytes} B of input"
        )

    def test_fedavg_step_at_cross_device_shapes(self):
        model = build_cnn_model(XDEV_SHAPE, NUM_CLASSES, np.random.default_rng(2))
        objective = CompositeObjective([("ce", 1.0)])
        _, step = _warm_step(
            model, objective, XDEV_STACK, XDEV_ROWS, XDEV_SHAPE, two_views=False
        )
        for _ in range(3):
            step()
        input_bytes, peak = _traced_peak(step)
        assert peak <= STEP_BOUND * input_bytes, (
            f"a warm FedAvg step allocated {peak} B against {input_bytes} B of input"
        )


def _suite_clients(count=4, seed=0):
    suite = synthetic_pacs(seed=seed, samples_per_class=12)
    partition = partition_clients(
        suite, [0, 1], count, 0.5, np.random.default_rng(seed)
    )
    clients = [Client(i, d.hold()) for i, d in enumerate(partition.client_datasets)]
    return suite, clients


def _suite_model(suite, seed=0):
    return build_cnn_model(
        suite.image_shape, suite.num_classes, np.random.default_rng(seed)
    )


def _train_round(backend, model, clients, seed=0, method=FedAvgStrategy):
    strategy = method(local_config=LocalTrainingConfig(batch_size=16))
    seeds = [seed + client.client_id for client in clients]
    return backend.run_group(strategy, model, model.state_dict(), clients, 0, seeds)


class TestTheTrainersWorkspace:
    def test_one_workspace_across_rounds_dropped_with_its_architecture(self):
        suite, clients = _suite_clients()
        model = _suite_model(suite)
        backend = EnsembleBackend()
        _train_round(backend, model, clients)
        workspace = backend._clone[2].workspace
        buffers = dict(workspace._buffers)
        assert _nbytes(workspace) > 0
        for _ in range(2):
            _train_round(backend, model, clients[:3])
            assert backend._clone[2].workspace is workspace
            assert workspace._buffers == buffers  # the same arrays, none added
        gone = weakref.ref(workspace)
        del workspace, buffers
        other = build_cnn_model(
            suite.image_shape, suite.num_classes, np.random.default_rng(0),
            widths=(4, 8),
        )
        _train_round(backend, other, clients)
        assert gone() is None  # freed with the clone, no cycle to collect

    @pytest.mark.parametrize("method", [FPLStrategy, FedDGGAStrategy])
    def test_a_whole_dataset_sweep_adds_one_chunk_forward(self, method):
        # FPL's class statistics and FedDG-GA's gap sweep each client's 42
        # rows in one eval-mode chunk on the clone, beside 16-row steps: its
        # workspace is at most what those steps and one forward over 42
        # rows leave, and a second round adds no buffer.
        suite, clients = _suite_clients()
        model = _suite_model(suite)
        rows = 42
        clients = [client for client in clients if len(client.dataset) == rows]
        assert len(clients) == 2  # one stack
        backend = EnsembleBackend()
        _train_round(backend, model, clients, method=method)
        workspace = backend._clone[2].workspace
        buffers = dict(workspace._buffers)
        _train_round(backend, model, clients, method=method)
        assert backend._clone[2].workspace is workspace
        assert workspace._buffers == buffers

        reference = EnsembleBackend()
        _train_round(reference, model, clients)
        steps_only = _nbytes(reference._clone[2].workspace)
        emodel = reference._clone[2].eval()
        emodel.forward(np.zeros((len(clients), rows) + suite.image_shape))
        assert steps_only < _nbytes(workspace) <= _nbytes(emodel.workspace)

    def test_copies_and_pickles_carry_no_workspace(self):
        suite, clients = _suite_clients()
        model = _suite_model(suite)
        backend = EnsembleBackend()
        _train_round(backend, model, clients)
        trained = backend._clone[2]
        untrained = ensemble_of(model, len(clients))
        param_bytes = sum(p.data.nbytes for p in trained.parameters())
        assert _nbytes(trained.workspace) > param_bytes

        copied, peak = _traced_peak(lambda: copy.deepcopy(trained))
        # The weights, and gradients starting at zero, as a fresh copy has.
        assert peak <= 2 * param_bytes + (64 << 10)
        blob = encode_payload(trained)
        # At most a None per step attribute more than a model never run.
        modules = len(list(trained.modules()))
        assert len(blob) <= len(encode_payload(untrained)) + 32 * modules
        for clone in (copied, pickle.loads(blob)):
            for module in clone.modules():
                assert "_workspace" not in vars(module)
                for attr, value in vars(module).items():
                    if attr.startswith("_"):
                        assert value is None, f"{type(module).__name__}.{attr}"

    def test_the_caller_owns_what_the_model_returns(self):
        suite, clients = _suite_clients()
        model = _suite_model(suite)
        backend = EnsembleBackend()
        _train_round(backend, model, clients)
        emodel = backend._clone[2]
        stack = emodel.classifier.ensemble_size
        rng = np.random.default_rng(3)
        first_x, second_x = (
            rng.normal(size=(stack, 5) + suite.image_shape) for _ in range(2)
        )
        returned = {
            "logits": emodel.forward(first_x),
            "embeddings": emodel.forward_features(first_x),
        }
        grad_logits = rng.normal(size=returned["logits"].shape)
        emodel.forward(first_x)
        returned["input gradient"] = emodel.backward(grad_logits=grad_logits)
        snapshots = {name: array.copy() for name, array in returned.items()}
        emodel.forward(second_x)
        emodel.backward(grad_logits=grad_logits)
        for name, array in returned.items():
            assert not emodel.workspace.holds(array), name
            assert np.array_equal(array, snapshots[name]), f"{name} was overwritten"


class TestTheEvaluationWorkspace:
    def test_predict_logits_keeps_every_cache_in_the_workspace(self):
        suite = synthetic_pacs(seed=0)
        images = suite.datasets[2].images[:300]
        model = _suite_model(suite, seed=5)
        with EvaluationStage(model, {"val": suite.datasets[2]}) as stage:
            stage.submit(model.state_dict()).result()
            evaluated = stage._model
        workspace = evaluated.workspace
        first = evaluated.predict_logits(images, batch_size=_STAGE_CHUNK)
        buffers = dict(workspace._buffers)
        for module in evaluated.modules():
            for attr, value in vars(module).items():
                if attr.startswith("_") and isinstance(value, np.ndarray):
                    assert workspace.holds(value), f"{type(module).__name__}.{attr}"
        second, peak = _traced_peak(
            lambda: evaluated.predict_logits(images, batch_size=_STAGE_CHUNK)
        )
        assert workspace._buffers == buffers
        # The result is the only array the second call allocates, beside
        # the fixed buffer a broadcasting ufunc (the bias add) takes.
        assert peak <= second.nbytes + np.getbufsize() * second.itemsize + (16 << 10)
        assert np.array_equal(first, second)


def _pardon_run(clients, suite, rounds=3):
    executor = SerialExecutor()
    server = FederatedServer(
        strategy=PardonStrategy(local_config=LocalTrainingConfig(batch_size=16)),
        clients=clients,
        model=_suite_model(suite),
        eval_sets={"test": suite.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=len(clients), seed=0
        ),
        executor=executor,
    )
    with executor:
        return server.run()


class TestSerialRoundsReadRowsNotImages:
    """On the serial engine a client's images are gathered from its held
    domains a batch at a time: once PARDON's style-transferred view is
    cached (the client's first round), a round reads no ``images`` whole."""

    #: Computed before the trainer gathered rows from the domains.
    PINNED = "e753e07aeef18ac4948b0d7a0e915daec44a209917b20acb26f84c7a35fa0737"

    def test_a_warm_pardon_round_reads_no_images_whole(self, monkeypatch):
        suite, clients = _suite_clients()
        assert any(len(client.dataset.parts) > 1 for client in clients)
        reads = []
        images = SuiteRows.images

        def counted(self):
            reads.append(self)
            return images.fget(self)

        per_round = []
        run_round = SerialExecutor.run_round

        def counting_round(self, *args, **kwargs):
            before = len(reads)
            try:
                return run_round(self, *args, **kwargs)
            finally:
                per_round.append(len(reads) - before)

        monkeypatch.setattr(SuiteRows, "images", property(counted))
        monkeypatch.setattr(SerialExecutor, "run_round", counting_round)
        result = _pardon_run(clients, suite)
        # Round 0 renders each client's style-transferred view once.
        assert per_round == [len(clients), 0, 0]
        digest = hashlib.sha256()
        for key in sorted(result.final_state):
            digest.update(np.ascontiguousarray(result.final_state[key]).tobytes())
        for record in result.history.records:
            digest.update(np.float64(record.mean_local_loss).tobytes())
        assert digest.hexdigest() == self.PINNED
