"""Clients are born on their lane: a client partitioned from a generated
suite registers as a recipe, and the server never holds its images.

Pinned here: what the server process renders (nothing of a training
domain on the wire engines, except inside PARDON's style exchange), that a
lane's render of a client equals the server's bit for bit for every
registry builder, that a lane rendering other bytes is dropped, and that
the model template crosses without gradients.
"""

import threading
import weakref

import numpy as np
import pytest

import repro.fl.server
import repro.fl.wire
from repro.baselines import FedAvgStrategy
from repro.core import PardonStrategy
from repro.data import (
    partition_clients,
    synthetic_domain_sweep,
    synthetic_iwildcam,
    synthetic_office_home,
    synthetic_pacs,
    synthetic_skew,
)
from repro.data.partition import SuiteRows
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
)
from repro.fl.net import RemoteExecutor
from repro.fl.net.agent import run_agent
from repro.fl.net.protocol import REGISTER, decode_message, encode_message
from repro.fl.wire import Registration
from repro.nn import build_mlp_model
from repro.nn.module import Parameter
from repro.nn.serialize import decode_payload, encode_payload

FAST = LocalTrainingConfig(batch_size=8)
TRAIN, VAL, TEST = [0, 1], 2, 3


def _suite():
    return synthetic_pacs(seed=3, samples_per_class=6, image_size=8)


def _clients(suite, n_clients=6, heterogeneity=0.5):
    partition = partition_clients(
        suite, TRAIN, n_clients, heterogeneity, np.random.default_rng(0)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _server(suite, clients, strategy, executor, rounds=2):
    return FederatedServer(
        strategy=strategy,
        clients=clients,
        model=build_mlp_model(
            suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
        ),
        eval_sets={"val": suite.merged([VAL]), "test": suite.merged([TEST])},
        config=FederatedConfig(num_rounds=rounds, clients_per_round=4, seed=0),
        executor=executor,
    )


def _fields(dataset):
    return [
        (array.dtype.str, array.shape, array.tobytes())
        for array in (dataset.images, dataset.labels, dataset.domain_ids)
    ]


class TestTheServerHoldsNoClientImages:
    def test_partitioning_renders_nothing(self):
        suite = _suite()
        clients = _clients(suite)
        assert sum(c.num_samples for c in clients) == 2 * 6 * 7
        assert not suite.datasets.renders

    def test_fedavg_on_the_pool_renders_no_training_domain(self):
        suite = _suite()
        with ParallelExecutor(num_workers=2) as executor:
            result = _server(
                suite, _clients(suite), FedAvgStrategy(FAST), executor
            ).run()
            registered = executor.wire_stats().registration_bytes
            templates = 2 * len(executor._model_blob)
        assert len(result.history.records) == 2
        assert dict(suite.datasets.renders) == {VAL: 1, TEST: 1}
        # Recipes, not images: what registered the clients (all but the
        # two agents' templates) is a sliver of the images they hold.
        images = 2 * 6 * 7 * 3 * 8 * 8 * 8
        assert 0 < registered - templates < images / 50

    def test_pardon_renders_each_training_domain_once_inside_prepare(
        self, monkeypatch
    ):
        suite = _suite()
        seen = {}
        real_prepare = repro.fl.server.run_prepare

        def watched(strategy, population, seed_tree):
            before = dict(suite.datasets.renders)
            rendered = []
            real_render = suite.datasets._render

            def render(index):
                images = real_render(index)
                rendered.append(images)
                return images

            monkeypatch.setattr(suite.datasets, "_render", render)
            real_prepare(strategy, population, seed_tree)
            seen["during"] = {
                d: suite.datasets.renders[d] - before.get(d, 0) for d in TRAIN
            }
            seen["refs"] = [weakref.ref(images) for images in rendered]
            rendered.clear()

        monkeypatch.setattr(repro.fl.server, "run_prepare", watched)
        with ParallelExecutor(num_workers=2) as executor:
            _server(suite, _clients(suite), PardonStrategy(), executor).run()
        assert seen["during"] == {0: 1, 1: 1}
        assert len(seen["refs"]) == 2 and all(ref() is None for ref in seen["refs"])
        # ... and never again in this process.
        assert dict(suite.datasets.renders) == {0: 1, 1: 1, VAL: 1, TEST: 1}

    @pytest.mark.parametrize(
        "strategy, train_renders",
        [(lambda: FedAvgStrategy(FAST), 1), (PardonStrategy, 2)],
        ids=["fedavg", "pardon"],
    )
    def test_serial_engine_holds_domains_not_client_copies(
        self, strategy, train_renders
    ):
        """In-process, the clients hold their domains once they train
        (PARDON's exchange renders and releases them first); no client
        keeps its gathered images between reads."""
        suite = _suite()
        clients = _clients(suite)
        _server(suite, clients, strategy(), SerialExecutor()).run()
        assert dict(suite.datasets.renders) == {
            0: train_renders, 1: train_renders, VAL: 1, TEST: 1
        }
        for client in clients:
            assert client.dataset._images() is None


@pytest.mark.parametrize(
    "build, train",
    [
        (lambda: synthetic_pacs(1, samples_per_class=5, image_size=8), [0, 2]),
        (lambda: synthetic_office_home(2, samples_per_class=2, image_size=8), [1, 3]),
        (lambda: synthetic_iwildcam(3, 4, 1, 1, num_classes=9,
                                    mean_samples_per_domain=12, image_size=8),
         [0, 1, 2, 3]),
        (lambda: synthetic_domain_sweep(4, num_domains=3, samples_per_class=4,
                                        image_size=8), [0, 1, 2]),
        (lambda: synthetic_skew(5, num_classes=5, samples_per_class=6,
                                image_size=8), [0, 3]),
    ],
    ids=["pacs", "office_home", "iwildcam", "sweep", "skew"],
)
def test_lane_rendered_rows_equal_the_servers(build, train):
    """What a lane renders from a registration's recipes is the server's
    client data bit for bit, for every registry builder — across a
    message round trip and in a suite the lane builds from the spec."""
    suite = build()
    partition = partition_clients(suite, train, 5, 0.5, np.random.default_rng(7))
    clients = [Client(i, d) for i, d in enumerate(partition.client_datasets)]
    assert any(len(client.dataset.parts) >= 2 for client in clients)
    registration = Registration.of(clients, ())
    assert registration.buffers == []
    message = decode_message(encode_message(REGISTER, registration.meta))
    suites = {}
    shipped = Registration(message.meta, message.buffers).clients(suites)
    (lane_suite,) = suites.values()
    assert lane_suite is not suite
    for mine, theirs in zip(clients, shipped):
        assert theirs.client_id == mine.client_id
        assert isinstance(theirs.dataset, SuiteRows)
        assert _fields(theirs.dataset) == _fields(mine.dataset)
    for domain in train:
        assert lane_suite.datasets.digests[domain] == suite.datasets.digests[domain]


class TestDigestGuard:
    def test_first_lane_digest_is_the_reference(self):
        suite = _suite()
        clients = _clients(suite)
        registration = Registration.of(clients, ())
        lane = repro.fl.wire.WorkerRuntime(
            encode_payload(build_mlp_model((3, 8, 8), 7, rng=np.random.default_rng(0))),
            "identity", "pipe",
        )
        lane.register(registration)
        digests = lane.digests()
        server = repro.fl.wire.WireServer()
        assert server._check_digests(registration, digests)
        forged = [[spec, domain, "0" * 64] for spec, domain, _ in digests]
        assert not server._check_digests(registration, forged)
        assert server._check_digests(registration, digests)
        assert not server._check_digests(registration, [["bad"]])

    def test_lane_rendering_other_bytes_is_dropped(self, monkeypatch):
        """One of two agents renders one value of every domain differently:
        its clients drop with reason ``mismatch``, it is not used again,
        and the run completes on the other agent."""
        real_from_spec = repro.fl.wire.suite_from_spec

        def skewed_on_bad_agent(spec):
            built = real_from_spec(spec)
            if threading.current_thread().name == "bad-agent":
                render = built.datasets._render

                def skewed(index):
                    images = render(index)
                    images[0, 0, 0, 0] += 1e-9
                    return images

                built.datasets._render = skewed
            return built

        monkeypatch.setattr(repro.fl.wire, "suite_from_spec", skewed_on_bad_agent)
        suite = _suite()
        clients = _clients(suite)
        # The server renders the training domains itself, so its own
        # digests are the reference whichever agent answers first.
        held = [client.dataset.pin() for client in clients]
        remote = RemoteExecutor(num_agents=2)
        agents = [
            threading.Thread(
                target=run_agent, args=(remote.address,),
                kwargs={"name": name}, name=name, daemon=True,
            )
            for name in ("good-agent", "bad-agent")
        ]
        for agent in agents:
            agent.start()
        try:
            result = _server(
                suite, clients, FedAvgStrategy(FAST), remote, rounds=3
            ).run()
        finally:
            remote.close()
            for agent in agents:
                agent.join(timeout=10)
        reasons = [set(r.dropped.values()) for r in result.history.records]
        assert reasons[0] == {"mismatch"}
        assert reasons[1:] == [set(), set()]
        del held  # the server's own renders stayed the reference to the end


class TestModelTemplate:
    def test_template_ships_no_gradients(self, monkeypatch):
        model = build_mlp_model((3, 8, 8), 7, rng=np.random.default_rng(0))
        blob = encode_payload(model)
        monkeypatch.setattr(Parameter, "__getstate__", lambda self: self.__dict__)
        monkeypatch.delattr(Parameter, "__setstate__")
        with_grads = encode_payload(model)
        assert len(blob) <= 0.55 * len(with_grads)
        monkeypatch.undo()
        template = decode_payload(blob)
        for (_, mine), (_, theirs) in zip(
            model.named_parameters(), template.named_parameters()
        ):
            assert theirs.name == mine.name
            np.testing.assert_array_equal(theirs.data, mine.data)
            assert theirs.grad.shape == mine.data.shape and not theirs.grad.any()

    def test_agents_train_bit_identically_from_it(self):
        suite = _suite()
        serial = _server(
            suite, _clients(suite), FedAvgStrategy(FAST), SerialExecutor()
        ).run()
        with ParallelExecutor(num_workers=2) as executor:
            pooled = _server(
                suite, _clients(suite), FedAvgStrategy(FAST), executor
            ).run()
        for key, value in serial.final_state.items():
            np.testing.assert_array_equal(value, pooled.final_state[key])
