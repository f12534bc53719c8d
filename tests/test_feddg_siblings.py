"""Cross-engine coverage for the sibling FedDG strategies (fedalign,
fedccrl) built on the composable objective registry.

The acceptance bar mirrors the transport tests: serial, parallel+pipe, and
parallel+shm runs must produce bit-identical traces under both lossless
codecs; the scalar reference loop, the trainer's stacks and its K=1 stacks
must agree; and the per-class payload statistics must survive the wire untouched — including
under the *lossy* codecs, because ``ClientUpdate.payload`` travels raw
(only the weight state is codec-transformed).  ``TestClassStatsChannel``
covers the class-statistics channel the siblings share with FPL.
"""

import numpy as np
import pytest

from repro.baselines import FedAlignStrategy, FedCCRLStrategy
from repro.data import LabeledDataset, partition_clients, synthetic_pacs
from repro.fl import (
    Client,
    EnsembleBackend,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    shm_supported,
)
from repro.fl import compute as fl_compute
from repro.fl.aggregate import make_aggregator
from repro.fl.strategy import Strategy
from tests import reference_loop
from tests.test_baselines import traced_run

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)

STRATEGIES = {
    "fedalign": lambda: FedAlignStrategy(local_config=FAST),
    "fedccrl": lambda: FedCCRLStrategy(local_config=FAST),
}

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _model():
    from repro.nn import build_mlp_model

    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
    )


def run_once(name, executor, rounds=2, codec="identity"):
    """Run one sibling strategy; returns (strategy, result) so callers can
    inspect the fused server-side targets."""
    strategy = STRATEGIES[name]()
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients(),
        model=_model(),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=4, seed=0, codec=codec
        ),
        executor=executor,
    )
    return strategy, server.run()


def _trace(result):
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.eval_accuracy.items())))
            for r in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


def _assert_targets_equal(a, b, context):
    assert set(a) == set(b), f"{context}: fused target classes diverge"
    for label in a:
        np.testing.assert_array_equal(
            a[label], b[label], err_msg=f"{context}: target[{label}] diverges"
        )


class TestTraceInvariance:
    """serial == parallel+pipe == parallel+shm, bitwise, for both new
    strategies under both lossless codecs — and the server-side fused
    targets are bitwise engine-invariant too."""

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_cross_engine_cross_transport_traces(self, name, codec):
        reference, serial = run_once(
            name, SerialExecutor(codec=codec), codec=codec
        )
        # The payload pathway was actually exercised, not vacuously empty.
        assert reference.class_targets
        transports = ["pipe"] + (["shm"] if shm_supported() else [])
        for transport in transports:
            with ParallelExecutor(
                num_workers=2, codec=codec, transport=transport
            ) as executor:
                strategy, parallel = run_once(
                    name, executor, codec=codec
                )
            assert _trace(parallel) == _trace(serial), (
                f"{name}: {transport}/{codec} trace diverged from serial"
            )
            for key in serial.final_state:
                np.testing.assert_array_equal(
                    serial.final_state[key], parallel.final_state[key]
                )
            _assert_targets_equal(
                reference.class_targets, strategy.class_targets,
                f"{name}/{transport}/{codec}",
            )


class TestStacksMatchLoop:
    """The trainer's stacks reproduce the scalar reference loop bitwise,
    fused targets included."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_backends_match_loop(self, name, monkeypatch):
        with monkeypatch.context() as patch:
            # The scalar reference loop, one client at a time.
            patch.setattr(
                EnsembleBackend, "train_stacks", reference_loop.train_stacks
            )
            reference, loop = run_once(name, SerialExecutor())
        assert reference.class_targets
        for compute, stack_step in (("ensemble", None), ("strict", 1)):
            if stack_step is not None:
                monkeypatch.setattr(fl_compute, "_STACK_STEP_ELEMENTS", stack_step)
            strategy, run = run_once(name, SerialExecutor())
            assert _trace(run) == _trace(loop), (
                f"{name}: serial/{compute} trace diverged from the loop"
            )
            for key in loop.final_state:
                np.testing.assert_array_equal(
                    loop.final_state[key], run.final_state[key]
                )
            _assert_targets_equal(
                reference.class_targets, strategy.class_targets,
                f"{name}/{compute}",
            )


class TestLossyCodecPayloadSurvival:
    """Payloads are not part of the codec-transformed weight channel: a
    lossy wire codec must leave the fused targets bitwise identical to the
    serial run's, and they must be finite and non-empty."""

    @pytest.mark.parametrize("codec", ["fp16", "qint8"])
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_targets_survive_lossy_wire(self, name, codec):
        reference, serial = run_once(
            name, SerialExecutor(codec=codec), codec=codec
        )
        assert reference.class_targets
        for target in reference.class_targets.values():
            assert np.all(np.isfinite(target))
        with ParallelExecutor(num_workers=2, codec=codec) as executor:
            strategy, parallel = run_once(name, executor, codec=codec)
        assert _trace(parallel) == _trace(serial), (
            f"{name}/{codec}: trace diverged from serial"
        )
        _assert_targets_equal(
            reference.class_targets, strategy.class_targets,
            f"{name}/{codec}",
        )


class TestClassStatsChannel:
    """FPL, FedAlign and FedCCRL exchange per-class statistics through the
    one channel on :class:`Strategy`.  The digests were traced when each of
    them carried its own upload, fusion loop and target attribute; they
    must not move, on the serial engine or the pool."""

    CHANNEL = ("fedalign", "fedccrl", "fpl")
    DIGESTS = {
        ("fpl", "mean"): "e3ad46f988ab398b",
        ("fpl", "median"): "0d0c6b210c46f7c3",
        ("fedalign", "mean"): "d004bfdee6b58b84",
        ("fedalign", "median"): "18b863f3ff717a63",
        ("fedccrl", "mean"): "d4b1cbea5630e20d",
        ("fedccrl", "median"): "5343c4ca71b85cf2",
    }

    @pytest.mark.parametrize("method, rule", sorted(DIGESTS))
    def test_serial(self, method, rule):
        from repro.cli import METHODS

        strategy = METHODS[method]()
        strategy.aggregator = make_aggregator(rule)
        assert traced_run(strategy, SerialExecutor()) == (
            self.DIGESTS[method, rule]
        )

    @pytest.mark.parametrize("method", CHANNEL)
    def test_pool(self, method):
        from repro.cli import METHODS

        with ParallelExecutor(num_workers=2) as executor:
            digest = traced_run(METHODS[method](), executor)
        assert digest == self.DIGESTS[method, "mean"]

    #: FPL where client 1 alone holds class 6.  Client 1 first trains in
    #: round 2 (seed 0 samples 3, 0, 6, 2 / 0, 5, 7, 2 / 3, 2, 5, 1), so its
    #: class-6 rows meet prototypes that cover every class but theirs:
    #: ``prototype_nce``'s unknown-class path, which no other digest reaches.
    UNKNOWN_CLASS_DIGEST = "0459555dbae4f6f4"

    @staticmethod
    def _one_holder_of_class_six():
        from tests.test_baselines import make_clients as make_traced_clients

        clients = []
        for client in make_traced_clients(8):
            dataset = client.dataset
            keep = np.flatnonzero((dataset.labels != 6) | (client.client_id == 1))
            subset = LabeledDataset(
                dataset.images[keep], dataset.labels[keep], dataset.domain_ids[keep]
            )
            clients.append(Client(client.client_id, subset))
        return clients

    def test_fpl_unknown_class_serial(self):
        from repro.cli import METHODS

        digest = traced_run(
            METHODS["fpl"](), SerialExecutor(), self._one_holder_of_class_six()
        )
        assert digest == self.UNKNOWN_CLASS_DIGEST

    def test_fpl_unknown_class_pool(self):
        from repro.cli import METHODS

        with ParallelExecutor(num_workers=2) as executor:
            digest = traced_run(
                METHODS["fpl"](), executor, self._one_holder_of_class_six()
            )
        assert digest == self.UNKNOWN_CLASS_DIGEST

    def test_every_method_uploads_through_the_channel_or_not_at_all(
        self, monkeypatch
    ):
        """One round of every ``repro.cli`` method: the three class-
        statistics methods upload exactly ``class_stats``, one ``(mean,
        count)`` per class the client holds, and fuse one target per
        uploaded class; every other method holds no targets and uploads
        no statistics (FedDG-GA's payload stays its gap)."""
        from repro.cli import METHODS

        uploads = []
        aggregate = Strategy.aggregate

        def spy(self, global_state, updates, *rest, **kwargs):
            uploads.extend(updates)
            return aggregate(self, global_state, updates, *rest, **kwargs)

        monkeypatch.setattr(Strategy, "aggregate", spy)
        clients = {client.client_id: client for client in make_clients()}
        for method in sorted(METHODS):
            uploads.clear()
            strategy = METHODS[method](local_config=FAST)
            FederatedServer(
                strategy=strategy,
                clients=list(clients.values()),
                model=_model(),
                eval_sets={},
                config=FederatedConfig(num_rounds=1, clients_per_round=4, seed=0),
            ).run()
            assert len(uploads) == 4, method
            if method not in self.CHANNEL:
                assert strategy.class_targets is None, method
                expected = {"gap"} if method == "feddg_ga" else set()
                for update in uploads:
                    assert set(update.payload) == expected, method
                continue
            fused = set()
            for update in uploads:
                assert set(update.payload) == {"class_stats"}, method
                labels = clients[update.client_id].dataset.labels
                held, counts = np.unique(labels, return_counts=True)
                stats = update.payload["class_stats"]
                assert sorted(stats) == held.tolist(), method
                for label, count in zip(held.tolist(), counts.tolist()):
                    mean, uploaded = stats[label]
                    assert uploaded == count, method
                    assert mean.shape == (_model().embed_dim,), method
                    assert np.all(np.isfinite(mean)), method
                fused.update(stats)
            assert set(strategy.class_targets) == fused, method


class TestCLIKnobs:
    @pytest.mark.parametrize(
        "argv, names",
        [
            pytest.param(
                ["--strategy", "fedalign"], "--method", id="strategy-alias"
            ),
            pytest.param(
                ["--method", "fedalign", "--executor", "auto"],
                "unrecognized arguments: --executor",
                id="executor-auto",
            ),
            pytest.param(
                ["--method", "fedalign", "--compute", "strict"],
                "unrecognized arguments: --compute",
                id="compute-strict",
            ),
        ],
    )
    def test_retired_spelling_is_a_usage_error(self, argv, names, capsys):
        """``--method`` is the one spelling of the method flag, and the
        engine kind is derived and there is one trainer, not flags."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["lodo", "--suite", "pacs", *argv])
        assert exit_info.value.code == 2
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_siblings_are_registered_methods(self, name):
        from repro.cli import METHODS

        strategy = METHODS[name]()
        assert strategy.name == name

    def test_objective_override_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedalign",
             "--objective", "align=0.8"]
        )
        assert args.objective == "align=0.8"

    @pytest.mark.parametrize(
        "spec", ["align", "=1", "align=abc", "align=-0.5", "align=inf"]
    )
    def test_bad_objective_spec_is_a_usage_error(self, spec):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lodo", "--suite", "pacs", "--method", "fedalign",
                 "--objective", spec]
            )

    @pytest.mark.parametrize("command", ["run", "lodo", "serve"])
    def test_term_the_method_lacks_is_a_usage_error(
        self, command, capsys, monkeypatch
    ):
        """An ``--objective`` term outside the method's objective exits 2
        naming the term, before any suite is built."""
        from repro import cli
        from repro.fl.net import serve

        def no_suite(seed):
            raise AssertionError("the suite was built")

        monkeypatch.setitem(cli.SUITES, "pacs", no_suite)
        split = ["--train-domains", "photo", "art_painting",
                 "--val-domain", "cartoon", "--test-domain", "sketch"]
        argv = ["--suite", "pacs", "--method", "fedavg", "--objective", "align=1"]
        with pytest.raises(SystemExit) as exit_info:
            if command == "serve":
                serve.main([*argv, *split])
            else:
                cli.main([command, *argv, *(split if command == "run" else [])])
        assert exit_info.value.code == 2
        assert "'align'" in capsys.readouterr().err

    def test_term_the_method_has_is_accepted(self):
        from repro.cli import _setting_from_args, build_parser

        def usage_error(message):
            raise AssertionError(message)

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedsr",
             "--objective", "embed_l2=0.3"]
        )
        assert _setting_from_args(args, usage_error).objective == "embed_l2=0.3"

    def test_unknown_term_rejected_at_strategy_build(self):
        strategy = STRATEGIES["fedalign"]()
        with pytest.raises(ValueError, match="unknown objective term"):
            strategy.objective.with_overrides({"proto_nce": 0.5})
