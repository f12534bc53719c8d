"""Cross-engine coverage for the sibling FedDG strategies (fedalign,
fedccrl) built on the composable objective registry.

The acceptance bar mirrors the transport tests: serial, parallel+pipe, and
parallel+shm runs must produce bit-identical traces under both lossless
codecs; the loop / ensemble / strict compute backends must agree; and the
per-class payload statistics must survive the wire untouched — including
under the *lossy* codecs, because ``ClientUpdate.payload`` travels raw
(only the weight state is codec-transformed).
"""

import numpy as np
import pytest

from repro.baselines import FedAlignStrategy, FedCCRLStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    shm_supported,
)

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
        assert reference.global_targets
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
                reference.global_targets, strategy.global_targets,
                f"{name}/{transport}/{codec}",
            )


class TestComputeBackends:
    """ensemble_update support: the vectorized backend reproduces the loop
    backend bitwise, fused targets included."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_backends_match_loop(self, name):
        reference, loop = run_once(name, SerialExecutor(compute="loop"))
        assert reference.global_targets
        for compute in ("ensemble", "strict"):
            strategy, run = run_once(name, SerialExecutor(compute=compute))
            assert _trace(run) == _trace(loop), (
                f"{name}: serial/{compute} trace diverged from serial/loop"
            )
            for key in loop.final_state:
                np.testing.assert_array_equal(
                    loop.final_state[key], run.final_state[key]
                )
            _assert_targets_equal(
                reference.global_targets, strategy.global_targets,
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
        assert reference.global_targets
        for target in reference.global_targets.values():
            assert np.all(np.isfinite(target))
        with ParallelExecutor(num_workers=2, codec=codec) as executor:
            strategy, parallel = run_once(name, executor, codec=codec)
        assert _trace(parallel) == _trace(serial), (
            f"{name}/{codec}: trace diverged from serial"
        )
        _assert_targets_equal(
            reference.global_targets, strategy.global_targets,
            f"{name}/{codec}",
        )


class TestStreamingCompatibility:
    """The siblings keep the base aggregate, so they stream — and the
    payload fusion still runs on the streaming path."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_supports_streaming(self, name):
        assert STRATEGIES[name]().supports_streaming()


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
        engine kind and compute backend are derived, not flags."""
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

    def test_unknown_term_rejected_at_strategy_build(self):
        strategy = STRATEGIES["fedalign"]()
        with pytest.raises(ValueError, match="unknown objective term"):
            strategy.objective.with_overrides({"proto_nce": 0.5})
