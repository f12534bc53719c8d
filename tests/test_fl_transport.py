"""Tests for the wire transports (`repro.fl.transport`).

The acceptance bar: the transport moves byte-identical blobs, so serial,
parallel+pipe, and parallel+shm runs must produce *bit-identical* traces
under every lossless codec; the shm transport must count the broadcast
blob once per round (`unique_bytes_down` independent of worker count);
and no run may strand a shared-memory segment — not on a clean close, not
on a pool rebuild, not when the transport is dropped without one.
"""

import gc
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    PipeTransport,
    SerialExecutor,
    ShmTransport,
    make_executor,
    make_transport,
    resolve_transport,
    shm_supported,
    validate_transport,
)
from repro.fl.transport import SHM_SEGMENT_PREFIX, ShmHandle, transport_usage
from repro.data import synthetic_pacs, partition_clients
from repro.nn import build_mlp_model
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)


def _shm_dir_listable() -> bool:
    return sys.platform == "linux" and os.path.isdir("/dev/shm")


def _stray_segments() -> list[str]:
    """Our segments visible in /dev/shm (linux's shm backing directory)."""
    if not _shm_dir_listable():
        return []
    return [
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SHM_SEGMENT_PREFIX)
    ]


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _model(rng_seed=0, hidden_dim=64):
    return build_mlp_model(
        SUITE.image_shape,
        SUITE.num_classes,
        rng=np.random.default_rng(rng_seed),
        hidden_dim=hidden_dim,
    )


def run_once(executor, rounds=3, codec="identity"):
    server = FederatedServer(
        strategy=FedAvgStrategy(FAST),
        clients=make_clients(),
        model=_model(),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=4, seed=0, codec=codec
        ),
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


def _round_seeds(clients, rounds=1):
    tree = SeedTree(0).child("server", "test")
    return [
        [tree.seed("client", c.client_id, "round", r) for c in clients]
        for r in range(rounds)
    ]


class TestRegistry:
    def test_specs(self):
        assert transport_usage() == ("auto", "pipe", "shm", "tcp[:host:port]")

    def test_make_kinds(self):
        assert isinstance(make_transport("pipe"), PipeTransport)
        assert isinstance(make_transport("shm"), ShmTransport)

    def test_built_instance_passes_through(self):
        transport = PipeTransport()
        assert make_transport(transport) is transport

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon")
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")

    def test_non_string_spec_raises(self):
        with pytest.raises(TypeError):
            make_transport(7)

    def test_auto_prefers_shm_when_supported(self):
        assert resolve_transport("auto", supported=True) == "shm"
        assert resolve_transport("auto", supported=False) == "pipe"
        assert resolve_transport("auto") == (
            "shm" if shm_supported() else "pipe"
        )

    def test_concrete_names_pass_through(self):
        assert resolve_transport("pipe") == "pipe"
        assert resolve_transport("shm", supported=False) == "shm"

    def test_make_executor_validates_transport_for_every_kind(self):
        with pytest.raises(ValueError):
            make_executor(transport="bogus")
        with pytest.raises(ValueError):
            make_executor(workers=2, transport="bogus")

    @pytest.mark.parametrize("spec", ["pipe", "shm", "tcp:127.0.0.1:0"])
    def test_serial_rejects_a_wire_transport(self, spec):
        """The in-process engine has no wire: a concrete transport there is
        an error, not a spec accepted and silently ignored."""
        with pytest.raises(ValueError, match="parallel engine"):
            make_executor(transport=spec)
        assert isinstance(make_executor(transport="auto"), SerialExecutor)


class TestValidationDoesNotProbe:
    """Config validation checks the spec's form; only building a transport
    may touch the platform.  A serial run has no wire at all."""

    def test_serial_run_never_asks_the_platform(self, monkeypatch):
        def probed():
            raise AssertionError("a serial run probed shared memory")

        monkeypatch.setattr("repro.fl.transport.shm_supported", probed)
        assert make_executor(transport="auto").transport is None
        result = run_once(None, rounds=2)
        assert len(result.history.records) == 2

    def test_fresh_serial_interpreter_has_no_shm_and_no_child(self):
        """The probe imported ``multiprocessing.shared_memory`` and left
        its resource-tracker process running beside the run."""
        script = textwrap.dedent(
            """
            import os, sys
            import numpy as np
            from repro.baselines import FedAvgStrategy
            from repro.data import partition_clients, synthetic_pacs
            from repro.fl import Client, FederatedConfig, FederatedServer
            from repro.nn import build_mlp_model

            FederatedConfig()
            suite = synthetic_pacs(seed=0, samples_per_class=4, image_size=8)
            parts = partition_clients(suite, [0, 1], 4, 0.2, np.random.default_rng(0))
            server = FederatedServer(
                strategy=FedAvgStrategy(),
                clients=[Client(i, d) for i, d in enumerate(parts.client_datasets)],
                model=build_mlp_model(
                    suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
                ),
                eval_sets={"test": suite.datasets[2]},
                config=FederatedConfig(num_rounds=2, clients_per_round=2),
            )
            assert len(server.run().history.records) == 2
            assert "multiprocessing.shared_memory" not in sys.modules
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                sys.exit(0)
            sys.exit("the serial run left a child process behind")
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_parallel_auto_still_resolves_where_the_transport_is_built(self):
        with ParallelExecutor(num_workers=1, transport="auto") as executor:
            assert executor.transport.spec == ("shm" if shm_supported() else "pipe")

    @pytest.mark.parametrize(
        "spec, message",
        [("avian", r"'auto', 'pipe', 'shm', 'tcp\[:host:port\]'"),
         ("pipe:9999", "takes no parameters")],
    )
    def test_malformed_specs_still_fail_at_config_time(self, spec, message):
        for validate in (
            validate_transport,
            lambda value: make_executor(transport=value),
        ):
            with pytest.raises(ValueError, match=message):
                validate(spec)

    @pytest.mark.parametrize("spec", ["auto", "pipe", "shm", "tcp", "tcp:127.0.0.1:0"])
    def test_well_formed_specs_pass(self, spec):
        validate_transport(spec)


class TestPipeTransport:
    def test_blob_is_its_own_handle(self):
        transport = PipeTransport()
        blob = b"x" * 1000
        handle = transport.publish(blob)
        assert handle is blob
        assert transport.fetch(handle) == blob
        assert transport.handle_wire_bytes(handle) == 1000
        assert transport.publish_wire_bytes(blob) == 0


@needs_shm
class TestShmTransport:
    def test_publish_fetch_roundtrip(self):
        server_side = ShmTransport()
        worker_side = ShmTransport()
        blob = os.urandom(4096)
        try:
            handle = server_side.publish(blob)
            assert isinstance(handle, ShmHandle)
            assert handle.length == len(blob)
            view = worker_side.fetch(handle)
            assert bytes(view) == blob
            assert view.readonly
            # The handle, not the blob, is what crosses per worker.
            assert server_side.handle_wire_bytes(handle) < 256
            assert server_side.publish_wire_bytes(blob) == len(blob)
            del view  # drop the exported buffer before closing the mapping
        finally:
            worker_side.close()
            server_side.close()
        assert _stray_segments() == []

    def test_end_round_unlinks_published_segments(self):
        transport = ShmTransport()
        transport.publish(b"a" * 128)
        transport.publish(b"b" * 128)
        if _shm_dir_listable():
            assert len(_stray_segments()) == 2
        transport.end_round()
        assert _stray_segments() == []
        transport.close()

    def test_close_is_idempotent(self):
        transport = ShmTransport()
        transport.publish(b"x")
        transport.close()
        transport.close()
        assert _stray_segments() == []

    def test_finalizer_reclaims_dropped_transport(self):
        """A transport dropped without close() (aborted run) must not
        strand segments: the weakref.finalize guard unlinks them."""
        transport = ShmTransport()
        transport.publish(b"orphan" * 100)
        del transport
        gc.collect()
        assert _stray_segments() == []

    def test_worker_attachment_retention(self):
        """The worker side keeps only the most recent attachments open
        (older mappings may back still-alive decoded views)."""
        server_side = ShmTransport()
        worker_side = ShmTransport()
        try:
            handles = [server_side.publish(bytes([i]) * 64) for i in range(4)]
            for handle in handles:
                worker_side.fetch(handle)
            assert len(worker_side._attached) == 2
            assert list(worker_side._attached) == [
                handles[2].segment, handles[3].segment
            ]
        finally:
            worker_side.close()
            server_side.close()

    def test_fetch_rejects_foreign_handles(self):
        transport = ShmTransport()
        with pytest.raises(TypeError):
            transport.fetch(b"a pipe blob")


class TestTransportInvariance:
    """Satellite: serial, parallel+pipe, and parallel+shm must trace
    bit-identically under both a stateless and a stateful lossless codec."""

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_cross_engine_cross_transport_traces(self, codec):
        serial = run_once(SerialExecutor(codec=codec), codec=codec)
        transports = ["pipe"] + (["shm"] if shm_supported() else [])
        for transport in transports:
            with ParallelExecutor(
                num_workers=2, codec=codec, transport=transport
            ) as executor:
                parallel = run_once(executor, codec=codec)
            assert _trace(parallel) == _trace(serial), (
                f"{transport}/{codec} trace diverged from serial"
            )
            for key in serial.final_state:
                np.testing.assert_array_equal(
                    serial.final_state[key], parallel.final_state[key]
                )


class TestUniqueBytes:
    """Satellite: bytes_down counted the identical broadcast once per
    worker; unique_bytes_down counts it once per round."""

    def _warm_round_wire(self, workers, transport, rounds=3):
        """Wire-stat deltas for the final (warm: no registration) round."""
        clients = make_clients()
        model = _model()
        state = model.state_dict()
        seeds = _round_seeds(clients, rounds=rounds)
        with ParallelExecutor(num_workers=workers, transport=transport) as ex:
            for r in range(rounds - 1):
                ex.run_round(FedAvgStrategy(FAST), model, state, clients, r, seeds[r])
            before = ex.wire_stats()
            ex.run_round(
                FedAvgStrategy(FAST), model, state, clients, rounds - 1,
                seeds[rounds - 1],
            )
            after = ex.wire_stats()
        return before, after

    def test_unique_down_independent_of_worker_count(self):
        deltas = []
        for workers in (2, 4):
            before, after = self._warm_round_wire(workers, "pipe")
            deltas.append(after.unique_bytes_down - before.unique_bytes_down)
        assert deltas[0] == deltas[1]

    def test_pipe_bytes_down_scale_with_workers_unique_does_not(self):
        (b2, a2) = self._warm_round_wire(2, "pipe")
        (b4, a4) = self._warm_round_wire(4, "pipe")
        assert (a4.bytes_down - b4.bytes_down) > (a2.bytes_down - b2.bytes_down)
        assert (a4.unique_bytes_down - b4.unique_bytes_down) == (
            a2.unique_bytes_down - b2.unique_bytes_down
        )

    @needs_shm
    def test_shm_unique_matches_pipe_unique(self):
        """The unique floor is transport-independent: both move the same
        post-codec blobs."""
        (pb, pa) = self._warm_round_wire(2, "pipe")
        (sb, sa) = self._warm_round_wire(2, "shm")
        assert (pa.unique_bytes_down - pb.unique_bytes_down) == (
            sa.unique_bytes_down - sb.unique_bytes_down
        )

    @needs_shm
    def test_shm_broadcast_is_single_copy(self):
        """Warm-round downlink under shm ~= the unique floor (blob once +
        tiny handles); under pipe it's roughly blob x workers."""
        (pb, pa) = self._warm_round_wire(2, "pipe")
        (sb, sa) = self._warm_round_wire(2, "shm")
        pipe_down = pa.bytes_down - pb.bytes_down
        shm_down = sa.bytes_down - sb.bytes_down
        shm_unique = sa.unique_bytes_down - sb.unique_bytes_down
        assert shm_down < pipe_down
        # Overhead above the unique floor is only handles + strategy blobs.
        assert shm_down - shm_unique < 4096

    def test_unique_down_lands_in_timing_report(self):
        with ParallelExecutor(num_workers=2, transport="pipe") as executor:
            result = run_once(executor, rounds=2)
        timing = result.timing
        assert 0 < timing.unique_bytes_down < timing.bytes_down

    def test_serial_engine_reports_zero_unique_down(self):
        result = run_once(SerialExecutor(), rounds=2)
        assert result.timing.unique_bytes_down == 0


class TestOverlappedDecode:
    """Broadcast decode runs lazily at the round's first tensor touch and
    its wall clock is recorded as the overlap window."""

    @pytest.mark.parametrize(
        "transport", ["pipe"] + (["shm"] if shm_supported() else [])
    )
    def test_one_decode_per_participating_worker_per_round(self, transport):
        clients = make_clients()
        model = _model()
        state = model.state_dict()
        seeds = _round_seeds(clients, rounds=2)
        with ParallelExecutor(num_workers=2, transport=transport) as executor:
            for round_index in range(2):
                updates = executor.run_round(
                    FedAvgStrategy(FAST), model, state, clients,
                    round_index, seeds[round_index],
                )
                decoded = [u for u in updates if u.decode_seconds > 0.0]
                assert len(decoded) == 2  # one per participating worker

    def test_decode_window_lands_in_timing_report(self):
        with ParallelExecutor(num_workers=2) as executor:
            result = run_once(executor, rounds=2)
        assert result.timing.broadcast_decode_seconds_total > 0.0

    def test_serial_engine_has_no_decode_window(self):
        result = run_once(SerialExecutor(), rounds=2)
        assert result.timing.broadcast_decode_seconds_total == 0.0


@needs_shm
class TestSegmentLifecycle:
    """Satellite: no stray /dev/shm segments after runs, closes, rebuilds."""

    def test_no_stray_segments_after_run_and_close(self):
        with ParallelExecutor(num_workers=2, transport="shm") as executor:
            run_once(executor, rounds=2)
            # Segments are round-scoped: already unlinked between rounds,
            # not only at close.
            assert _stray_segments() == []
        assert _stray_segments() == []

    def test_no_stray_segments_after_pool_rebuild(self):
        clients = make_clients()
        seeds = _round_seeds(clients, rounds=2)
        executor = ParallelExecutor(num_workers=2, transport="shm")
        try:
            model = _model()
            executor.run_round(
                FedAvgStrategy(FAST), model, model.state_dict(), clients, 0, seeds[0]
            )
            # A different architecture forces a pool rebuild mid-life.
            wider = _model(hidden_dim=128)
            executor.run_round(
                FedAvgStrategy(FAST), wider, wider.state_dict(), clients, 0, seeds[0]
            )
            assert _stray_segments() == []
        finally:
            executor.close()
        assert _stray_segments() == []

    def test_warm_pool_reuse_stays_clean(self):
        executor = ParallelExecutor(num_workers=2, transport="shm")
        try:
            first = run_once(executor, rounds=2)
            second = run_once(executor, rounds=2)
            assert _trace(first) == _trace(second)
            assert _stray_segments() == []
        finally:
            executor.close()


class TestCLIKnob:
    def test_transport_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg", "--transport", "shm"]
        )
        assert args.transport == "shm"

    def test_transport_default_is_auto(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg"]
        )
        assert args.transport == "auto"

    def test_unknown_transport_is_a_usage_error(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lodo", "--suite", "pacs", "--method", "fedavg",
                 "--transport", "avian"]
            )

    def test_setting_threads_transport_into_config(self):
        from repro.eval import ExperimentSetting

        setting = ExperimentSetting(transport="pipe", workers=2)
        assert setting.transport == "pipe"
        with setting.make_executor() as executor:
            assert executor.transport.spec == "pipe"
        with pytest.raises(ValueError, match="parallel engine"):
            ExperimentSetting(transport="pipe").make_executor()

    def test_transport_without_workers_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--suite", "pacs", "--method", "fedavg",
                  "--train-domains", "photo", "art_painting",
                  "--val-domain", "cartoon", "--test-domain", "sketch",
                  "--transport", "pipe"])
        assert exit_info.value.code == 2
        assert "--transport pipe needs --workers" in capsys.readouterr().err
