"""Tests for the client-execution engines (`repro.fl.executor`).

The acceptance bar: `SerialExecutor` and a >= 2-worker `ParallelExecutor`
must produce *identical* `RunHistory` traces and final accuracies — the
round loop's semantics may not depend on how the fan-out executes.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import pickle

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy, FedDGGAStrategy, FPLStrategy
from repro.core import PardonConfig, PardonStrategy
from repro.data import synthetic_pacs, partition_clients
from repro.fl import (
    Client,
    ClientUpdate,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_prepare,
)
from repro.fl.net import executor as net_executor
from repro.fl.net.serve import trace_dict
from repro.fl.history import RoundRecord
from repro.fl.timing import TimingReport
from repro.nn import architecture_signature, build_mlp_model
from repro.nn.module import Module
from repro.nn.serialize import decode_payload, encode_payload
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def run_once(strategy, executor, rounds=3, clients_per_round=4, clients=None):
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients() if clients is None else clients,
        model=build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        ),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=clients_per_round, seed=0
        ),
        executor=executor,
    )
    return server.run()


def assert_identical_runs(serial, parallel):
    assert len(serial.history.records) == len(parallel.history.records)
    for a, b in zip(serial.history.records, parallel.history.records):
        assert a.round_index == b.round_index
        assert a.participants == b.participants
        assert a.mean_local_loss == b.mean_local_loss
        assert a.eval_accuracy == b.eval_accuracy
    assert serial.final_accuracy == parallel.final_accuracy
    for key in serial.final_state:
        np.testing.assert_array_equal(
            serial.final_state[key], parallel.final_state[key]
        )


class TestClientUpdate:
    def test_from_client_captures_identity(self):
        client = make_clients()[0]
        update = ClientUpdate.from_client(client, {"w": np.ones(2)}, 0.5)
        assert update.client_id == client.client_id
        assert update.num_samples == client.num_samples
        assert update.loss == 0.5
        assert update.payload == {}

    def test_is_picklable_with_payload(self):
        client = make_clients()[0]
        update = ClientUpdate.from_client(
            client, {"w": np.ones(2)}, 0.5, payload={"prototypes": {0: np.zeros(3)}}
        )
        clone = pickle.loads(pickle.dumps(update))
        assert clone.client_id == update.client_id
        np.testing.assert_array_equal(
            clone.payload["prototypes"][0], np.zeros(3)
        )


class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor(), SerialExecutor)
        parallel = make_executor(workers=2)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.num_workers == 2
        parallel.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(num_workers=0)


class TestExecutorResolution:
    """The engine is what the caller said: parallel iff a worker count is
    given, else serial."""

    @pytest.mark.parametrize(
        "workers, expected",
        [
            pytest.param(None, SerialExecutor, id="unset"),
            pytest.param(2, ParallelExecutor, id="parallel-sized"),
            pytest.param(4, ParallelExecutor, id="workers-imply-parallel"),
        ],
    )
    def test_resolution(self, workers, expected):
        from repro.eval import ExperimentSetting

        setting = ExperimentSetting(workers=workers)
        for build in (lambda: make_executor(workers), setting.make_executor):
            with build() as engine:
                assert type(engine) is expected
                if expected is ParallelExecutor:
                    assert engine.num_workers == workers


class TestDeterminism:
    """Serial and parallel execution must be indistinguishable in the trace."""

    def test_fedavg_serial_equals_parallel(self):
        serial = run_once(FedAvgStrategy(FAST), SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(FedAvgStrategy(FAST), executor)
        assert_identical_runs(serial, parallel)

    def test_pardon_serial_equals_parallel(self):
        serial = run_once(PardonStrategy(local_config=FAST), SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(PardonStrategy(local_config=FAST), executor)
        assert_identical_runs(serial, parallel)

    def test_fpl_payload_survives_process_hop(self):
        """FPL's prototypes travel via ClientUpdate.payload, so the global
        prototypes must come out identical either way."""
        serial_strategy = FPLStrategy(local_config=FAST)
        serial = run_once(serial_strategy, SerialExecutor())
        parallel_strategy = FPLStrategy(local_config=FAST)
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(parallel_strategy, executor)
        assert_identical_runs(serial, parallel)
        assert set(serial_strategy.class_targets) == set(
            parallel_strategy.class_targets
        )
        for label, proto in serial_strategy.class_targets.items():
            np.testing.assert_array_equal(
                proto, parallel_strategy.class_targets[label]
            )


    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_spawn_start_method_equals_serial(self, codec, monkeypatch):
        """``spawn`` (the default off Linux) pickles the pool entrypoints
        by qualified name and imports them in a fresh interpreter — the
        one start method that notices when they move between modules."""

        def run(executor):
            server = FederatedServer(
                strategy=FedAvgStrategy(FAST),
                clients=make_clients(),
                model=build_mlp_model(
                    SUITE.image_shape, SUITE.num_classes,
                    rng=np.random.default_rng(0),
                ),
                eval_sets={"test": SUITE.datasets[2]},
                config=FederatedConfig(
                    num_rounds=2, clients_per_round=4, seed=0, codec=codec
                ),
                executor=executor,
            )
            return server.run()

        serial = run(SerialExecutor(codec=codec))
        monkeypatch.setattr(net_executor, "_default_start_method", lambda: "spawn")
        with ParallelExecutor(num_workers=2, codec=codec) as executor:
            spawned = run(executor)
        assert_identical_runs(serial, spawned)


class PidStampStrategy(FedAvgStrategy):
    """Stamps the training process's pid into each upload's payload, on
    top of the base step (the way FedDG-GA adds its gap)."""

    name = "pid_stamp"

    def train_group(self, clients, emodel, round_index, rngs):
        updates = super().train_group(clients, emodel, round_index, rngs)
        for update in updates:
            update.payload["pid"] = os.getpid()
        return updates


def _round_setup(clients, rounds=1):
    """Participants (all clients) + per-round seeds, mirroring the server."""
    tree = SeedTree(0).child("server", "test")
    return [
        [
            tree.seed("client", client.client_id, "round", round_index)
            for client in clients
        ]
        for round_index in range(rounds)
    ]


class TestWireProtocol:
    """Pool residency and the delta-based wire protocol."""

    def _model(self):
        return build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )

    def test_datasets_ship_once_per_pool_lifetime(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients, rounds=2)
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds[0])
            registered = executor.wire_stats().registration_bytes
            assert registered > 0
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 1, seeds[1])
            assert executor.wire_stats().registration_bytes == registered

    def test_task_payload_excludes_dataset_and_state(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients)[0]
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds)
            wire = executor.wire_stats()
        # Tasks are (client_ids, round, seeds, fault): constant-size, far
        # below even a single client's images.
        per_task = wire.task_bytes / len(clients)
        assert per_task < 256
        assert wire.task_bytes < clients[0].dataset.images.nbytes

    def test_broadcast_is_per_worker_not_per_task(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients)[0]
        state_bytes = len(pickle.dumps(state))
        with ParallelExecutor(num_workers=2) as executor:
            executor.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds)
            wire = executor.wire_stats()
        # 8 participants on 2 workers: well under one state blob per task.
        assert wire.broadcast_bytes < state_bytes * 3

    def test_sticky_affinity_is_by_client_id_modulo_workers(self):
        clients = make_clients()
        model = self._model()
        state = model.state_dict()
        seeds = _round_setup(clients, rounds=2)
        with ParallelExecutor(num_workers=2) as executor:
            rounds = [
                executor.run_round(
                    PidStampStrategy(FAST), model, state, clients, r, seeds[r]
                )
                for r in range(2)
            ]
        pids = {
            a.client_id: (a.payload["pid"], b.payload["pid"])
            for a, b in zip(*rounds)
        }
        # Same worker across rounds...
        for first, second in pids.values():
            assert first == second
        # ...and the same worker for every client with the same home slot.
        for a, b in itertools.combinations(clients, 2):
            if a.client_id % 2 == b.client_id % 2:
                assert pids[a.client_id] == pids[b.client_id]
            else:
                assert pids[a.client_id] != pids[b.client_id]

    def test_new_client_objects_are_reregistered(self):
        """Fresh Client objects with recycled ids (a new run on a warm pool)
        must not see the previous run's resident data."""
        executor = ParallelExecutor(num_workers=2)
        try:
            first = run_once(PardonStrategy(local_config=FAST), executor)
            second = run_once(PardonStrategy(local_config=FAST), executor)
            assert_identical_runs(first, second)
        finally:
            executor.close()

    def test_pardon_uploads_what_fedavg_uploads(self):
        """The privacy boundary: PARDON's re-styled images stay in the
        workers that built them.  Its measured upload is FedAvg's (same
        clients, seeds and codec), and no server-side client holds a
        cache after the run."""

        def run(strategy):
            clients = make_clients()
            with ParallelExecutor(num_workers=2) as executor:
                result = run_once(strategy, executor, clients=clients)
            return result.timing.bytes_up, clients

        fedavg_up, _ = run(FedAvgStrategy(FAST))
        pardon_up, clients = run(PardonStrategy(local_config=FAST))
        assert abs(pardon_up - fedavg_up) <= 0.01 * fedavg_up
        assert all(client.scratch == {} for client in clients)

    def test_wire_bytes_land_in_timing_report(self):
        with ParallelExecutor(num_workers=2) as executor:
            result = run_once(FedAvgStrategy(FAST), executor, rounds=2)
        assert result.timing.bytes_up > 0
        assert result.timing.bytes_down > 0
        assert result.timing.bytes_total == (
            result.timing.bytes_up + result.timing.bytes_down
        )

    def test_round_bytes_sum_to_the_engines_wire_delta(self):
        """Each round's bytes are the driver's own before/after snapshot,
        registration in ``open()`` included, so over a run (the second on
        a warm pool too) they add up to exactly what the engine counted."""
        with ParallelExecutor(num_workers=2) as executor:
            for _ in range(2):
                before = executor.wire_stats()
                result = run_once(FedAvgStrategy(FAST), executor, rounds=2)
                after = executor.wire_stats()
                for name in ("bytes_up", "bytes_down", "unique_bytes_down"):
                    records = sum(
                        getattr(r, name) for r in result.history.records
                    )
                    delta = getattr(after, name) - getattr(before, name)
                    assert records == delta == getattr(result.timing, name) > 0

    def test_serial_engine_reports_zero_wire_bytes(self):
        result = run_once(FedAvgStrategy(FAST), SerialExecutor(), rounds=2)
        assert result.timing.bytes_up == 0
        assert result.timing.bytes_down == 0

    def test_report_covers_only_this_run_on_a_warm_pool(self):
        """Executor counters are cumulative across runs; each report must
        still count only its own run's traffic."""
        with ParallelExecutor(num_workers=2) as executor:
            first = run_once(FedAvgStrategy(FAST), executor, rounds=1)
            second = run_once(FedAvgStrategy(FAST), executor, rounds=1)
        # The second run re-registers its fresh clients, so its totals are
        # close to the first run's — not the cumulative sum.
        assert second.timing.bytes_down < first.timing.bytes_down * 1.5


class TestPardonCacheFollowsStyle:
    """PARDON's transfer cache is keyed on the style that built it: a second
    run over the *same* client objects with another interpolation style
    trains exactly like that style on fresh clients."""

    FIRST = PardonConfig(global_clustering=True)
    SECOND = PardonConfig(local_clustering=False, global_clustering=False)

    def _assert_second_run_is_fresh(self, executor):
        clients = make_clients()
        run_once(PardonStrategy(self.FIRST, FAST), executor, clients=clients)
        reused = run_once(PardonStrategy(self.SECOND, FAST), executor, clients=clients)
        fresh = run_once(PardonStrategy(self.SECOND, FAST), executor)
        assert trace_dict(reused) == trace_dict(fresh)

    def test_serial(self):
        self._assert_second_run_is_fresh(SerialExecutor())

    def test_warm_pool(self):
        # One pool serves all three runs, so the workers keep the first
        # run's clients — and their caches — resident.
        with ParallelExecutor(num_workers=2) as executor:
            self._assert_second_run_is_fresh(executor)


class TestParallelMechanics:
    #: ``run_once`` of FedDG-GA: the clients' own gap reports set the
    #: aggregation weights, so this moves only if what they measure does.
    FEDDG_GA_DIGEST = "9a37abecbb31fd28"

    def test_feddg_ga_gaps_cross_the_pool(self):
        serial = run_once(FedDGGAStrategy(local_config=FAST), SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_once(FedDGGAStrategy(local_config=FAST), executor)
        assert trace_dict(serial) == trace_dict(parallel)
        digest = hashlib.sha256(
            json.dumps(trace_dict(serial), sort_keys=True).encode()
        ).hexdigest()
        assert digest[:16] == self.FEDDG_GA_DIGEST

    def test_feddg_ga_blob_holds_no_dataset_or_model(self):
        strategy = FedDGGAStrategy(local_config=FAST)
        clients = make_clients()
        result = run_once(strategy, SerialExecutor(), clients=clients)
        assert strategy.client_weights  # the gaps moved the weights
        blob = encode_payload(strategy)
        shipped = decode_payload(blob)
        assert not any(
            isinstance(value, (Client, Module)) for value in vars(shipped).values()
        )
        # ...nor one tucked into a container: the blob is smaller than any
        # one client's images and than the weights.
        smallest = min(c.dataset.images.nbytes for c in clients if c.num_samples)
        weights = sum(v.nbytes for v in result.final_state.values())
        assert len(blob) < min(smallest, weights)

    def test_pardon_broadcasts_the_interpolation_style_only(self):
        """The per-client styles stay on the server; workers receive the
        fused interpolation style alone."""
        strategy = PardonStrategy(local_config=FAST)
        run_prepare(strategy, make_clients(), SeedTree(0))
        assert strategy.client_styles
        shipped = decode_payload(encode_payload(strategy))
        assert not shipped.client_styles
        np.testing.assert_array_equal(
            shipped.interpolation_style.to_array(),
            strategy.interpolation_style.to_array(),
        )

    def test_pool_reuse_across_runs(self):
        executor = ParallelExecutor(num_workers=2)
        try:
            first = run_once(FedAvgStrategy(FAST), executor, rounds=1)
            second = run_once(FedAvgStrategy(FAST), executor, rounds=1)
            assert_identical_runs(first, second)
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(num_workers=2)
        executor.close()
        executor.close()

    def test_architecture_signature_tracks_structure(self):
        same_a = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        same_b = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(7)
        )
        wider = build_mlp_model(
            SUITE.image_shape,
            SUITE.num_classes,
            rng=np.random.default_rng(0),
            hidden_dim=128,
        )
        sig = architecture_signature
        assert sig(same_a) == sig(same_b)  # weights don't matter
        assert sig(same_a) != sig(wider)
        # Mode flips must not force a pool rebuild.
        assert sig(same_a.eval()) == sig(same_b)


class TestTimingAccounting:
    def test_recorded_updates_count_as_invocations(self):
        record = RoundRecord(0, 0.0, [3, 5], train_seconds=1.0, wall_seconds=0.5)
        report = TimingReport.from_records([record])
        assert report.local_train_invocations == 2
        assert report.local_train_seconds_total == 1.0
        assert report.local_train_wall_seconds_total == 0.5
        assert report.local_train_speedup == 2.0

    def test_serial_round_wall_covers_its_compute(self):
        result = run_once(FedAvgStrategy(FAST), SerialExecutor(), rounds=2)
        for record in result.history.records:
            assert 0.0 < record.train_seconds <= record.wall_seconds
        assert result.timing.local_train_speedup <= 1.0

    def test_speedup_defaults_to_one(self):
        assert TimingReport.from_records([]).local_train_speedup == 1.0

    def test_speedup_with_zero_invocations_and_zero_wall(self):
        """Edge cases: an empty report and a compute-only report must not
        divide by zero."""
        empty = TimingReport.from_records([])
        assert empty.local_train_invocations == 0
        assert empty.local_train_seconds_mean == 0.0
        assert empty.local_train_speedup == 1.0
        compute_only = RoundRecord(0, 0.0, [0], train_seconds=1.0)  # no wall
        assert TimingReport.from_records([compute_only]).local_train_speedup == 1.0

    def test_records_compare_without_their_clocks(self):
        """Two runs of the same bits are ``==`` whatever their clocks
        read; a deterministic field still tells them apart."""
        record = RoundRecord(0, 0.5, [1, 2], dropped={2: "dropout"}, bytes_up=7)
        clocks = dict(
            train_seconds=1.0, decode_seconds=2.0, wall_seconds=3.0,
            overlap_seconds=4.0, early_close_seconds=5.0,
            aggregation_seconds=6.0, peak_memory_bytes=7,
        )
        assert dataclasses.replace(record, **clocks) == record
        assert dataclasses.replace(record, bytes_up=8) != record
        assert dataclasses.replace(record, rejected_uploads=1) != record

    def test_round_bytes_accumulate_into_report(self):
        report = TimingReport.from_records([
            RoundRecord(0, 0.0, [0], bytes_up=100, bytes_down=200),
            RoundRecord(1, 0.0, [0], bytes_up=1, bytes_down=2, unique_bytes_down=2),
        ])
        assert report.bytes_up == 101
        assert report.bytes_down == 202
        assert report.unique_bytes_down == 2
        assert report.bytes_total == 303

    def test_parallel_run_reports_worker_seconds(self):
        with ParallelExecutor(num_workers=2) as executor:
            result = run_once(FedAvgStrategy(FAST), executor, rounds=2)
        timing = result.timing
        assert timing.local_train_invocations == 8
        assert timing.local_train_seconds_total > 0.0
        assert timing.local_train_wall_seconds_total > 0.0


class TestFinalEvaluationReuse:
    def test_final_accuracy_is_last_round_record(self):
        result = run_once(FedAvgStrategy(FAST), SerialExecutor(), rounds=2)
        assert result.final_accuracy == result.history.records[-1].eval_accuracy
