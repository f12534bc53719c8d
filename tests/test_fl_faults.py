"""Tests for the fault-tolerance layer (`repro.fl.faults` + the engines).

The acceptance bar: a seeded fault plan (dropouts + a worker crash +
stragglers + corrupted uploads) produces *bit-identical* traces — including
who dropped, and why — across serial, parallel+pipe, and parallel+shm;
rounds close within their configured deadline with survivors-only
aggregation; a crashed worker leaves no shared-memory segments and no
resource-tracker warnings behind; and a deadline that expires with nothing
to aggregate raises a typed `RoundTimeoutError` instead of hanging forever
(the pre-PR-5 latent bug: result collection had no timeout at all).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedAvgStrategy
from repro.core import PardonStrategy
from repro.data import synthetic_pacs, partition_clients
from repro.data.synthetic import LabeledDataset
from repro.fl import (
    Client,
    FaultEvent,
    FaultPlan,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    RoundTimeoutError,
    SerialExecutor,
    make_aggregator,
    make_executor,
    make_fault_plan,
    shm_supported,
)
from repro.fl.faults import FixedDeadline, poison_state, state_is_corrupt
from repro.fl.transport import SHM_SEGMENT_PREFIX
from repro.nn import build_mlp_model
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)

#: The acceptance-criteria plan: dropouts + stragglers + corrupted uploads
#: from the seeded schedule, plus one worker crash in round 1.
CHAOS_PLAN = FaultPlan(
    seed=7,
    dropout_rate=0.15,
    straggler_rate=0.25,
    straggler_delay=0.02,
    corrupt_rate=0.1,
    crash_rounds=(1,),
)

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)


def _shm_dir_listable() -> bool:
    return sys.platform == "linux" and os.path.isdir("/dev/shm")


def _stray_segments() -> list[str]:
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


def _model(rng_seed=0):
    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(rng_seed)
    )


def run_once(executor, strategy=None, rounds=3, eval_sets=None):
    """One run on ``executor``, which carries the codec, the fault plan
    and the deadline."""
    server = FederatedServer(
        strategy=strategy or FedAvgStrategy(FAST),
        clients=make_clients(),
        model=_model(),
        eval_sets=eval_sets or {"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=4, seed=0,
            codec=executor.codec.spec,
        ),
        executor=executor,
    )
    return server.run()


def _trace(result):
    """The full per-round trace — including the fault layer's drop map —
    plus the final accuracies: what must be engine-invariant."""
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.dropped.items())),
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


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        a = FaultPlan(seed=3, dropout_rate=0.3, straggler_rate=0.3, corrupt_rate=0.3)
        b = FaultPlan(seed=3, dropout_rate=0.3, straggler_rate=0.3, corrupt_rate=0.3)
        grid = [(c, r) for c in range(20) for r in range(10)]
        assert [a.fault_for(c, r) for c, r in grid] == [
            b.fault_for(c, r) for c, r in grid
        ]

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, dropout_rate=0.5)
        b = FaultPlan(seed=2, dropout_rate=0.5)
        grid = [(c, r) for c in range(30) for r in range(10)]
        assert [a.fault_for(c, r) for c, r in grid] != [
            b.fault_for(c, r) for c, r in grid
        ]

    def test_rate_edges(self):
        none = FaultPlan()
        assert all(none.fault_for(c, r) is None for c in range(10) for r in range(5))
        all_drop = FaultPlan(dropout_rate=1.0)
        assert all(
            all_drop.fault_for(c, r).kind == "dropout"
            for c in range(10) for r in range(5)
        )

    def test_explicit_event_overrides_rates(self):
        plan = FaultPlan(
            dropout_rate=1.0,
            events=(FaultEvent("corrupt", round_index=2, client_id=5),),
        )
        assert plan.fault_for(5, 2).kind == "corrupt"
        assert plan.fault_for(5, 1).kind == "dropout"

    def test_crash_victim_is_deterministic_and_sampled(self):
        plan = FaultPlan(seed=11, crash_rounds=(1, 3))
        candidates = [4, 9, 2, 7]
        victim = plan.crash_victim(1, candidates)
        assert victim in candidates
        assert victim == plan.crash_victim(1, list(reversed(candidates)))
        assert plan.crash_victim(0, candidates) is None
        assert plan.crash_victim(1, []) is None

    def test_explicit_crash_event_names_its_victim(self):
        plan = FaultPlan(events=(FaultEvent("crash", round_index=0, client_id=3),))
        assert plan.crash_victim(0, [1, 2, 3]) == 3
        assert plan.crash_victim(0, [1, 2]) is None  # victim not selected
        assert plan.crash_victim(1, [1, 2, 3]) is None

    def test_actions_split_cooperative_straggler_drops(self):
        plan = FaultPlan(seed=0, straggler_rate=1.0, straggler_delay=0.5)
        over = plan.actions_for_round([1, 2], 0, deadline=0.1)
        assert over.skipped == {1: "straggler", 2: "straggler"}
        assert over.injected == {}
        assert over.straggler_seconds == pytest.approx(1.0)
        under = plan.actions_for_round([1, 2], 0, deadline=10.0)
        assert under.skipped == {}
        assert sorted(under.injected) == [1, 2]
        no_deadline = plan.actions_for_round([1, 2], 0, deadline=None)
        assert sorted(no_deadline.injected) == [1, 2]

    def test_crash_victim_excludes_skipped_clients(self):
        plan = FaultPlan(
            dropout_rate=1.0,
            events=(FaultEvent("crash", round_index=0, client_id=1),),
        )
        actions = plan.actions_for_round([1, 2], 0, deadline=None)
        # Client 1 dropped out before dispatch, so its worker cannot crash.
        assert actions.skipped == {1: "dropout", 2: "dropout"}
        assert actions.injected == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(dropout_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(straggler_delay=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(crash_rounds=(-1,))
        with pytest.raises(ValueError):
            FaultEvent("meteor", 0, 0)
        with pytest.raises(ValueError):
            FaultEvent("straggler", 0, 0, delay_seconds=-0.1)


class TestMakeFaultPlan:
    def test_parses_full_spec(self):
        plan = make_fault_plan(
            "dropout=0.1,straggler=0.25:0.05,corrupt=0.05,crash=2+5,seed=7"
        )
        assert plan == FaultPlan(
            seed=7, dropout_rate=0.1, straggler_rate=0.25,
            straggler_delay=0.05, corrupt_rate=0.05, crash_rounds=(2, 5),
        )

    def test_straggler_rate_without_delay_uses_default(self):
        plan = make_fault_plan("straggler=0.5")
        assert plan.straggler_rate == 0.5
        assert plan.straggler_delay > 0

    def test_passthrough(self):
        assert make_fault_plan(None) is None
        plan = FaultPlan(seed=1)
        assert make_fault_plan(plan) is plan

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            make_fault_plan("meteor=0.1")
        with pytest.raises(ValueError):
            make_fault_plan("dropout=lots")
        with pytest.raises(ValueError):
            make_fault_plan("dropout")
        with pytest.raises(TypeError):
            make_fault_plan(7)
        with pytest.raises(TypeError):
            make_fault_plan("   ")


class TestCorruption:
    def test_poison_is_detected(self):
        state = {"w": np.ones((3, 3)), "b": np.zeros(3)}
        assert not state_is_corrupt(state)
        assert state_is_corrupt(poison_state(state))

    def test_poison_does_not_mutate_the_original(self):
        state = {"w": np.ones(4)}
        poison_state(state)
        assert np.isfinite(state["w"]).all()


class TestChaosInvariance:
    """Acceptance criteria: the seeded chaos plan traces bit-identically
    across serial, parallel+pipe, and parallel+shm, completes within the
    configured deadline, and leaves zero shared-memory segments behind."""

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_chaos_trace_engine_and_transport_invariant(self, codec):
        serial = run_once(
            SerialExecutor(codec=codec, faults=CHAOS_PLAN, deadline=30.0)
        )
        # The plan really fired: every kind shows up in the trace.
        reasons = {
            reason
            for record in serial.history.records
            for reason in record.dropped.values()
        }
        assert "crash" in reasons
        assert serial.timing.dropped_clients > 0
        assert serial.timing.straggler_seconds > 0
        transports = ["pipe"] + (["shm"] if shm_supported() else [])
        for transport in transports:
            with ParallelExecutor(
                num_workers=2, codec=codec, transport=transport,
                faults=CHAOS_PLAN, deadline=30.0,
            ) as executor:
                parallel = run_once(executor)
                assert parallel.timing.rebuilt_workers >= 1
            assert _trace(parallel) == _trace(serial), (
                f"{transport}/{codec} chaos trace diverged from serial"
            )
            for key in serial.final_state:
                np.testing.assert_array_equal(
                    serial.final_state[key], parallel.final_state[key]
                )
            assert _stray_segments() == []

    def test_chaos_with_scratch_heavy_strategy(self):
        """A crash round must not fork per-client caches: the rebuilt slot
        starts with an empty scratch and recomputes PARDON's
        style-transfer cache, so the trace still matches serial."""
        plan = FaultPlan(seed=5, crash_rounds=(1,), dropout_rate=0.1)
        serial = run_once(
            SerialExecutor(faults=plan), strategy=PardonStrategy(local_config=FAST)
        )
        with ParallelExecutor(num_workers=2, faults=plan) as executor:
            parallel = run_once(executor, strategy=PardonStrategy(local_config=FAST))
        assert _trace(parallel) == _trace(serial)
        for key in serial.final_state:
            np.testing.assert_array_equal(
                serial.final_state[key], parallel.final_state[key]
            )

    def test_respawn_forks_safely_under_a_running_evaluation(self):
        """The crash -> respawn path forks a worker while the server's
        evaluation thread may be inside BLAS.  The eval set is large enough
        that round 0's evaluation is still running when round 1's victim
        dies; a child wedged on an inherited lock would turn into
        ``deadline`` drops and a different trace."""
        held_out = SUITE.datasets[2]
        big = LabeledDataset(
            np.tile(held_out.images, (256, 1, 1, 1)),
            np.tile(held_out.labels, 256),
            np.tile(held_out.domain_ids, 256),
        )
        plan = FaultPlan(seed=5, crash_rounds=(1,))
        serial = run_once(
            SerialExecutor(faults=plan, deadline=30.0), eval_sets={"test": big}
        )
        assert "crash" in {
            reason
            for record in serial.history.records
            for reason in record.dropped.values()
        }
        for attempt in range(25):
            with ParallelExecutor(
                num_workers=2, faults=plan, deadline=30.0
            ) as executor:
                parallel = run_once(executor, eval_sets={"test": big})
                assert parallel.timing.rebuilt_workers >= 1
            assert _trace(parallel) == _trace(serial), f"attempt {attempt}"

    def test_fault_free_plan_changes_nothing(self):
        """An empty plan must not perturb the trace (the fault layer's
        bookkeeping is observable only through faults)."""
        plain = run_once(SerialExecutor())
        chaosless = run_once(SerialExecutor(faults=FaultPlan()))
        assert _trace(plain) == _trace(chaosless)

    def test_cooperative_straggler_drop_is_engine_invariant(self):
        """Stragglers injected past the deadline drop identically (and
        up front) on every engine — no wall-clock races in the trace."""
        plan = FaultPlan(seed=2, straggler_rate=0.5, straggler_delay=5.0)
        serial = run_once(SerialExecutor(faults=plan, deadline=0.5))
        reasons = {
            reason
            for record in serial.history.records
            for reason in record.dropped.values()
        }
        assert reasons == {"straggler"}
        with ParallelExecutor(num_workers=2, faults=plan, deadline=0.5) as ex:
            parallel = run_once(ex)
        assert _trace(parallel) == _trace(serial)


class TestPartialAggregation:
    """Satellite: for random (participation, dropout-rate, deadline)
    tuples, the aggregated state equals the reference computed over
    exactly the surviving client set."""

    @settings(max_examples=10, deadline=None)
    @given(
        participation=st.sampled_from([0.3, 0.5, 1.0, 2, 5]),
        dropout=st.floats(0.0, 0.9),
        straggler=st.floats(0.0, 0.8),
        plan_seed=st.integers(0, 2**31 - 1),
        deadline=st.sampled_from([None, 0.001, 30.0]),
    )
    def test_aggregate_covers_exactly_the_survivors(
        self, participation, dropout, straggler, plan_seed, deadline
    ):
        plan = FaultPlan(
            seed=plan_seed, dropout_rate=dropout,
            straggler_rate=straggler, straggler_delay=0.005,
            corrupt_rate=0.2,
        )
        strategy = FedAvgStrategy(FAST)
        clients = make_clients()
        by_id = {client.client_id: client for client in clients}
        model = _model()
        init_state = {k: v.copy() for k, v in model.state_dict().items()}
        server = FederatedServer(
            strategy=strategy,
            clients=clients,
            model=model,
            eval_sets={},
            config=FederatedConfig(
                num_rounds=2, clients_per_round=participation, seed=0,
                eval_every=10,
            ),
            executor=SerialExecutor(faults=plan, deadline=deadline),
        )
        result = server.run()
        # Replay: recompute each surviving update independently and
        # aggregate over exactly that set.
        tree = SeedTree(0).child("server", strategy.name)
        replay_model = _model()
        state = init_state
        for record in result.history.records:
            updates = []
            for client_id in record.participants:
                if client_id in record.dropped:
                    continue
                replay_model.load_state_dict(state)
                update = strategy.local_update(
                    by_id[client_id],
                    replay_model,
                    record.round_index,
                    np.random.default_rng(
                        tree.seed(
                            "client", client_id, "round", record.round_index
                        )
                    ),
                )
                updates.append(update)
            state = strategy.aggregate(state, updates, record.round_index)
        for key in state:
            np.testing.assert_array_equal(state[key], result.final_state[key])


class TestDeadline:
    def _run_one_round(self, executor, clients, round_index=0, seeds=None):
        model = _model()
        state = model.state_dict()
        seeds = seeds or _round_seeds(clients, rounds=round_index + 1)[round_index]
        return executor.run_round(
            FedAvgStrategy(FAST), model, state, clients, round_index, seeds
        )

    def test_hung_worker_is_dropped_at_the_deadline(self):
        """The latent-bug fix, graceful half: a hung worker no longer
        blocks collection forever — the round closes at the deadline with
        the survivors, and the straggler is absorbed into the next round."""
        clients = make_clients()[:4]
        # Client 3 hangs well past the deadline; with 2 workers it is the
        # last task on its slot, so only it misses the round.
        plan = FaultPlan(
            events=(FaultEvent("hang", 0, 3, delay_seconds=2.0),)
        )
        seeds = _round_seeds(clients, rounds=2)
        with ParallelExecutor(num_workers=2, faults=plan, deadline=0.75) as ex:
            start = time.perf_counter()
            updates = self._run_one_round(ex, clients, 0, seeds[0])
            elapsed = time.perf_counter() - start
            assert [u.client_id for u in updates] == [0, 1, 2]
            assert ex.last_round.dropped == {3: "deadline"}
            # Closed at the deadline, not at the straggler's convenience.
            assert elapsed < 1.9
            # The absorbed straggler poisons nothing: the next round
            # re-registers client 3 and collects everyone.
            model = _model()
            updates = ex.run_round(
                FedAvgStrategy(FAST), model, model.state_dict(), clients,
                1, seeds[1],
            )
            assert [u.client_id for u in updates] == [0, 1, 2, 3]
            assert ex.last_round.dropped == {}

    def test_round_timeout_error_when_nothing_arrives(self):
        """The latent-bug fix, typed half: a deadline that expires with
        zero updates raises RoundTimeoutError naming the offenders — and
        close() kills the still-wedged slots instead of inheriting the
        hang as an unbounded join."""
        clients = make_clients()[:4]
        plan = FaultPlan(
            events=tuple(
                FaultEvent("hang", 0, c.client_id, delay_seconds=5.0)
                for c in clients
            )
        )
        ex = ParallelExecutor(num_workers=2, faults=plan, deadline=0.5)
        try:
            with pytest.raises(RoundTimeoutError) as excinfo:
                self._run_one_round(ex, clients)
            assert sorted(excinfo.value.client_ids) == [0, 1, 2, 3]
            assert excinfo.value.round_index == 0
        finally:
            start = time.perf_counter()
            ex.close()
            closed_in = time.perf_counter() - start
        # Each slot still holds ~5s of absorbed sleeps; a joining close
        # would take ~10s.
        assert closed_in < 2.0
        assert _stray_segments() == []

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            SerialExecutor(deadline=0.0)
        with pytest.raises(ValueError):
            ParallelExecutor(num_workers=2, deadline=-1.0)


@needs_shm
class TestCrashLeaks:
    """Satellite: a worker killed mid-round under the shm transport must
    not strand segments or trip the multiprocessing resource tracker."""

    def test_crash_round_leaves_no_segments(self):
        plan = FaultPlan(seed=5, crash_rounds=(0,))
        executor = ParallelExecutor(num_workers=2, transport="shm", faults=plan)
        try:
            result = run_once(executor, rounds=2)
            assert result.timing.rebuilt_workers >= 1
            assert _stray_segments() == []
        finally:
            executor.close()
        assert _stray_segments() == []

    def test_no_resource_tracker_warnings_in_subprocess(self):
        """Run a crash-heavy shm chaos run in a clean interpreter and
        assert the tracker stays silent through interpreter exit (the
        in-process assertion above cannot see exit-time warnings)."""
        repo = Path(__file__).resolve().parent.parent
        script = (
            "import os\n"
            "import numpy as np\n"
            "from repro.baselines import FedAvgStrategy\n"
            "from repro.data import synthetic_pacs, partition_clients\n"
            "from repro.fl import (Client, FaultPlan, FederatedConfig,\n"
            "    FederatedServer, LocalTrainingConfig, ParallelExecutor)\n"
            "from repro.fl.transport import SHM_SEGMENT_PREFIX\n"
            "from repro.nn import build_mlp_model\n"
            "suite = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)\n"
            "part = partition_clients(suite, [0, 1], 8, 0.2,\n"
            "    np.random.default_rng(0))\n"
            "clients = [Client(i, d) for i, d in\n"
            "    enumerate(part.client_datasets)]\n"
            "plan = FaultPlan(seed=5, crash_rounds=(0, 1))\n"
            "executor = ParallelExecutor(num_workers=2, transport='shm',\n"
            "    faults=plan)\n"
            "server = FederatedServer(\n"
            "    strategy=FedAvgStrategy(LocalTrainingConfig(batch_size=8)),\n"
            "    clients=clients,\n"
            "    model=build_mlp_model(suite.image_shape, suite.num_classes,\n"
            "        rng=np.random.default_rng(0)),\n"
            "    eval_sets={},\n"
            "    config=FederatedConfig(num_rounds=2, clients_per_round=4,\n"
            "        seed=0, eval_every=10),\n"
            "    executor=executor,\n"
            ")\n"
            "result = server.run()\n"
            "assert result.timing.rebuilt_workers >= 1\n"
            "executor.close()\n"
            "strays = [n for n in os.listdir('/dev/shm')\n"
            "    if n.startswith(SHM_SEGMENT_PREFIX)]\n"
            "assert strays == [], strays\n"
            "print('CLEAN')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=repo, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestCrashRecovery:
    def test_co_resident_tasks_rerun_after_crash(self):
        """With 2 workers and 4 clients, the crash victim's slot hosts a
        second task; only the victim drops, the sibling re-runs and its
        update matches the serial engine bit-for-bit."""
        clients = make_clients()[:4]
        seeds = _round_seeds(clients)[0]
        plan = FaultPlan(events=(FaultEvent("crash", 0, 0),))
        model = _model()
        state = model.state_dict()
        serial = SerialExecutor(faults=plan)
        serial_updates = serial.run_round(
            FedAvgStrategy(FAST), model, state, make_clients()[:4], 0, seeds
        )
        with ParallelExecutor(num_workers=2, faults=plan) as ex:
            updates = ex.run_round(
                FedAvgStrategy(FAST), model, state, clients, 0, seeds
            )
            assert ex.last_round.dropped == {0: "crash"}
            assert ex.last_round.rebuilt_workers == 1
        # Client 2 shares slot 0 with the victim: its task died with the
        # worker and re-ran on the rebuilt slot.
        assert [u.client_id for u in updates] == [1, 2, 3]
        assert [u.client_id for u in serial_updates] == [1, 2, 3]
        for mine, theirs in zip(updates, serial_updates):
            assert mine.loss == theirs.loss
            for key in theirs.state:
                np.testing.assert_array_equal(mine.state[key], theirs.state[key])

    def test_unplanned_worker_death_is_survived(self):
        """Crash recovery is always on: a worker lost without any fault
        plan re-runs its tasks instead of killing the run."""
        clients = make_clients()[:4]
        seeds = _round_seeds(clients, rounds=2)
        model = _model()
        state = model.state_dict()
        with ParallelExecutor(num_workers=2) as ex:
            ex.run_round(FedAvgStrategy(FAST), model, state, clients, 0, seeds[0])
            # Kill one worker process behind the executor's back.
            victim_pool = ex._pools[0]
            pid = next(iter(victim_pool._processes))
            os.kill(pid, 9)
            updates = ex.run_round(
                FedAvgStrategy(FAST), model, state, clients, 1, seeds[1]
            )
            assert [u.client_id for u in updates] == [0, 1, 2, 3]
            assert ex.last_round.rebuilt_workers >= 1
            assert ex.last_round.dropped == {}


class TestTimingAndHistory:
    def test_fault_counters_reach_the_timing_report(self):
        result = run_once(SerialExecutor(faults=CHAOS_PLAN, deadline=30.0))
        dropped_total = sum(
            len(record.dropped) for record in result.history.records
        )
        assert result.timing.dropped_clients == dropped_total > 0
        assert result.timing.straggler_seconds > 0
        assert result.timing.rebuilt_workers == 0  # serial has no workers

    def test_serial_and_pool_records_agree_under_chaos_and_krum(self):
        """The driver writes the same membership into the record on every
        engine: who was selected, who dropped and why, who was accepted."""

        def krum():
            strategy = FedAvgStrategy(FAST)
            strategy.aggregator = make_aggregator("krum")
            return strategy

        faults = "crash=1,dropout=0.2"
        serial = run_once(SerialExecutor(faults=faults), strategy=krum())
        with ParallelExecutor(num_workers=2, faults=faults) as executor:
            pooled = run_once(executor, strategy=krum())

        def membership(result):
            return [
                (r.participants, r.dropped, r.accepted, r.rejected_uploads)
                for r in result.history.records
            ]

        assert membership(serial) == membership(pooled)
        reasons = {
            reason for r in serial.history.records for reason in r.dropped.values()
        }
        assert reasons == {"crash", "dropout"}
        assert serial.timing.rebuilt_workers == 0
        assert pooled.timing.rebuilt_workers >= 1

    def test_survivors_property(self):
        result = run_once(SerialExecutor(faults=CHAOS_PLAN, deadline=30.0))
        for record in result.history.records:
            assert set(record.survivors) == (
                set(record.participants) - set(record.dropped)
            )

    def test_fault_free_round_records_empty_drop_map(self):
        result = run_once(SerialExecutor())
        assert all(record.dropped == {} for record in result.history.records)
        assert result.timing.dropped_clients == 0

    def test_cli_timing_row_has_fault_columns(self):
        from repro.cli import _TIMING_HEADER, _timing_row

        result = run_once(SerialExecutor(faults=CHAOS_PLAN, deadline=30.0))
        row = _timing_row("chaos", result.timing)
        assert len(row) == len(_TIMING_HEADER)
        assert "dropped" in _TIMING_HEADER
        assert row[_TIMING_HEADER.index("dropped")] == str(
            result.timing.dropped_clients
        )


class TestConfigAndCLI:
    def test_faults_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg",
             "--faults", "dropout=0.1,crash=2", "--deadline", "1.5"]
        )
        assert args.faults == "dropout=0.1,crash=2"
        assert args.deadline == 1.5

    def test_flags_default_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg"]
        )
        assert args.faults is None
        assert args.deadline is None

    def test_bad_faults_spec_is_a_usage_error(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lodo", "--suite", "pacs", "--method", "fedavg",
                 "--faults", "meteor=0.1"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lodo", "--suite", "pacs", "--method", "fedavg",
                 "--deadline", "-3"]
            )

    def test_setting_threads_faults_into_executor_and_config(self):
        from repro.eval import ExperimentSetting

        setting = ExperimentSetting(faults="dropout=0.5,seed=3", deadline=2.0)
        executor = setting.make_executor()
        assert executor.fault_plan == make_fault_plan("dropout=0.5,seed=3")
        assert executor.deadline_policy == FixedDeadline(2.0)

    def test_make_executor_threads_faults_for_both_kinds(self):
        serial = make_executor(faults="dropout=0.2", deadline=1.0)
        assert serial.fault_plan.dropout_rate == 0.2
        parallel = make_executor(workers=2, faults="dropout=0.2", deadline=1.0)
        try:
            assert parallel.fault_plan.dropout_rate == 0.2
            assert parallel.deadline_policy == FixedDeadline(1.0)
        finally:
            parallel.close()

    def test_config_rejects_bad_specs(self):
        # The setting states faults / deadline once and routes them to the
        # engine, whose constructor rejects a bad spec before any run.
        from repro.eval import ExperimentSetting

        with pytest.raises(ValueError):
            ExperimentSetting(faults="meteor=1").make_executor()
        with pytest.raises(ValueError):
            ExperimentSetting(deadline=-1.0).make_executor()

    def test_server_default_executor_carries_config_faults(self):
        # The plan lives on the engine alone; the server's own default
        # engine is plain, so an all-dropout run states it on the engine.
        server = FederatedServer(
            strategy=FedAvgStrategy(FAST),
            clients=make_clients(),
            model=_model(),
            eval_sets={},
            config=FederatedConfig(num_rounds=1, clients_per_round=2),
            executor=SerialExecutor(faults="dropout=1.0"),
        )
        result = server.run()
        record = result.history.records[0]
        assert set(record.dropped.values()) == {"dropout"}
        assert record.survivors == []
