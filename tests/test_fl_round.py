"""Tests for the round driver against a fake lane set (`repro.fl.round`).

No processes, no sockets: :class:`ScriptedLanes` implements the lane
interface over in-thread :class:`WorkerRuntime` endpoints and lets each
test decide *when* every upload arrives, which lane dies, and what
``respawn`` answers.  What is pinned here is the lifecycle itself —
arrival-order invariance, the close rule (all answered | quorum |
deadline), loss recovery, the typed timeout, and the epilogue's
``finally`` — independent of any real mechanism; the engine suites keep
covering the mechanisms.

A wire lane packs a home's fault-free clients into one task.  A test that
needs one task per client gives every participant its own home; one that
needs several tasks queued on one home gives every client a zero-delay
straggler event (:func:`one_task_each`), because faulted clients ride
alone and a zero delay changes no bit.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedAvgStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LazyPopulation,
    LocalTrainingConfig,
    SerialExecutor,
    make_transport,
)
from repro.fl.executor import WorkerRuntime
from repro.fl.faults import FaultEvent, FaultPlan, RoundTimeoutError
from repro.fl.round import LOST, Executor
from repro.nn import build_mlp_model
from repro.fl.net.protocol import UPLOAD, decode_message, encode_message
from repro.fl.wire import decode_upload
from repro.nn.serialize import encode_payload
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)


def make_clients(n_clients=6, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _model():
    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
    )


class ScriptedLanes(Executor):
    """``homes`` in-thread endpoints behind the real lane interface.

    ``script(lanes, pending)`` is called by every ``poll`` with the pending
    task ids (dispatch order) and returns what happens next: a list of task
    ids to train and hand back *in that order*, ``("lost", home)`` to kill
    a lane, or ``[]`` to let the deadline expire.  ``respawns`` is what
    ``respawn`` answers.  Every lane call is appended to ``log``.
    """

    def __init__(self, homes=2, script=None, respawns=True, **kwargs):
        super().__init__(**kwargs)
        self.transport = make_transport("pipe")
        self.homes = homes
        self.script = script or (lambda lanes, pending: pending)
        self.respawns = respawns
        self.log = []
        self.pending = {}
        self._init = None
        self.endpoints = {}
        self.round = -1

    def open(self, model):
        self.round += 1
        if self._init is None:
            self._init = (encode_payload(model), self.codec.spec, "pipe")
            self.endpoints = {h: WorkerRuntime(*self._init) for h in range(self.homes)}

    def home(self, client_id):
        return client_id % self.homes

    def send_register(self, home, blob):
        self.log.append(("register", home, self.endpoints[home].register(blob)))

    def send_broadcast(self, home, strategy_blob, handle, round_index):
        self.log.append(("broadcast", home, len(handle)))
        self.endpoints[home].broadcast(strategy_blob, handle, round_index)

    def submit(self, task_id, home, task):
        self.log.append(("submit", home, task_id, task))
        self.pending[task_id] = (home, task)

    def poll(self, timeout):
        action = self.script(self, sorted(self.pending))
        if isinstance(action, tuple):
            _, home = action
            return [(min(t for t, (h, _) in self.pending.items() if h == home), LOST)]
        if not action:
            assert timeout is not None, "stalled with no deadline to expire"
        events = []
        for task_id in action:
            home, task = self.pending.pop(task_id)
            meta, buffers = self.endpoints[home].run_task(task)
            events.append((task_id, self.upload(task_id, meta, buffers)))
        return events

    def upload(self, task_id, meta, buffers):
        """The upload message as an agent's lane would hand it on: framed
        and parsed, its buffers read-only views of the one payload."""
        return decode_message(
            encode_message(UPLOAD, {"task": task_id, **meta}, *buffers)
        )

    def abandon(self, task_id):
        self.log.append(("abandon", task_id))
        del self.pending[task_id]

    def respawn(self, home):
        self.log.append(("respawn", home))
        self.pending = {t: e for t, e in self.pending.items() if e[0] != home}
        if self.respawns:
            self.endpoints[home] = WorkerRuntime(*self._init)
        return self.respawns


def one_task_each(rounds=2, n_clients=6):
    """A fault plan whose only events are zero-delay stragglers on every
    client: each rides alone in its own task, and nothing else moves."""
    return FaultPlan(events=tuple(
        FaultEvent("straggler", round_index, client_id)
        for round_index in range(rounds)
        for client_id in range(n_clients)
    ))


def drive(engine, rounds=2, sample=None, clients=None):
    """Run ``rounds`` rounds through ``engine`` with streaming aggregation;
    returns per round ``(update fields, finalize() state)``."""
    clients = clients or make_clients()
    strategy = FedAvgStrategy(FAST)
    model = _model()
    state = model.state_dict()
    tree = SeedTree(0).child("server", "test")
    trace = []
    for round_index in range(rounds):
        participants = [clients[i] for i in (sample or range(len(clients)))]
        seeds = [
            tree.seed("client", c.client_id, "round", round_index)
            for c in participants
        ]
        stream = strategy.begin_stream(state)
        updates = engine.run_round(
            strategy, model, state, participants, round_index, seeds, stream=stream
        )
        assert stream.count == len(updates)
        state = strategy.aggregate(state, updates, round_index, stream=stream)
        trace.append((
            [(u.client_id, u.num_samples, u.loss, u.state) for u in updates],
            {key: value.copy() for key, value in state.items()},
        ))
    return trace


def assert_same_trace(reference, candidate):
    assert len(reference) == len(candidate)
    for (ref_updates, ref_state), (updates, state) in zip(reference, candidate):
        assert updates == ref_updates
        for key in ref_state:
            np.testing.assert_array_equal(ref_state[key], state[key])


class TestArrivalOrderInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        homes=st.sampled_from([1, 2, 3, 6]),
        codec=st.sampled_from(["identity", "delta"]),
    )
    def test_any_arrival_order_any_grouping_equals_serial(self, seed, homes, codec):
        """Whatever order uploads arrive in, however many a poll returns,
        and however many clients share a task (all six on one home down to
        one per home): same updates, same ``finalize()`` bits, same
        bytes."""
        rng = random.Random(seed)

        def shuffled(lanes, pending):
            batch = rng.sample(pending, rng.randint(1, len(pending)))
            return batch

        serial = drive(SerialExecutor(codec=codec))
        in_order = ScriptedLanes(homes=homes, codec=codec)
        any_order = ScriptedLanes(homes=homes, script=shuffled, codec=codec)
        assert_same_trace(serial, drive(in_order))
        assert_same_trace(serial, drive(any_order))
        assert any_order.wire_stats() == in_order.wire_stats()
        assert any_order.wire_stats().bytes_up > 0
        for log in (in_order.log, any_order.log):
            submits = [entry for entry in log if entry[0] == "submit"]
            # Each home's clients share one task, every round.
            assert len(submits) == 2 * homes


class TestCloseRule:
    def test_quorum_closes_at_first_k_accepted(self):
        def reversed_one_at_a_time(lanes, pending):
            return pending[-1:]

        lanes = ScriptedLanes(
            homes=6, script=reversed_one_at_a_time, quorum=2, deadline=60.0
        )
        (updates, _), = drive(lanes, rounds=1)
        record = lanes.last_round
        # One home per client, dispatched home by home, so the last two
        # tasks — the first two to arrive — are clients 5 and 4; the
        # survivors come back in sampling order.
        assert [u[0] for u in updates] == [4, 5]
        assert record.dropped == {0: "quorum", 1: "quorum", 2: "quorum", 3: "quorum"}
        assert record.accepted == [4, 5]
        assert record.early_closed
        assert 0.0 < record.early_close_seconds <= 60.0
        assert [e for e in lanes.log if e[0] == "abandon"] == [
            ("abandon", task_id) for task_id in range(4)
        ]
        assert lanes.pending == {}
        # The dropped clients re-register before their next task.
        assert sorted(lanes._resident) == [4, 5]

    def test_deadline_with_nothing_arrived_raises_naming_the_clients(self):
        lanes = ScriptedLanes(script=lambda lanes, pending: [], deadline=60.0)
        with pytest.raises(RoundTimeoutError) as excinfo:
            drive(lanes, rounds=1)
        assert sorted(excinfo.value.client_ids) == [0, 1, 2, 3, 4, 5]
        assert excinfo.value.quorum is None
        assert "no updates" in str(excinfo.value)
        assert set(lanes.last_round.dropped.values()) == {"deadline"}

    def test_deadline_below_quorum_raises_the_quorum_form(self):
        polls = iter([[0], []])
        lanes = ScriptedLanes(
            homes=6, script=lambda lanes, pending: next(polls),
            deadline=60.0, quorum=3,
        )
        with pytest.raises(RoundTimeoutError) as excinfo:
            drive(lanes, rounds=1)
        assert excinfo.value.quorum == 3
        assert excinfo.value.accepted == (0,)
        assert sorted(excinfo.value.client_ids) == [1, 2, 3, 4, 5]
        assert "below quorum 3" in str(excinfo.value)

    def test_deadline_with_some_arrived_closes_over_them(self):
        polls = iter([[1, 0], []])
        lanes = ScriptedLanes(
            homes=6, script=lambda lanes, pending: next(polls), deadline=60.0
        )
        (updates, _), = drive(lanes, rounds=1)
        assert [u[0] for u in updates] == [0, 1]  # tasks 0 and 1, homes 0 and 1
        assert set(lanes.last_round.dropped.values()) == {"deadline"}
        assert not lanes.last_round.early_closed


class TestNonFiniteUploads:
    def test_a_nan_upload_is_a_corrupt_drop_without_a_fault_plan(self):
        """The finite-value check runs on every upload, fault plan or not:
        client 2's first tensor arrives as NaN bytes and is dropped as
        ``corrupt``; the round closes over the other five."""

        class Poisoning(ScriptedLanes):
            def upload(self, task_id, meta, buffers):
                if task_id == 2:  # one home per client: client 2's task
                    buffers = list(buffers)  # [floats, first tensor, ...]
                    buffers[1] = np.full(buffers[1].nbytes // 8, np.nan).view(np.uint8)
                return super().upload(task_id, meta, buffers)

        lanes = Poisoning(homes=6)
        (updates, state), = drive(lanes, rounds=1)
        assert lanes.fault_plan is None
        assert lanes.last_round.dropped == {2: "corrupt"}
        assert [update[0] for update in updates] == [0, 1, 3, 4, 5]
        assert all(np.isfinite(value).all() for value in state.values())


class TestLostLane:
    def _kill_home_zero(self, times, in_round=0):
        """Lane 0 dies ``times`` times in round ``in_round``, each time with
        its first pending task executing."""
        kills = iter(range(times))

        def script(lanes, pending):
            busy = any(lanes.pending[t][0] == 0 for t in pending)
            if lanes.round == in_round and busy and next(kills, None) is not None:
                return ("lost", 0)
            return pending

        return script

    def test_respawn_reruns_with_the_original_seeds(self):
        reference = ScriptedLanes(faults=one_task_each(), codec="delta")
        expected = drive(reference, rounds=2)
        lanes = ScriptedLanes(
            script=self._kill_home_zero(1, in_round=1), faults=one_task_each(),
            codec="delta",
        )
        assert_same_trace(expected, drive(lanes, rounds=2))
        # Round 1: everything of home 0 was lost once and re-ran.
        respawn_at = lanes.log.index(("respawn", 0))
        replay = lanes.log[respawn_at + 1 : respawn_at + 6]
        assert [entry[:2] for entry in replay] == [
            ("register", 0), ("broadcast", 0),
            ("submit", 0), ("submit", 0), ("submit", 0),
        ]
        assert replay[0][2] == 3  # clients 0, 2, 4 re-registered
        first = [e for e in lanes.log[:respawn_at] if e[:2] == ("submit", 0)][-3:]
        for before, after in zip(first, replay[2:]):
            assert after[2] == before[2]  # same task id
            assert after[3][:3] == before[3][:3]  # same clients, round, seeds
        # The fresh endpoint has no reference chain, so it got a full frame
        # again (a delta frame would not have decoded there at all), where
        # the round's regular broadcast was a smaller delta.
        frames = [e[2] for e in lanes.log if e[0] == "broadcast"]
        assert min(frames[0], replay[1][2]) > frames[2]
        assert lanes.last_round.dropped == {}
        assert lanes.wire_stats().task_bytes > reference.wire_stats().task_bytes

    def test_group_killed_twice_is_dropped(self):
        lanes = ScriptedLanes(
            script=self._kill_home_zero(2), faults=one_task_each(rounds=1)
        )
        (updates, _), = drive(lanes, rounds=1)
        # Client 0 headed the slot both times it died; 2 and 4 were only
        # queued behind it and re-ran.
        assert lanes.last_round.dropped == {0: "crash"}
        assert lanes.last_round.rebuilt_workers == 2
        assert [u[0] for u in updates] == [1, 2, 3, 4, 5]

    def test_plan_victim_is_dropped_not_rerun(self):
        plan = FaultPlan(events=(FaultEvent("crash", 0, 2),))

        class Killing(ScriptedLanes):
            kills_crash_victims = True

        def script(lanes, pending):
            for task_id in pending:
                home, task = lanes.pending[task_id]
                if task[3] is not None and task[3].kind == "crash":
                    return ("lost", home)
            return pending

        lanes = Killing(script=script, faults=plan)
        (updates, _), = drive(lanes, rounds=1)
        assert lanes.last_round.dropped == {2: "crash"}
        assert [u[0] for u in updates] == [0, 1, 3, 4, 5]
        # A lane that cannot kill never sees the victim at all.
        gentle = ScriptedLanes(faults=plan)
        drive(gentle, rounds=1)
        assert gentle.last_round.dropped == {2: "crash"}
        assert all(e[3][3] is None for e in gentle.log if e[0] == "submit")

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_no_respawn_drops_disconnect_and_keeps_upload_chains(self, codec):
        """A lost lane leaves the other lane's in-flight delta uploads
        decodable: they diff against the round's broadcast, which no loss
        touches."""
        lanes = ScriptedLanes(
            script=self._kill_home_zero(1, in_round=1),
            respawns=False, codec=codec,
        )
        trace = drive(lanes, rounds=2)
        assert [u[0] for u in trace[1][0]] == [1, 3, 5]
        assert lanes.last_round.dropped == {
            0: "disconnect", 2: "disconnect", 4: "disconnect"
        }
        assert lanes.last_round.rebuilt_workers == 0
        assert sorted(lanes._resident) == [1, 3, 5]

    def test_every_lane_lost_raises_the_typed_timeout(self):
        def script(lanes, pending):
            return ("lost", lanes.pending[pending[0]][0])

        lanes = ScriptedLanes(script=script, respawns=False)
        with pytest.raises(RoundTimeoutError) as excinfo:
            drive(lanes, rounds=1)
        assert sorted(excinfo.value.client_ids) == [0, 1, 2, 3, 4, 5]


class TestEpilogue:
    def test_poll_failure_still_publishes_the_report_and_ends_the_round(self):
        ended = []

        def explode(lanes, pending):
            raise OSError("lane mechanism failed")

        lanes = ScriptedLanes(script=explode)
        lanes.transport.end_round = lambda: ended.append(True)
        with pytest.raises(OSError, match="lane mechanism"):
            drive(lanes, rounds=1)
        assert ended == [True]
        assert lanes.last_round is not None
        assert lanes.last_round.round_index == 0
        assert lanes.last_round.participants == [0, 1, 2, 3, 4, 5]
        assert lanes.last_round.bytes_down > 0  # registration + broadcast


class TestUploadsDiffAgainstTheBroadcast:
    def test_a_newcomers_first_upload_is_a_delta(self):
        """Under ``delta`` a newly registered client's first upload already
        diffs against the round's broadcast, and decodes to the state the
        identity codec delivers."""
        payloads = []

        class Capturing(ScriptedLanes):
            def poll(self, timeout):
                events = super().poll(timeout)
                for _, upload in events:
                    payloads.extend(
                        u.state for u in decode_upload(upload.meta, upload.buffers)
                    )
                return events

        def one_round(lanes):
            model = _model()
            clients = make_clients()
            return lanes.run_round(
                FedAvgStrategy(FAST), model, model.state_dict(), clients, 0,
                [1000 + client.client_id for client in clients],
            )

        expected = one_round(ScriptedLanes(codec="identity"))
        updates = one_round(Capturing(codec="delta"))
        assert [p.kind for p in payloads] == ["delta"] * len(expected)
        assert [u.client_id for u in updates] == [u.client_id for u in expected]
        for update, reference in zip(updates, expected):
            assert sorted(update.state) == sorted(reference.state)
            for key in reference.state:
                np.testing.assert_array_equal(update.state[key], reference.state[key])


class TestResidency:
    def test_a_rehomed_client_is_resident_only_at_its_new_home(self):
        """The lane layout shifts (a lost agent's clients re-home over the
        survivors) and fresh client objects arrive under the same ids: each
        id ends up on its current home's endpoint and nowhere else."""
        lanes = ScriptedLanes(homes=3)
        drive(lanes, rounds=1)
        lanes.home = lambda client_id: [0, 2][client_id % 2]
        drive(lanes, rounds=2, clients=make_clients())
        assert {
            home: sorted(endpoint.clients)
            for home, endpoint in lanes.endpoints.items()
        } == {0: [0, 2, 4], 1: [], 2: [1, 3, 5]}
        assert {cid: home for cid, (home, _) in lanes._resident.items()} == {
            cid: [0, 2][cid % 2] for cid in range(6)
        }

    def test_a_lazy_population_bounds_every_endpoint(self):
        """A lazy population releases each round's clients after it: the
        server forgets them at the next round close, and the evictions
        reach the endpoints with the round after, so no endpoint holds
        more than the last two rounds' participants."""
        suite_clients = make_clients()
        sampled = []

        class Recording(LazyPopulation):
            def sample(self, sampler, rng):
                participants = super().sample(sampler, rng)
                sampled.append({client.client_id for client in participants})
                return participants

        population = Recording(
            60,
            lambda client_id: Client(
                client_id, suite_clients[client_id % len(suite_clients)].dataset
            ),
        )
        lanes = ScriptedLanes(homes=2)
        FederatedServer(
            strategy=FedAvgStrategy(FAST),
            clients=population,
            model=_model(),
            eval_sets={"test": SUITE.datasets[2]},
            config=FederatedConfig(num_rounds=5, clients_per_round=6, seed=0),
            executor=lanes,
        ).run()
        assert len(sampled) == 5 and len(set().union(*sampled)) > 12
        assert set(lanes._resident) == sampled[-1]
        held = [set(endpoint.clients) for endpoint in lanes.endpoints.values()]
        assert all(held)
        assert set().union(*held) <= sampled[-1] | sampled[-2]
