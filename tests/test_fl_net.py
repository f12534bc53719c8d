"""Tests for cross-machine federation (`repro.fl.net`).

The acceptance bar: the loopback ``tcp`` transport and the
:class:`RemoteExecutor` produce traces *bit-identical* to the in-host
engines (serial, parallel+pipe, parallel+shm) under both lossless
codecs — including the seeded chaos plan and a Byzantine leg; frames
survive worst-case 1-byte fragmentation; the handshake rejects version
and spec mismatches; a mid-upload agent disconnect is a typed fault
(``"disconnect"``) that never wedges round close.
"""

import json
import logging
import multiprocessing
import os
import pickle
import socket
import struct
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy
from repro.core import PardonStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.fl import (
    Client,
    FaultEvent,
    FaultPlan,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    make_aggregator,
    make_executor,
    make_transport,
    resolve_transport,
    shm_supported,
)
from repro.fl.transport import transport_usage
from repro.fl.net import (
    FrameDecoder,
    FrameError,
    FrameStream,
    MAX_FRAME_BYTES,
    HandshakeError,
    RemoteExecutor,
    TcpHandle,
    TcpTransport,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.fl.executor import WorkerRuntime
from repro.fl.net import executor as net_executor
from repro.fl.net.agent import run_agent
from repro.fl.net.protocol import (
    BROADCAST,
    PROTOCOL_VERSION,
    HELLO,
    REGISTER,
    REGISTERED,
    REJECT,
    TASK,
    UPLOAD,
    WELCOME,
    decode_message,
    encode_message,
    evaluate_hello,
    hello_meta,
)
from repro.fl.net.serve import trace_dict
from repro.fl.net.transport import _BLOB_ID, _GET, parse_endpoint
from repro.nn import build_mlp_model

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)

#: Same seeded plan as the fault tests: dropouts + stragglers + corrupted
#: uploads + one crash round, all deterministic functions of the seed.
CHAOS_PLAN = FaultPlan(
    seed=7,
    dropout_rate=0.15,
    straggler_rate=0.25,
    straggler_delay=0.02,
    corrupt_rate=0.1,
    crash_rounds=(1,),
)


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _model(rng_seed=0):
    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(rng_seed)
    )


def run_once(executor, rounds=3, aggregator=None, strategy=None, clients=None):
    """One run on ``executor`` (which carries the codec, faults and
    deadline); ``aggregator`` is installed on the strategy (FedAvg unless
    given)."""
    if strategy is None:
        strategy = FedAvgStrategy(FAST)
    if aggregator is not None:
        strategy.aggregator = make_aggregator(aggregator)
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients() if clients is None else clients,
        model=_model(),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=4, seed=0,
            codec=executor.codec.spec,
        ),
        executor=executor,
    )
    return server.run()


def _trace(result):
    """Per-round trace including the drop map, plus final accuracies —
    what must stay invariant across every transport and engine."""
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.dropped.items())),
             tuple(sorted(r.eval_accuracy.items())))
            for r in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


def _assert_same(reference, candidate, label=""):
    assert _trace(candidate) == _trace(reference), (
        f"{label} trace diverged from the reference"
    )
    for key in reference.final_state:
        np.testing.assert_array_equal(
            reference.final_state[key], candidate.final_state[key]
        )


def _drop_reasons(result):
    return {
        reason
        for record in result.history.records
        for reason in record.dropped.values()
    }


@contextmanager
def thread_agents(remote, agents=2):
    """In-process thread agents for ``remote`` (the agent loop is the same
    code the process entrypoint runs); closes ``remote`` on exit."""
    threads = [
        threading.Thread(
            target=run_agent, args=(remote.address,),
            kwargs={"name": f"agent-{i}"}, daemon=True,
        )
        for i in range(agents)
    ]
    for thread in threads:
        thread.start()
    try:
        yield
    finally:
        remote.close()
        for thread in threads:
            thread.join(timeout=10)


def run_remote(remote, rounds=3, agents=2):
    """Drive ``remote`` with in-process thread agents."""
    with thread_agents(remote, agents):
        return run_once(remote, rounds=rounds)


# -- frames --------------------------------------------------------------------


class TestFrames:
    def test_one_byte_fragmentation_roundtrip(self):
        """Worst-case kernel delivery: one byte per feed, across several
        back-to-back frames (including an empty payload)."""
        payloads = [b"", b"x", os.urandom(257), b"tail"]
        wire = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i : i + 1]))
        assert out == payloads
        assert decoder.pending_bytes == 0

    def test_batched_feed_yields_all_frames(self):
        decoder = FrameDecoder()
        wire = encode_frame(b"a") + encode_frame(b"bb")
        assert decoder.feed(wire) == [b"a", b"bb"]

    def test_oversized_header_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="cap"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_recv_frame_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        a.sendall(encode_frame(b"hello")[:3])
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_recv_frame_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_recv_frame_rejects_pipelined_peer(self):
        a, b = socket.socketpair()
        a.sendall(encode_frame(b"one") + encode_frame(b"two"))
        with pytest.raises(FrameError, match="pipelined"):
            recv_frame(b)
        a.close()
        b.close()

    def test_frame_stream_tolerates_pipelined_peer(self):
        a, b = socket.socketpair()
        a.sendall(encode_frame(b"one") + encode_frame(b"two"))
        stream = FrameStream(b)
        assert stream.next_frame() == b"one"
        assert stream.buffered  # second frame already decoded
        assert stream.next_frame() == b"two"
        assert not stream.buffered
        a.close()
        assert stream.next_frame() is None
        b.close()


# -- handshake -----------------------------------------------------------------


class TestHandshake:
    def test_message_roundtrip(self):
        message = decode_message(
            encode_message(TASK, {"task": 3}, b"payload")
        )
        assert (message.kind, message.meta, message.blob) == (
            TASK, {"task": 3}, b"payload"
        )

    def test_version_mismatch_rejected(self):
        reason = evaluate_hello({"version": 0}, codec_spec="identity")
        assert reason is not None and "version" in reason
        # A version-1 task tuple carries a fifth (scratch-sync) field, a
        # version-2 welcome a compute spec, a version-3 agent neither
        # acknowledges registrations nor reads broadcast handles from meta,
        # and a version-4 agent encodes uploads against its previous upload
        # instead of the round's broadcast.
        assert PROTOCOL_VERSION == 5
        for version in (1, 2, 3, 4):
            reason = evaluate_hello({"version": version}, codec_spec="identity")
            assert reason is not None and "version" in reason

    def test_codec_pin_mismatch_rejected(self):
        meta = hello_meta(codec="fp16")
        reason = evaluate_hello(meta, codec_spec="identity")
        assert reason is not None and "codec" in reason

    def test_matching_pins_accepted(self):
        meta = hello_meta(name="a", codec="delta")
        assert evaluate_hello(meta, codec_spec="delta") is None

    def test_live_rejections_then_good_agent_joins(self):
        """A rejected agent (pin mismatch or wrong protocol version) must
        not poison the federation: the listener keeps accepting and a
        conforming agent completes the run."""
        remote = RemoteExecutor(num_agents=1)
        box = {}

        def serve():
            try:
                box["result"] = run_once(remote, rounds=1)
            except BaseException as exc:  # surfaced by the final assert
                box["error"] = exc

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        with pytest.raises(HandshakeError, match="codec"):
            run_agent(remote.address, codec="fp16")
        with socket.create_connection(remote.address, timeout=10) as sock:
            stream = FrameStream(sock)
            stream.send(encode_message(HELLO, {"version": 99, "name": "old"}))
            message = decode_message(stream.next_frame())
            assert message.kind == REJECT
            assert "version" in message.meta["reason"]
        good = threading.Thread(
            target=run_agent, args=(remote.address,), daemon=True
        )
        good.start()
        server.join(timeout=120)
        remote.close()
        good.join(timeout=10)
        assert "result" in box, box.get("error")


# -- the tcp transport (ParallelExecutor wire) ---------------------------------


class TestTcpTransport:
    def test_parse_endpoint_forms(self):
        assert parse_endpoint(None) == ("127.0.0.1", 0)
        assert parse_endpoint("9999") == ("127.0.0.1", 9999)
        assert parse_endpoint("0.0.0.0:80") == ("0.0.0.0", 80)
        with pytest.raises(ValueError):
            parse_endpoint("host:notaport")
        with pytest.raises(ValueError):
            parse_endpoint("host:70000")

    def test_spec_forms(self):
        assert TcpTransport().spec == "tcp"
        assert TcpTransport("127.0.0.1:0").spec == "tcp:127.0.0.1:0"
        assert isinstance(make_transport("tcp"), TcpTransport)

    def test_publish_fetch_roundtrip(self):
        server_side = TcpTransport()
        worker_side = TcpTransport()
        blob = os.urandom(4096)
        try:
            handle = server_side.publish(blob)
            assert isinstance(handle, TcpHandle)
            assert handle.length == len(blob)
            assert worker_side.fetch(handle) == blob
        finally:
            worker_side.close()
            server_side.close()

    def test_end_round_kills_zombie_fetch(self):
        """Round end clears the blob store, so a zombie fetching a dead
        round's broadcast fails exactly like attaching an unlinked shm
        segment: a ConnectionError in the zombie's own worker."""
        server_side = TcpTransport()
        worker_side = TcpTransport()
        try:
            handle = server_side.publish(b"x" * 64)
            server_side.end_round()
            with pytest.raises(ConnectionError):
                worker_side.fetch(handle)
        finally:
            worker_side.close()
            server_side.close()

    def test_fetch_rejects_foreign_handles(self):
        transport = TcpTransport()
        with pytest.raises(TypeError):
            transport.fetch(b"a pipe blob")

    def test_peer_frames_are_never_unpickled(self):
        """Anyone who can reach the blob server's port can send it a
        frame.  A pickle that would call a function of this module on load
        is closed on unanswered, and so are the old pickled ``get`` and the
        old ``P`` upload put: the server stores nothing a peer sends."""
        server_side = TcpTransport()
        try:
            handle = server_side.publish(b"z" * 16)
            for frame in (
                pickle.dumps(_CallsOnUnpickle()),
                pickle.dumps(("get", handle.blob_id)),
                b"P" + b"0" * 16 + b"an upload blob",
            ):
                with socket.create_connection(
                    (handle.host, handle.port), timeout=10
                ) as sock:
                    send_frame(sock, frame)
                    assert recv_frame(sock) is None
            assert _UNPICKLED == []
            assert TcpTransport().fetch(handle) == b"z" * 16  # still serving
        finally:
            server_side.close()

    def test_one_connection_serves_several_gets(self):
        """A get is answered with a status byte, found or missing, and the
        connection stays open for the next one."""
        server_side = TcpTransport()
        try:
            first = server_side.publish(b"first")
            second = server_side.publish(b"second")
            with socket.create_connection(
                (first.host, first.port), timeout=10
            ) as sock:
                for blob_id, reply in (
                    (second.blob_id, b"\x01second"),
                    (first.blob_id, b"\x01first"),
                    (second.blob_id + 1, b"\x00"),
                ):
                    send_frame(sock, _GET + _BLOB_ID.pack(blob_id))
                    assert recv_frame(sock) == reply
        finally:
            server_side.close()

    @pytest.mark.parametrize(
        "frame",
        [_GET, _GET + b"\x00" * (_BLOB_ID.size - 1), _GET + b"\x00" * (_BLOB_ID.size + 1)],
        ids=["no_id", "short_id", "long_id"],
    )
    def test_malformed_get_is_closed_unanswered(self, frame):
        server_side = TcpTransport()
        try:
            handle = server_side.publish(b"y" * 8)
            with socket.create_connection(
                (handle.host, handle.port), timeout=10
            ) as sock:
                send_frame(sock, frame)
                assert recv_frame(sock) is None
            assert TcpTransport().fetch(handle) == b"y" * 8
        finally:
            server_side.close()

    def test_fetch_of_an_unknown_blob_raises(self):
        server_side = TcpTransport()
        try:
            handle = server_side.publish(b"w" * 8)
            stale = TcpHandle(
                host=handle.host, port=handle.port,
                blob_id=handle.blob_id + 5, length=8,
            )
            with pytest.raises(ConnectionError, match="unavailable"):
                TcpTransport().fetch(stale)
        finally:
            server_side.close()


#: Calls :func:`_record_unpickling` made — by anyone unpickling peer bytes.
_UNPICKLED: list = []


def _record_unpickling(*args):
    _UNPICKLED.append(args)


class _CallsOnUnpickle:
    def __reduce__(self):
        return (_record_unpickling, ("unpickled a peer frame",))


class TestRegistry:
    def test_tcp_is_registered(self):
        assert "tcp[:host:port]" in transport_usage()

    def test_unknown_spec_error_enumerates_every_form(self):
        with pytest.raises(ValueError, match=r"tcp\[:host:port\]"):
            make_transport("avian")
        with pytest.raises(ValueError, match=r"'auto', 'pipe', 'shm'"):
            resolve_transport("avian")

    def test_params_on_plain_transport_rejected(self):
        with pytest.raises(ValueError, match="takes no parameters"):
            resolve_transport("pipe:9999")

    def test_make_executor_error_enumerates_specs(self):
        with pytest.raises(ValueError, match=r"tcp\[:host:port\]"):
            make_executor(workers=2, transport="avian")

    def test_auto_degrade_logs_reason_once(self):
        import repro.fl.transport as transport_module

        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        # The repro logger doesn't propagate to root (caplog can't see
        # it), so capture on the module logger directly.
        handler = Capture(level=logging.WARNING)
        transport_module._log.addHandler(handler)
        was_logged = transport_module._DEGRADE_LOGGED
        transport_module._DEGRADE_LOGGED = False
        try:
            assert resolve_transport("auto", supported=False) == "pipe"
            assert resolve_transport("auto", supported=False) == "pipe"
        finally:
            transport_module._DEGRADE_LOGGED = was_logged
            transport_module._log.removeHandler(handler)
        degrades = [
            record for record in records
            if "degrading shm -> pipe" in record.getMessage()
        ]
        assert len(degrades) == 1


class TestTcpTransportInvariance:
    """Acceptance: parallel+tcp traces bit-identically to serial (and so,
    transitively with the transport tests, to pipe and shm) under both
    lossless codecs — in clean rounds, under the chaos plan with a
    deadline, and on a Byzantine leg with a robust aggregator."""

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_clean_rounds_match_serial_and_pipe(self, codec):
        serial = run_once(SerialExecutor(codec=codec))
        for transport in ["tcp"] + ["pipe"] + (
            ["shm"] if shm_supported() else []
        ):
            with ParallelExecutor(
                num_workers=2, codec=codec, transport=transport
            ) as executor:
                candidate = run_once(executor)
            _assert_same(serial, candidate, f"{transport}/{codec}")

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_chaos_with_deadline_matches_serial(self, codec):
        serial = run_once(
            SerialExecutor(codec=codec, faults=CHAOS_PLAN, deadline=30.0)
        )
        assert "crash" in _drop_reasons(serial)
        with ParallelExecutor(
            num_workers=2, codec=codec, transport="tcp",
            faults=CHAOS_PLAN, deadline=30.0,
        ) as executor:
            candidate = run_once(executor)
        _assert_same(serial, candidate, f"tcp/{codec} chaos")

    def test_byzantine_leg_matches_serial(self):
        plan = FaultPlan(seed=11, corrupt_rate=0.3)
        serial = run_once(SerialExecutor(faults=plan), aggregator="median")
        assert "corrupt" in _drop_reasons(serial)
        with ParallelExecutor(
            num_workers=2, transport="tcp", faults=plan
        ) as executor:
            candidate = run_once(executor, aggregator="median")
        _assert_same(serial, candidate, "tcp byzantine")


# -- the remote executor -------------------------------------------------------


class TestRemoteExecutor:
    _serial_cache = {}

    @classmethod
    def _serial(cls, codec):
        if codec not in cls._serial_cache:
            cls._serial_cache[codec] = run_once(SerialExecutor(codec=codec))
        return cls._serial_cache[codec]

    # ``True`` is the one value the keyword accepts; the frozen benchmark
    # harness passes it.
    @pytest.mark.parametrize("pipelined", [True])
    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_trace_matches_serial(self, codec, pipelined):
        remote = RemoteExecutor(num_agents=2, codec=codec, pipelined=pipelined)
        result = run_remote(remote)
        _assert_same(self._serial(codec), result, f"remote/{codec}")

    def test_chaos_trace_matches_serial(self):
        serial = run_once(SerialExecutor(faults=CHAOS_PLAN, deadline=30.0))
        assert "crash" in _drop_reasons(serial)
        remote = RemoteExecutor(num_agents=2, faults=CHAOS_PLAN, deadline=30.0)
        result = run_remote(remote)
        _assert_same(serial, result, "remote chaos")

    def test_pardon_uploads_what_fedavg_uploads(self):
        """The privacy boundary across sockets: PARDON's re-styled images
        stay on the agents that built them.  Its measured upload is
        FedAvg's (same clients, seeds and codec), and no server-side client
        holds a cache after the run."""

        def run(strategy):
            clients = make_clients()
            remote = RemoteExecutor(num_agents=2)
            with thread_agents(remote):
                result = run_once(remote, strategy=strategy, clients=clients)
            return result.timing.bytes_up, clients

        fedavg_up, _ = run(FedAvgStrategy(FAST))
        pardon_up, clients = run(PardonStrategy(local_config=FAST))
        assert abs(pardon_up - fedavg_up) <= 0.01 * fedavg_up
        assert all(client.scratch == {} for client in clients)

    def test_run_leaves_no_thread_behind(self):
        """The server's evaluation thread is joined by ``run``; the engine's
        own threads (up after the first run) are the caller's to close."""
        remote = RemoteExecutor(num_agents=2)
        with thread_agents(remote):
            run_once(remote)
            threads = threading.active_count()
            run_once(remote)
            assert threading.active_count() == threads

    def test_rejects_zero_agents(self):
        with pytest.raises(ValueError):
            RemoteExecutor(num_agents=0)


class TestDisconnect:
    def test_mid_round_disconnect_never_wedges_round_close(self):
        """Regression: an agent that dies after accepting a task (its
        upload never arrives) is a typed ``"disconnect"`` drop; the round
        closes over the survivors and later rounds re-home its clients."""
        remote = RemoteExecutor(num_agents=2)

        def saboteur():
            sock = socket.create_connection(remote.address, timeout=30)
            stream = FrameStream(sock)
            stream.send(encode_message(HELLO, hello_meta(name="saboteur")))
            frame = stream.next_frame()
            if frame is None or decode_message(frame).kind != WELCOME:
                sock.close()
                return
            while True:
                frame = stream.next_frame()
                if frame is None:
                    break
                kind = decode_message(frame).kind
                if kind == REGISTER:
                    stream.send(encode_message(REGISTERED))
                if kind == TASK:
                    break  # vanish mid-round: task accepted, upload never sent
            sock.close()

        sab = threading.Thread(target=saboteur, daemon=True)
        good = threading.Thread(
            target=run_agent, args=(remote.address,),
            kwargs={"name": "survivor"}, daemon=True,
        )
        sab.start()
        good.start()
        try:
            result = run_once(remote, rounds=3)
        finally:
            remote.close()
        sab.join(timeout=10)
        good.join(timeout=10)
        assert len(result.history.records) == 3  # no round wedged
        assert "disconnect" in _drop_reasons(result)
        # After the disconnect round every participant trains again.
        assert result.history.records[-1].participants


class ExplodingStrategy(FedAvgStrategy):
    """Local training raises, wherever it runs."""

    def train_group(self, clients, emodel, round_index, rngs):
        raise ValueError("exploding strategy")


class TestAgentErrors:
    """A task that raises on its agent is an error at the server — naming
    the agent and the task, carrying the remote traceback — not a
    disconnect, and the agents keep serving."""

    def _assert_reported(self, executor, agent_name):
        with pytest.raises(
            RuntimeError,
            match=rf"(?s)agent '{agent_name}' failed task \d+:\n"
            rf"Traceback.*ValueError: exploding strategy",
        ):
            run_once(executor, strategy=ExplodingStrategy(FAST), rounds=1)
        # The other lane's error belongs to the failed round: it is
        # discarded by id, and the same engine runs the next experiment.
        result = run_once(executor, rounds=2)
        assert [r.dropped for r in result.history.records] == [{}, {}]

    def test_on_remote_agents(self):
        remote = RemoteExecutor(num_agents=2)
        with thread_agents(remote):
            self._assert_reported(remote, r"agent-\d")

    def test_on_the_pool(self):
        with ParallelExecutor(num_workers=2) as executor:
            self._assert_reported(executor, r"worker\d")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
class TestLaunchedAgents:
    def test_hung_up_lane_exits_its_agent(self, monkeypatch):
        """The server hangs up one lane without ``bye``: its agent sees EOF
        and exits, although the younger sibling was forked while that
        lane's server end was open (each child closes the copies of the
        server ends it inherited)."""
        monkeypatch.setattr(net_executor, "_default_start_method", lambda: "fork")
        executor = ParallelExecutor(num_workers=2)
        try:
            run_once(executor, rounds=1)
            first, second = (agent.process for agent in executor._agents)
            executor._mark_dead(0)
            first.join(timeout=5)
            assert first.exitcode == 0
            assert second.is_alive()
            # Nothing of the lane was outstanding, so no round saw it lost:
            # the next round's open relaunches it before homing clients.
            result = run_once(executor, rounds=1)
            assert result.history.records[0].dropped == {}
            relaunched = executor._agents[0].process
            assert relaunched is not first and relaunched.is_alive()
            assert executor._agents[1].process is second
        finally:
            executor.close()

    def test_a_busy_agent_never_wedges_dispatch(self):
        """Under ``pipe`` a broadcast frame outgrows the socket buffer.  An
        agent still training an abandoned task is not reading, and the
        upload it then writes outgrows the buffer too: the server reads
        that answer while its own frame waits, or both ends would block in
        a write forever."""
        clients = make_clients()
        model = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes,
            rng=np.random.default_rng(0), hidden_dim=1024,
        )
        plan = FaultPlan(events=(FaultEvent("straggler", 1, 1, delay_seconds=1.0),))
        executor = ParallelExecutor(
            num_workers=2, transport="pipe", faults=plan, quorum=2
        )
        # Round 1's quorum closes on lane 0 and abandons client 1 asleep on
        # lane 1; round 2 broadcasts to lane 1 for client 5, resident since
        # round 0, so no acknowledged registration drains the lane first.
        rounds = [[5, 7], [0, 2, 1], [0, 2, 5]]
        dropped = []

        def run():
            for index, ids in enumerate(rounds):
                executor.run_round(
                    FedAvgStrategy(FAST), model, model.state_dict(),
                    [clients[i] for i in ids], index, list(range(len(ids))),
                )
                dropped.append(executor.last_round.dropped)

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "dispatch wedged on a busy agent"
        finally:
            executor.close()
        assert dropped == [{}, {1: "quorum"}, {5: "quorum"}]

    @pytest.mark.skipif(not shm_supported(), reason="no POSIX shared memory")
    def test_shm_agents_exit_without_buffer_errors(self, capfd, monkeypatch):
        """An agent lets go of its zero-copy views into the attached
        segments before it leaves: no ``SharedMemory.__del__`` reports an
        exported buffer on the agents' stderr."""
        # The agents fork from this process: give them the interpreter's
        # own hook, which prints what pytest's would only record.
        monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
        executor = ParallelExecutor(num_workers=2, transport="shm")
        try:
            run_once(executor, rounds=2)
        finally:
            executor.close()
        assert "BufferError" not in capfd.readouterr().err


def faulty_agent(address, connected, on_task):
    """A protocol-complete agent (the real ``WorkerRuntime`` behind a
    hand-rolled serve loop) that calls ``on_task(stream, meta)`` before each
    task and leaves — closing its socket — when that returns true."""
    import pickle

    sock = socket.create_connection(address, timeout=30)
    connected.set()
    try:
        sock.settimeout(None)
        stream = FrameStream(sock)
        stream.send(encode_message(HELLO, hello_meta(name="faulty")))
        welcome = decode_message(stream.next_frame())
        runtime = WorkerRuntime(
            welcome.blob, welcome.meta["codec"], welcome.meta["transport"]
        )
        while (frame := stream.next_frame()) is not None:
            message = decode_message(frame)
            if message.kind == REGISTER:
                runtime.register(message.blob)
                stream.send(encode_message(REGISTERED))
            elif message.kind == BROADCAST:
                # The state frame follows the strategy blob under pipe;
                # any other transport's handle crosses as meta fields.
                split, fields = (
                    message.meta["strategy_bytes"], message.meta.get("handle")
                )
                runtime.broadcast(
                    message.blob[:split],
                    message.blob[split:] if fields is None
                    else runtime.transport.handle_type(**fields),
                    message.meta["round"],
                )
            elif message.kind == TASK:
                if on_task(stream, message.meta):
                    return
                stream.send(encode_message(
                    UPLOAD, {"task": message.meta["task"]},
                    runtime.run_task(pickle.loads(message.blob)),
                ))
            else:
                return
    finally:
        sock.close()


def run_with_faulty_agent(remote, on_task, rounds):
    """Agent 0 (it connects first, so it homes the even client ids) is
    ``faulty_agent``; agent 1 is a healthy ``run_agent``."""
    connected = threading.Event()
    faulty = threading.Thread(
        target=faulty_agent, args=(remote.address, connected, on_task),
        daemon=True,
    )
    faulty.start()
    assert connected.wait(timeout=10)
    good = threading.Thread(
        target=run_agent, args=(remote.address,),
        kwargs={"name": "survivor"}, daemon=True,
    )
    good.start()
    try:
        return run_once(remote, rounds=rounds)
    finally:
        remote.close()
        faulty.join(timeout=10)
        good.join(timeout=10)
        assert not faulty.is_alive() and not good.is_alive()


class TestLostAgentMidRun:
    @pytest.mark.parametrize("codec", ["identity", "delta"])
    def test_agent_vanishing_in_a_later_round_is_a_typed_drop(self, codec):
        """Regression: an agent that served rounds 0-1 and vanishes on its
        first task of round 2 must not touch the *other* agent's upload
        reference chains — under ``delta`` the survivor's in-flight
        uploads are diffs against them (the socket engine used to clear
        every chain and die with "delta frame arrived without a reference
        state")."""
        result = run_with_faulty_agent(
            RemoteExecutor(num_agents=2, codec=codec),
            lambda stream, meta: meta["round"] >= 2,
            rounds=5,
        )
        records = result.history.records
        assert len(records) == 5
        assert [set(r.dropped.values()) for r in records[:2]] == [set(), set()]
        assert set(records[2].dropped.values()) == {"disconnect"}
        for record in records[3:]:
            assert record.participants and record.dropped == {}

    def test_garbage_frame_mid_round_is_a_typed_drop(self):
        """A frame that is not a protocol message loses the lane, exactly
        like EOF: its rows drop as ``disconnect`` and the round closes."""
        def babble(stream, meta):
            stream.send(b"\x00 not a pickled (kind, meta, blob)")
            # Keep the socket open — no EOF for the server to see — until
            # the server itself hangs up on the offender.
            try:
                stream.next_frame()
            except OSError:
                pass
            return True

        result = run_with_faulty_agent(
            RemoteExecutor(num_agents=2), babble, rounds=2
        )
        assert len(result.history.records) == 2
        assert set(result.history.records[0].dropped.values()) == {"disconnect"}
        assert result.history.records[1].dropped == {}


class TestAcceptLoop:
    """No TCP peer can wedge or crash federation forming."""

    def _form_with(self, monkeypatch, intruder):
        from repro.fl.net import executor as net_executor

        monkeypatch.setattr(net_executor, "_ACCEPT_TIMEOUT", 1.0)
        remote = RemoteExecutor(num_agents=1)
        with socket.create_connection(remote.address, timeout=10) as peer:
            intruder(peer)  # first in the backlog, ahead of the real agent
            good = threading.Thread(
                target=run_agent, args=(remote.address,), daemon=True
            )
            good.start()
            try:
                result = run_once(remote, rounds=1)
            finally:
                remote.close()
                good.join(timeout=10)
        assert not good.is_alive()
        assert len(result.history.records) == 1

    def test_silent_peer_then_good_agent_joins(self, monkeypatch):
        """A peer that connects and never says hello costs at most the
        accept budget — the accepted socket used to be read with no
        timeout, blocking forever with a healthy agent in the backlog."""
        self._form_with(monkeypatch, lambda peer: None)

    def test_garbage_hello_then_good_agent_joins(self, monkeypatch):
        """A hello frame that is not a pickle is close-and-continue, not
        an ``UnpicklingError`` out of the accept loop."""
        self._form_with(
            monkeypatch, lambda peer: peer.sendall(encode_frame(b"GET / HTTP/1.1"))
        )


# -- the run-trace digest ------------------------------------------------------


class TestTraceDict:
    def test_equal_runs_equal_digests(self):
        first = run_once(SerialExecutor(), rounds=2)
        second = run_once(SerialExecutor(), rounds=2)
        assert trace_dict(first) == trace_dict(second)
        # JSON-safe and lossless through a round-trip.
        assert json.loads(json.dumps(trace_dict(first))) == trace_dict(first)

    def test_different_runs_differ(self):
        short = run_once(SerialExecutor(), rounds=1)
        long = run_once(SerialExecutor(), rounds=2)
        assert trace_dict(short) != trace_dict(long)


# -- the daemon ----------------------------------------------------------------


class TestServeDaemon:
    _SPLIT = [
        "--train-domains", "photo", "art_painting",
        "--val-domain", "cartoon", "--test-domain", "sketch",
    ]

    @pytest.mark.parametrize(
        "flag",
        [["--workers", "2"], ["--transport", "pipe"], ["--max-resident", "8"],
         ["--timing"]],
        ids=["workers", "transport", "max-resident", "timing"],
    )
    def test_in_host_flags_are_usage_errors(self, flag, capsys):
        """The daemon *is* the engine: a flag that sizes, wires or reports
        on an in-host run is refused, not accepted and ignored."""
        from repro.fl.net import serve

        with pytest.raises(SystemExit) as exit_info:
            serve.main(
                ["--suite", "pacs", "--method", "fedavg", *self._SPLIT, *flag]
            )
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split, message",
        [
            pytest.param(
                ["--train-domains", "photo", "cartoon",
                 "--val-domain", "cartoon", "--test-domain", "sketch"],
                "val domain 'cartoon' is also a training domain",
                id="trains-on-its-validation-domain",
            ),
            pytest.param(
                ["--train-domains", "photo",
                 "--val-domain", "cartoon", "--test-domain", "etching"],
                "unknown domain 'etching'",
                id="unknown-domain",
            ),
            pytest.param(
                [*_SPLIT, "--agents", "0"],
                "--agents: must be >= 1",
                id="agents-0",
            ),
            pytest.param(
                [*_SPLIT, "--participation", "2", "--quorum", "3"],
                "--quorum 3 exceeds the 2 client(s) a round samples",
                id="quorum-above-participant-count",
            ),
            pytest.param(
                [*_SPLIT, "--topology", "edge:2"],
                "unrecognized arguments: --topology edge:2",
                id="retired-topology-flag",
            ),
        ],
    )
    def test_bad_split_is_a_usage_error(self, split, message, capsys):
        from repro.fl.net import serve

        with pytest.raises(SystemExit) as exit_info:
            serve.main(["--suite", "pacs", "--method", "fedavg", *split])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        if "domain" in message:
            assert "art_painting" in err  # names the suite's domains

    def test_check_serial_replays_on_the_serial_engine(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli
        from repro.fl.net import serve

        monkeypatch.setitem(
            cli.SUITES, "pacs",
            lambda seed: synthetic_pacs(seed=seed, samples_per_class=4, image_size=8),
        )
        port_file = tmp_path / "port.txt"
        gave_up = threading.Event()

        def agent(index):
            while not port_file.exists() or not port_file.read_text().endswith("\n"):
                if gave_up.wait(0.01):
                    return
            host, port = port_file.read_text().split()
            run_agent((host, int(port)), name=f"agent-{index}")

        agents = [
            threading.Thread(target=agent, args=(i,), daemon=True) for i in range(2)
        ]
        for thread in agents:
            thread.start()
        try:
            code = serve.main([
                "--suite", "pacs", "--method", "fedavg", "--clients", "4",
                "--participation", "2", "--rounds", "2", "--agents", "2",
                *self._SPLIT,
                "--port-file", str(port_file), "--check-serial",
            ])
        finally:
            gave_up.set()
            for thread in agents:
                thread.join(timeout=10)
        assert code == 0
        assert "trace matches the serial engine bit-for-bit" in capsys.readouterr().out


# -- CLI -----------------------------------------------------------------------


class TestCLIKnob:
    def test_parameterized_tcp_spec_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg",
             "--transport", "tcp:127.0.0.1:0"]
        )
        assert args.transport == "tcp:127.0.0.1:0"

    def test_bad_tcp_endpoint_is_a_usage_error(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lodo", "--suite", "pacs", "--method", "fedavg",
                 "--transport", "tcp:127.0.0.1:notaport"]
            )

    def test_params_on_plain_transport_is_a_usage_error(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lodo", "--suite", "pacs", "--method", "fedavg",
                 "--transport", "pipe:9999"]
            )
