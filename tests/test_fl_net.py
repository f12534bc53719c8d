"""Tests for cross-machine federation (`repro.fl.net`).

The acceptance bar: the loopback ``tcp`` transport and the
:class:`RemoteExecutor` produce traces *bit-identical* to the in-host
engines (serial, parallel+pipe, parallel+shm) under both lossless
codecs — including the seeded chaos plan and a Byzantine leg; frames
survive worst-case 1-byte fragmentation; the handshake rejects version
and spec mismatches; a mid-upload agent disconnect is a typed fault
(``"disconnect"``) that never wedges round close.
"""

import ast
import json
import logging
import multiprocessing
import os
import pickle
import select
import socket
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedAvgStrategy
from repro.core import PardonStrategy
import repro.data.registry
from repro.data import partition_clients, synthetic_pacs
from repro.data.registry import RecipeError
from repro.data.synthetic import LabeledDataset
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
from repro.fl.codec import DeflateCodec, make_codec
from repro.fl.executor import ClientUpdate, WorkerRuntime
from repro.fl.wire import (
    Registration,
    decode_upload,
    encode_upload,
    task_fields,
    task_from_fields,
)
from repro.fl.net import executor as net_executor
from repro.fl.net.agent import run_agent, serve
from repro.fl.net.protocol import (
    BROADCAST,
    BYE,
    ERROR,
    PROTOCOL_VERSION,
    HELLO,
    MAX_HELLO_BYTES,
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
    message_parts,
)
from repro.fl.net.serve import trace_dict
from repro.fl.net.transport import _BLOB_ID, _GET, parse_endpoint
from repro.nn import build_mlp_model
from repro.nn.serialize import encode_payload
from tests.test_fl_round import ScriptedLanes

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

    def test_scatter_send_of_more_parts_than_one_sendmsg_takes(self):
        """A frame of more parts than ``IOV_MAX``, too large for the
        socket buffer, arrives whole: ``send_views`` advances across
        partial writes and chunks the scatter list."""
        parts = [bytes([i % 251]) * 997 for i in range(2500)]
        near, far = socket.socketpair()
        try:
            sender = threading.Thread(target=send_frame, args=(near, *parts))
            sender.start()
            frame = FrameStream(far).next_frame()
            sender.join(timeout=30)
            assert not sender.is_alive()
        finally:
            near.close()
            far.close()
        assert frame == b"".join(parts)

    def test_frame_stream_tolerates_pipelined_peer(self):
        a, b = socket.socketpair()
        a.sendall(encode_frame(b"one") + encode_frame(b"two"))
        stream = FrameStream(b)
        assert stream.next_frame() == b"one"
        # Reads are exact: the second frame is still in the socket, where
        # a selector loop sees it.
        assert select.select([b], [], [], 0)[0] == [b]
        assert stream.next_frame() == b"two"
        assert select.select([b], [], [], 0)[0] == []
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
        # a version-4 agent encodes uploads against its previous upload
        # instead of the round's broadcast, a version-5 one speaks
        # pickled (kind, meta, blob) frames, a version-6 one reads every
        # client's images from its registration (no recipes), and a
        # version-7 one pickles its uploads and reads pickled state frames.
        assert PROTOCOL_VERSION == 8
        for version in (1, 2, 3, 4, 5, 6, 7):
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


# -- the pickle-free message layer ---------------------------------------------


def _decodes_or_frame_error(payload):
    """``decode_message`` of ``payload`` is a ``Message`` or a
    ``FrameError`` — any other exception fails the caller's test."""
    try:
        return decode_message(payload)
    except FrameError:
        return None


def _vm_rss_bytes():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")  # pragma: no cover


class TestWireFuzz:
    """Whatever bytes a peer sends end in a ``Message`` or a typed
    ``FrameError``, on the message layer and on the socket stream."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(payload=st.binary(max_size=512))
    def test_arbitrary_payloads(self, payload):
        _decodes_or_frame_error(payload)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_messages(self, data):
        """Near-misses of real messages: one byte changed, or the payload
        cut short, anywhere in header, meta or buffers."""
        payload = bytearray(encode_message(
            data.draw(st.sampled_from([TASK, UPLOAD, REGISTER, HELLO])),
            {"task": 3, "round": [1, 2.5, None], "text": "é"},
            b"abc", b"", b"\x00" * 9,
        ))
        at = data.draw(st.integers(0, len(payload) - 1))
        if data.draw(st.booleans()):
            payload[at] = data.draw(st.integers(0, 255))
        else:
            del payload[at:]
        message = _decodes_or_frame_error(bytes(payload))
        if message is not None:
            assert sum(len(buffer) for buffer in message.buffers) <= len(payload)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        stream_bytes=st.one_of(
            st.binary(max_size=256),
            st.lists(st.binary(max_size=64), max_size=4).map(
                lambda payloads: b"".join(encode_frame(p) for p in payloads)
            ),
            st.tuples(st.binary(max_size=64), st.binary(max_size=64)).map(
                lambda pair: encode_frame(encode_message(UPLOAD, {}, pair[0])) + pair[1]
            ),
        )
    )
    def test_socket_streams(self, stream_bytes):
        """A peer writes the bytes and hangs up: the stream yields frames
        until a clean EOF or a ``FrameError``, and every frame decodes or
        raises ``FrameError``."""
        near, far = socket.socketpair()
        try:
            near.sendall(stream_bytes)
            near.close()
            stream = FrameStream(far)
            while True:
                try:
                    frame = stream.next_frame()
                except FrameError:
                    break
                if frame is None:
                    break
                _decodes_or_frame_error(frame)
        finally:
            far.close()


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_recipe_metas(self, data):
        """A registration's recipe with any one field replaced by any JSON
        value registers clients or raises ``ValueError`` (a
        ``RecipeError`` for the recipe itself) with nothing rendered."""
        meta = _recipe_meta(_TINY_RECIPE)
        path, container = data.draw(st.sampled_from(_recipe_fields(meta)))
        container[path] = data.draw(_JSON_VALUES)
        message = decode_message(encode_message(REGISTER, meta))
        suites = {}
        try:
            clients = Registration(message.meta, message.buffers).clients(suites)
        except ValueError:
            assert not any(suite.datasets.renders for suite in suites.values())
            return
        for client in clients:
            assert client.dataset.images.shape[1:] == client.dataset.image_shape


    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_uploads_are_corrupt_drops(self, data):
        """An upload whose meta or buffers are mutated so they no longer
        describe one update per client, shaped like the broadcast, drops
        its task's clients as ``corrupt``; the round closes over the
        other lane's."""
        mutation = data.draw(st.sampled_from(sorted(_UPLOAD_MUTATIONS)))
        _assert_corrupt_drop(
            lambda meta, buffers: _UPLOAD_MUTATIONS[mutation](data, meta, buffers)
        )

    @pytest.mark.parametrize("dtype", ["|O", "V8", "<c16"])
    @pytest.mark.parametrize(
        "codec, field",
        [("identity", 2), ("fp16", 3), ("qint8", 3), ("identity+deflate", 3)],
        ids=["tensor", "fp16-restore", "qint8-restore", "packing-spec"],
    )
    def test_a_disallowed_dtype_is_a_corrupt_drop(self, codec, field, dtype):
        """Wherever an upload names a dtype — a tensor's (state field 2), or
        in the codec meta (field 3) the one fp16 or qint8 restores or a
        ``+deflate`` packing spec's — one outside the wire's allow-list
        drops the task's clients as ``corrupt``."""

        def rename(node):
            if isinstance(node, list):
                return [rename(item) for item in node]
            if isinstance(node, dict):
                return {key: rename(item) for key, item in node.items()}
            return dtype if node in ("<f8", "<f2") else node

        def name(meta, buffers):
            state = meta["updates"][0][3]
            state[field] = rename(state[field])
            return meta, buffers

        _assert_corrupt_drop(name, codec=codec)


    def test_a_packing_spec_past_the_broadcast_is_a_corrupt_drop(
        self, monkeypatch
    ):
        """A ``+deflate`` upload whose packing spec names more bytes than
        the broadcast holds (one 8 Mi float64 tensor, over a 64 KiB stream
        of zeros that would inflate to 64 MiB) is refused before it
        inflates: a ``corrupt`` drop whose decode peaks below the
        broadcast's byte size."""
        refused_peaks = []
        decode = DeflateCodec.decode

        def traced_decode(codec, payload, ref=None):
            tracemalloc.start()
            try:
                return decode(codec, payload, ref)
            except ValueError:
                _, peak = tracemalloc.get_traced_memory()
                refused_peaks.append((peak, sum(v.nbytes for v in ref.values())))
                raise
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(DeflateCodec, "decode", traced_decode)
        deflater = zlib.compressobj()
        bomb = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(64))
        bomb += deflater.flush()

        def inflate(meta, buffers):
            state = meta["updates"][0][3]  # [codec, kind, tensors, meta, blob]
            state[3] = {"d": [["packed", [["w", "<f8", [8 << 20]]]]]}
            state[4] = {"b": len(bomb)}
            buffers[1] = np.frombuffer(bomb, dtype=np.uint8)  # after the floats
            return meta, buffers

        _assert_corrupt_drop(inflate, codec="identity+deflate")
        ((peak, broadcast_bytes),) = refused_peaks
        assert peak < broadcast_bytes


def _assert_corrupt_drop(tamper, codec="identity"):
    """One round of six clients on two scripted lanes, whose first upload
    (home 0's task: clients 0, 2 and 4) goes through ``tamper(meta,
    buffers)`` before it is framed."""

    class Tampering(ScriptedLanes):
        def upload(self, task_id, meta, buffers):
            if task_id == 0:
                meta, buffers = tamper(json.loads(json.dumps(meta)), list(buffers))
            return super().upload(task_id, meta, buffers)

    lanes = Tampering(homes=2, codec=codec)
    model, clients = _model(), make_clients(6)
    updates = lanes.run_round(
        FedAvgStrategy(FAST), model, model.state_dict(), clients, 0,
        [100 + client.client_id for client in clients],
    )
    assert lanes.last_round.dropped == dict.fromkeys((0, 2, 4), "corrupt")
    assert [update.client_id for update in updates] == [1, 3, 5]


#: Values no field of a well-formed upload row can take where the
#: mutations below put them.  An upload row is ``[client_id, num_samples,
#: floats, state, payload]`` and its state ``[codec, kind, tensors, meta,
#: blob]`` (see ``repro.fl.wire.encode_upload``).
_NOT_A_COUNT = st.sampled_from([None, True, "3", 1.5, [], {}, -1, 2**63])
_NOT_A_NODE = st.sampled_from(
    [None, 7, "x", [], [{}], {"d": 5}, {"b": 3}, {"a": ["<f8", [1]]}, {"x": 1}]
)


def _mutate(*path, values):
    """Replace the node at ``path`` under a drawn update row (``"*"``: a
    drawn item of the list there) by a drawn value that differs from it."""

    def mutate(data, meta, buffers):
        node = data.draw(st.sampled_from(meta["updates"]))
        *inner, last = path
        for step in inner:
            node = data.draw(st.sampled_from(node)) if step == "*" else node[step]
        node[last] = data.draw(values.filter(lambda value: value != node[last]))
        return meta, buffers

    return mutate


def _resize_buffer(data, meta, buffers):
    at = data.draw(st.integers(0, len(buffers) - 1))
    raw = bytes(buffers[at])
    cut = data.draw(st.integers(1, 9))
    buffers[at] = raw[:-cut] if data.draw(st.booleans()) else raw + bytes(cut)
    return meta, buffers


def _drop_buffer(data, meta, buffers):
    del buffers[data.draw(st.integers(0, len(buffers) - 1))]
    return meta, buffers


def _add_buffer(data, meta, buffers):
    at = data.draw(st.integers(0, len(buffers)))
    buffers.insert(at, bytes(data.draw(st.sampled_from([0, 8, 64]))))
    return meta, buffers


def _drop_row(data, meta, buffers):
    del meta["updates"][data.draw(st.integers(0, len(meta["updates"]) - 1))]
    return meta, buffers


def _repeat_row(data, meta, buffers):
    meta["updates"].append(data.draw(st.sampled_from(meta["updates"])))
    return meta, buffers


def _truncate_row(data, meta, buffers):
    row = data.draw(st.sampled_from(meta["updates"]))
    del row[data.draw(st.integers(0, len(row) - 1)) :]
    return meta, buffers


def _no_updates(data, meta, buffers):
    return {**meta, "updates": data.draw(_NOT_A_NODE)}, buffers


_UPLOAD_MUTATIONS = {
    "client_id": _mutate(0, values=_NOT_A_COUNT | st.sampled_from([6, 9])),
    "num_samples": _mutate(1, values=_NOT_A_COUNT | st.sampled_from([0, 1000])),
    "floats": _mutate(
        2, values=_NOT_A_NODE | st.sampled_from(
            [{"a": ["<f8", [3]]}, {"a": ["<f4", [4]]}, {"a": ["<i8", [4]]}]
        ),
    ),
    "state": _mutate(3, values=_NOT_A_NODE),
    "payload": _mutate(4, values=_NOT_A_NODE),
    "codec": _mutate(3, 0, values=st.sampled_from(["delta", "fp16", "", 0, None])),
    "kind": _mutate(3, 1, values=st.sampled_from([0, None, [], {"d": []}])),
    "tensors": _mutate(3, 2, values=_NOT_A_NODE),
    "codec_meta": _mutate(3, 3, values=st.sampled_from([0, None, [], "x", {"d": 5}])),
    "blob": _mutate(3, 4, values=_NOT_A_NODE | st.sampled_from([True, 1, {"b": 0}])),
    "key": _mutate(
        3, 2, "d", "*", 0, values=st.sampled_from(["w", "", 0, None, "0.weight"])
    ),
    "dtype": _mutate(
        3, 2, "d", "*", 1, "a", 0,
        values=st.sampled_from(["<f4", "<i8", "<f2", "|u1", ">f8", "|O", "V8", "<c16"]),
    ),
    "shape": _mutate(
        3, 2, "d", "*", 1, "a", 1,
        values=st.sampled_from([[], [1], [0], [-1], [2.0], "x", None, [1, 1, 1, 1, 1]]),
    ),
    "row": _truncate_row,
    "updates": _no_updates,
    "drop_row": _drop_row,
    "repeat_row": _repeat_row,
    "resize_buffer": _resize_buffer,
    "drop_buffer": _drop_buffer,
    "add_buffer": _add_buffer,
}


#: A tiny generated suite's recipe of two rows in two domains.
_TINY_RECIPE = {
    "suite": {
        "builder": "synthetic_pacs",
        "args": {"seed": 0, "samples_per_class": 2, "image_size": 4},
    },
    "parts": [[0, [3, 1]], [2, [0]]],
}

#: What a fuzzed recipe field becomes: boundary integers, floats, strings,
#: null, booleans and containers.
_JSON_VALUES = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 5, 13, 2**31, 2**63, 10**30]),
    st.sampled_from([0.5, -2.0, 1e300]),
    st.sampled_from(["", "synthetic_pacs", "os.system", "seed"]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 20), max_size=4),
    st.dictionaries(st.sampled_from(["seed", "x"]), st.integers(0, 3), max_size=2),
)


def _recipe_meta(recipe, client_id=0):
    return {
        "clients": [{"id": client_id, "recipe": json.loads(json.dumps(recipe))}],
        "evict": [],
    }


def _recipe_fields(meta):
    """Every ``(key, container)`` slot of ``meta``'s recipe, leaves and
    inner nodes alike."""
    slots, stack = [], [meta["clients"][0]]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((key, node))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return slots


def _count_renders(monkeypatch):
    """Every domain render from here on appends to the returned list."""
    renders = []
    real = repro.data.registry.render_domain

    def counted(*args):
        renders.append(args[1].name)
        return real(*args)

    monkeypatch.setattr(repro.data.registry, "render_domain", counted)
    return renders


class TestHostilePeers:
    @pytest.mark.parametrize(
        "recipe, match",
        [
            ({**_TINY_RECIPE, "suite": {
                "builder": "synthetic_pacs",
                "args": {"seed": 0, "samples_per_class": 10**8, "image_size": 8},
            }}, "would render"),
            ({**_TINY_RECIPE, "suite": {
                "builder": "os.system", "args": {},
            }}, "not allowed"),
            ({**_TINY_RECIPE, "parts": [[0, [3, 14]]]}, "in \\[0, 14\\)"),
            ({**_TINY_RECIPE, "parts": [[0, [3, 3]]]}, "repeats"),
            ({**_TINY_RECIPE, "parts": [[0, [1]], [0, [1]]]}, "repeats"),
            ({**_TINY_RECIPE, "parts": [[0, [True]]]}, "integers"),
            ({**_TINY_RECIPE, "parts": [[4, [0]]]}, "no domain"),
            ({**_TINY_RECIPE, "suite": {
                "builder": "synthetic_pacs", "args": {"seed": -1},
            }}, "out of bounds"),
            ({**_TINY_RECIPE, "suite": {
                "builder": "synthetic_pacs", "args": {"exec": 1},
            }}, "takes no argument"),
            ({**_TINY_RECIPE, "suite": {
                "builder": "synthetic_domain_sweep",
                "args": {"num_classes": 4096, "image_size": 1024},
            }}, "would render"),
        ],
        ids=[
            "oversized-samples-per-class", "unknown-builder", "out-of-range-row",
            "repeated-row", "row-in-two-parts", "bool-row", "unknown-domain",
            "negative-seed", "unknown-argument", "oversized-content-bank",
        ],
    )
    def test_hostile_recipe_is_refused_before_rendering(
        self, recipe, match, monkeypatch
    ):
        """A recipe is checked whole before its lane renders anything: a
        hostile one is a typed ``RecipeError`` and nothing rendered — also
        for the recipe's well-formed neighbour in the same registration."""
        renders = _count_renders(monkeypatch)
        meta = _recipe_meta(_TINY_RECIPE)
        meta["clients"] += _recipe_meta(recipe, client_id=1)["clients"]
        runtime = WorkerRuntime(encode_payload(_model()), "identity", "pipe")
        with pytest.raises(RecipeError, match=match):
            runtime.register(Registration(meta, []))
        assert renders == [] and runtime.clients == {}

    def test_agent_answers_a_hostile_recipe_with_a_typed_error(self, monkeypatch):
        """Over a real agent loop: the registration is answered with an
        ``error`` frame naming ``RecipeError``, nothing rendered, and the
        agent keeps serving."""
        renders = _count_renders(monkeypatch)
        near, far = socket.socketpair()
        agent = threading.Thread(target=serve, args=(far,), daemon=True)
        agent.start()
        try:
            stream = FrameStream(near)
            assert decode_message(stream.next_frame()).kind == HELLO
            stream.send(*message_parts(
                WELCOME,
                {"version": PROTOCOL_VERSION, "codec": "identity", "transport": "pipe"},
                encode_payload(_model()),
            ))
            hostile = {**_TINY_RECIPE, "parts": [[0, [0, 99]]]}
            for recipe, kind in ((hostile, ERROR), (_TINY_RECIPE, REGISTERED)):
                stream.send(*message_parts(REGISTER, _recipe_meta(recipe)))
                reply = decode_message(stream.next_frame())
                assert reply.kind == kind
                if kind == ERROR:
                    assert "RecipeError" in reply.meta["text"]
                    assert renders == []
            assert sorted(renders) == ["cartoon", "photo"]
            stream.send(*message_parts(BYE))
        finally:
            agent.join(timeout=10)
            near.close()
            far.close()

    def test_oversized_hello_is_closed_unanswered(self, monkeypatch):
        """A frame over the hello cap from a peer not yet welcomed is
        closed on without a reply, and the listener keeps accepting."""
        monkeypatch.setattr(net_executor, "_ACCEPT_TIMEOUT", 5.0)
        remote = RemoteExecutor(num_agents=1)
        with socket.create_connection(remote.address, timeout=10) as peer:
            peer.sendall(struct.pack(">I", MAX_HELLO_BYTES + 1))
            good = threading.Thread(
                target=run_agent, args=(remote.address,), daemon=True
            )
            good.start()
            try:
                result = run_once(remote, rounds=1)
            finally:
                remote.close()
                good.join(timeout=10)
            assert peer.recv(16) == b""  # closed, nothing said
        assert len(result.history.records) == 1

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads Linux VmRSS"
    )
    def test_announced_gigabyte_costs_what_arrived(self):
        """A peer that announces the largest frame and hangs up after
        1 KiB raises ``FrameError``; the reader committed memory for the
        bytes that came, not for the gigabyte announced."""
        near, far = socket.socketpair()
        try:
            near.sendall(struct.pack(">I", MAX_FRAME_BYTES) + os.urandom(1024))
            near.close()
            before = _vm_rss_bytes()
            with pytest.raises(FrameError, match="mid-frame"):
                FrameStream(far).next_frame()
            assert _vm_rss_bytes() - before < 16 << 20
        finally:
            far.close()


def _odd_clients():
    """Clients built by hand, so they register their arrays: one with a
    non-contiguous image array (a strided view), one plain, one with no
    samples."""
    base = make_clients(n_clients=2)
    strided = base[0].dataset.images[:, :, :, ::-1][:, :, ::2]
    assert not strided.flags.c_contiguous
    dataset = base[0].dataset
    odd = LabeledDataset(strided, dataset.labels, dataset.domain_ids)
    plain = base[1].dataset.subset(np.arange(base[1].num_samples))
    empty = dataset.subset(np.arange(0))
    return [Client(3, odd), Client(1, plain), Client(9, empty)]


class TestRegistration:
    def test_round_trips_bit_identically_over_a_socket(self):
        clients = _odd_clients()
        registration = Registration.of(clients, (4, 5))
        # Contiguous arrays cross from the server's own memory.
        assert np.shares_memory(registration.buffers[3], clients[1].dataset.images)
        near, far = socket.socketpair()
        try:
            sender = threading.Thread(target=send_frame, args=(
                near, *message_parts(REGISTER, registration.meta, *registration.buffers)
            ))
            sender.start()
            frame = FrameStream(far).next_frame()
            sender.join()
        finally:
            near.close()
            far.close()
        message = decode_message(frame)
        assert message.kind == REGISTER and message.meta["evict"] == [4, 5]
        shipped = Registration(message.meta, message.buffers).clients()
        assert [c.client_id for c in shipped] == [3, 1, 9]
        for mine, theirs in zip(clients, shipped):
            for name in ("images", "labels", "domain_ids"):
                ours, got = getattr(mine.dataset, name), getattr(theirs.dataset, name)
                assert got.dtype == ours.dtype and got.shape == ours.shape
                assert got.tobytes() == ours.tobytes()
                assert not got.flags.writeable and got.flags.aligned
                if got.size:  # read in place: a view of the received frame
                    assert np.shares_memory(got, np.frombuffer(frame, np.uint8))

    def test_wire_bytes_are_meta_plus_arrays(self):
        clients = _odd_clients()
        registration = Registration.of(clients, ())
        arrays = sum(
            getattr(c.dataset, name).nbytes
            for c in clients for name in ("images", "labels", "domain_ids")
        )
        meta = len(json.dumps(registration.meta, separators=(",", ":")))
        assert registration.nbytes == arrays + meta

    @pytest.mark.parametrize(
        "spec",
        [
            {"a": ["|O", [2]]},
            {"a": [">f8", [2]]},
            {"a": ["<i8", [3]]},
            {"a": ["<i8", [-1]]},
            {"a": ["<i8", [2.0]]},
            {"a": ["<i8"]},
        ],
        ids=[
            "object", "big-endian", "short-buffer", "negative", "float-dim",
            "no-shape",
        ],
    )
    def test_refuses_what_it_cannot_read_in_place(self, spec):
        ok = {"a": ["<i8", [2]]}
        meta = {"clients": [{"id": 0, "arrays": [ok, ok, spec]}], "evict": []}
        buffers = [np.zeros(2, np.int64).view(np.uint8)] * 3
        with pytest.raises(ValueError, match="wire array|wire dtype|meta node"):
            Registration(meta, buffers).clients()

    def test_task_fields_round_trip_through_json(self):
        fault = FaultEvent("byzantine", 2, 7, mode="scale", payload_seed=11)
        for task in [((1, 3), 2, (10, 30), None), ((7,), 2, (70,), fault)]:
            message = decode_message(encode_message(TASK, task_fields(*task)))
            assert task_from_fields(message.meta) == task


class TestUploadFrames:
    def test_upload_decodes_in_place_from_its_frame(self):
        """An upload's arrays (codec tensors, class-channel means) come out
        of ``decode_upload`` as views of the received frame."""
        update = ClientUpdate(
            client_id=3, num_samples=5,
            state=make_codec("identity").encode({"w": np.arange(6.0)}),
            loss=0.5, payload={"class_stats": np.ones((2, 4))},
        )
        near, far = socket.socketpair()
        try:
            meta, buffers = encode_upload([update])
            send_frame(near, *message_parts(UPLOAD, {"task": 1, **meta}, *buffers))
            frame = FrameStream(far).next_frame()
        finally:
            near.close()
            far.close()
        message = decode_message(frame)
        (got,) = decode_upload(message.meta, message.buffers)
        whole = np.frombuffer(frame, np.uint8)
        assert np.shares_memory(got.state.tensors["w"], whole)
        assert np.shares_memory(got.payload["class_stats"], whole)
        assert got.state.tensors["w"].flags.aligned
        assert got.payload["class_stats"].flags.aligned
        np.testing.assert_array_equal(got.state.tensors["w"], np.arange(6.0))


class TestNoPickleOnTheWire:
    def test_the_wire_modules_do_not_import_pickle(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for relative in (
            "src/repro/fl/transport.py",
            "src/repro/fl/net/protocol.py",
            "src/repro/fl/net/agent.py",
            "src/repro/fl/net/executor.py",
        ):
            with open(os.path.join(root, relative)) as source:
                assert "import pickle" not in source.read(), relative

    def test_only_the_worker_runtime_unpickles(self):
        """``decode_payload`` and ``pickle.loads`` appear in ``repro.fl``
        only inside ``WorkerRuntime``: an agent unpickles the template and
        strategy of the server it dialled, and the server unpickles
        nothing a peer sends."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        package = os.path.join(root, "src", "repro", "fl")
        uses = []
        for folder, _, names in os.walk(package):
            for name in sorted(n for n in names if n.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path) as source:
                    tree = ast.parse(source.read())
                uses += [
                    (os.path.relpath(path, root), owner)
                    for owner, node in _walk_with_class(tree)
                    if (isinstance(node, ast.Name) and node.id == "decode_payload")
                    or (
                        isinstance(node, ast.Attribute)
                        and node.attr in ("decode_payload", "loads")
                        and (node.attr != "loads" or _names(node.value, "pickle"))
                    )
                ]
        assert uses, "the agent side decodes its template and strategy"
        assert {owner for _, owner in uses} == {"WorkerRuntime"}, uses

    def test_agent_module_runs_without_a_runpy_warning(self):
        """``python -m repro.fl.net.agent`` must not find the agent module
        already imported by its own package."""
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.fl.net.agent", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stderr == ""


def _walk_with_class(tree, owner=None):
    """Every node of ``tree`` with the name of the class it sits in."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, ast.ClassDef) else owner
        yield owner, node
        yield from _walk_with_class(node, inner)


def _names(node, name):
    return isinstance(node, ast.Name) and node.id == name


# -- the tcp transport (ParallelExecutor wire) ---------------------------------


class TestTcpTransport:
    def test_importing_the_package_loads_no_asyncio(self):
        """asyncio, and the ssl it imports, load only when a blob server
        runs: the server, pool workers and agents import the package
        without them."""
        script = (
            "import sys, repro, repro.fl.net.agent, repro.fl.net.transport; "
            "sys.exit(sorted({'asyncio', 'ssl'} & set(sys.modules)) or 0)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

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

    def test_fetch_receives_the_blob_once(self):
        """A fetched blob is read off the socket into one buffer of its
        own: the allocation peak stays under 1.5x the blob (it was three
        copies, 12 MiB for 4 MiB, when the reply was decoded and sliced)."""
        server_side, worker_side = TcpTransport(), TcpTransport()
        blob = os.urandom(4 << 20)
        try:
            handle = server_side.publish(blob)
            tracemalloc.start()
            try:
                fetched = worker_side.fetch(handle)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert fetched == blob
            assert peak < 1.5 * len(blob)
        finally:
            worker_side.close()
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
                runtime.register(Registration(message.meta, message.buffers))
                stream.send(encode_message(REGISTERED))
            elif message.kind == BROADCAST:
                # The state frame is the second buffer under pipe; any
                # other transport's handle crosses as meta fields.
                fields = message.meta.get("handle")
                runtime.broadcast(
                    message.buffers[0],
                    message.buffers[1] if fields is None
                    else runtime.transport.handle_type(**fields),
                    message.meta["round"],
                )
            elif message.kind == TASK:
                if on_task(stream, message.meta):
                    return
                meta, buffers = runtime.run_task(task_from_fields(message.meta))
                stream.send(*message_parts(
                    UPLOAD, {"task": message.meta["task"], **meta}, *buffers
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
            stream.send(b"\x00 not a protocol message")
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
