"""Cross-machine execution: fan a round out to remote agent processes.

:class:`RemoteExecutor` is the server half of ``repro.fl.net`` — the
*socket lane* of the round driver (:class:`repro.fl.round.Executor`), whose
training endpoints are *other processes on other machines*
(:mod:`repro.fl.net.agent`) reached over length-prefixed TCP frames
instead of a local process pool.  It speaks the wire protocol of
:mod:`repro.fl.net.protocol`, but the blobs inside every message are
exactly the bytes the pool lane puts on its pipes, both endpoints run the
code the pool runs (:mod:`repro.fl.wire`), and the round itself is the one
driver every engine shares — so traces are engine-invariant by
construction, not by parallel maintenance of two protocols.  This module
only knows sockets: the handshake, writing frames, a selector read, and
what a dead peer looks like.

Pipelined rounds
----------------
A round's registration, broadcast, and task frames are written to **all**
agents before any upload is awaited, and uploads are ingested in arrival
order.  Each agent therefore trains concurrently with the other agents'
transfers and training — the cross-host overlap the paper's scalability
axis is about.  The overlap actually achieved is measured per round
(endpoint busy-time minus the remote phase's wall clock, floored at zero)
and written into the round's record (``RoundRecord.overlap_seconds``,
summed into ``TimingReport.pipeline_overlap_seconds``) and onto
:attr:`pipeline_overlap_rounds`.

Fault semantics
---------------
As on every lane (see the table in :mod:`repro.fl.executor`), with two
socket specifics.  A plan's *crash* victim is never dispatched — a remote
agent is not the server's process to kill.  And the one remote-only
failure mode, a vanished agent — socket EOF, a write error or an
undecodable frame — drops its outstanding clients with reason
``"disconnect"`` (:mod:`repro.fl.faults`, "Drop reasons"); the round closes
over the survivors and the dead agent's clients are re-homed (and
re-registered) across the remaining agents on the next round.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from typing import TYPE_CHECKING

from repro.fl.net.frames import FrameError, FrameStream
from repro.fl.net.protocol import (
    BROADCAST,
    BYE,
    HELLO,
    REGISTER,
    REJECT,
    TASK,
    UPLOAD,
    WELCOME,
    Message,
    decode_message,
    encode_message,
    evaluate_hello,
    PROTOCOL_VERSION,
)
from repro.fl.net.transport import parse_endpoint
from repro.fl.round import LOST, Executor, time_left
from repro.fl.transport import make_transport
from repro.nn.serialize import encode_payload
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.executor import ClientUpdate
    from repro.fl.history import RoundRecord
    from repro.nn.models import FeatureClassifierModel

__all__ = ["RemoteExecutor"]

_log = get_logger("fl.net.executor")

#: Seconds the server waits for each expected agent to connect *and*
#: complete its handshake before declaring the federation unformable: one
#: budget covers the accept and the hello read that follows it.
_ACCEPT_TIMEOUT = 60.0


def _read_message(stream: FrameStream) -> "Message | None":
    """The peer's next message, or ``None`` if it is gone or not speaking
    the protocol — EOF, a socket error or timeout, a malformed frame, or a
    payload that does not decode to a message all mean the same thing to
    the server: this peer is lost."""
    try:
        frame = stream.next_frame()
        return None if frame is None else decode_message(frame)
    except (FrameError, ConnectionError, OSError):
        return None


class _Agent:
    """One connected remote endpoint, as the server sees it."""

    __slots__ = ("sock", "stream", "name", "alive")

    def __init__(self, sock: socket.socket, stream: FrameStream, name: str) -> None:
        self.sock = sock
        self.stream = stream
        self.name = name
        self.alive = True

    def hang_up(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class RemoteExecutor(Executor):
    """Run rounds across ``num_agents`` remote agent processes.

    Parameters
    ----------
    listen:
        Bind endpoint for the agent listener — ``"host:port"``, a bare
        port, or ``None``/empty for loopback on an ephemeral port.  The
        socket binds immediately, so :attr:`address` is valid before any
        agent exists (tests and the daemon read it to point agents at).
    num_agents:
        How many agents must connect (and pass the handshake) before the
        first round runs.  Clients are homed ``live_agents[cid % n]``;
        when an agent dies the survivors re-home everything.
    pipelined:
        Kept only because the frozen benchmark harness passes
        ``pipelined=True``; rounds always overlap broadcast/train/upload
        across agents, and any other value is refused (ROADMAP item 6).
    codec, faults, deadline, quorum:
        As on every engine (:class:`repro.fl.round.Executor`).

    The listener accepts agents lazily at the first round — the
    handshake's welcome needs the model template, which only exists once
    a run starts (mirrors lazy pool build).  One executor serves
    consecutive runs over the same agents as long as the model
    architecture is unchanged.
    """

    def __init__(
        self,
        listen: "str | None" = None,
        num_agents: int = 1,
        pipelined: bool = True,
        codec: str = "identity",
        faults: "str | None" = None,
        deadline: "float | str | None" = None,
        quorum: "int | None" = None,
    ) -> None:
        if pipelined is not True:
            raise ValueError(
                f"pipelined={pipelined!r}: remote rounds always run as one "
                f"pipelined wave; the keyword only accepts True until "
                f"ROADMAP item 6 drops it"
            )
        super().__init__(codec=codec, faults=faults, deadline=deadline, quorum=quorum)
        if num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {num_agents}")
        self.num_agents = num_agents
        # Agents fetch broadcasts from their own connection, so both ends
        # of this wire run the blob-is-the-handle pipe transport: every
        # agent pulls its own full copy over its own socket, and the
        # driver charges it as such.
        self.transport = make_transport("pipe")
        #: Per-completed-round cross-host overlap seconds (see the module
        #: docstring).
        self.pipeline_overlap_rounds: "list[float]" = []
        self._listen_sock = socket.create_server(
            parse_endpoint(listen), reuse_port=False
        )
        self._agents: "list[_Agent] | None" = None
        self._architecture: "tuple | None" = None
        # Indices (into _agents) of the agents alive when the round opened:
        # the layout clients are homed over, fixed for the whole round.
        self._live: "list[int]" = []
        self._selector: "selectors.BaseSelector | None" = None
        # task id -> home of every task sent and not yet answered.  An
        # upload whose id is not here (a previous round's zombie, or an
        # abandoned task finishing late) is discarded silently.
        self._tasks: "dict[int, int]" = {}
        # Task ids whose lane was found dead, to report at the next poll.
        self._lost: "list[int]" = []

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` agents should connect to."""
        return self._listen_sock.getsockname()[:2]

    # -- federation membership -----------------------------------------------

    def _handshake(self, model_blob: bytes, welcome_meta: dict) -> None:
        """Accept one connection and run hello/welcome on it; a peer that
        is turned away is closed and the caller accepts the next one.

        CPython hands back accepted sockets *blocking* whenever the
        listener has a timeout, so the hello read is bounded explicitly —
        by whatever the accept left of the ``_ACCEPT_TIMEOUT`` budget —
        or a peer that connects and says nothing would wedge federation
        forming while real agents queue in the backlog.
        """
        started = time.monotonic()
        self._listen_sock.settimeout(_ACCEPT_TIMEOUT)
        try:
            sock, peer = self._listen_sock.accept()
        except socket.timeout:
            raise RuntimeError(
                f"only {len(self._agents)}/{self.num_agents} agents "
                f"connected within {_ACCEPT_TIMEOUT:.0f}s"
            ) from None
        sock.settimeout(max(0.05, _ACCEPT_TIMEOUT - (time.monotonic() - started)))
        stream = FrameStream(sock)
        message = _read_message(stream)
        reason = (
            "no hello"
            if message is None or message.kind != HELLO
            else evaluate_hello(message.meta, codec_spec=welcome_meta["codec"])
        )
        try:
            if reason is None:
                stream.send(encode_message(WELCOME, welcome_meta, model_blob))
                sock.settimeout(None)  # rounds use blocking reads
                self.wire.registration_bytes += len(model_blob)
                agent = _Agent(
                    sock, stream, message.meta.get("name") or f"{peer[0]}:{peer[1]}"
                )
                self._selector.register(sock, selectors.EVENT_READ, len(self._agents))
                self._agents.append(agent)
                _log.info(
                    "agent %r joined (%d/%d)",
                    agent.name, len(self._agents), self.num_agents,
                )
                return
            _log.warning("rejecting agent %s:%d: %s", peer[0], peer[1], reason)
            stream.send(encode_message(REJECT, {"reason": reason}))
        except OSError:
            pass  # the peer vanished mid-handshake
        sock.close()

    def open(self, model: "FeatureClassifierModel") -> None:
        architecture = self._architecture_of(model)
        if self._agents is None:
            model_blob = encode_payload(model)
            welcome_meta = {
                "version": PROTOCOL_VERSION,
                "codec": self.codec.spec,
                "transport": self.transport.spec,
            }
            self._agents = []
            self._selector = selectors.DefaultSelector()
            while len(self._agents) < self.num_agents:
                self._handshake(model_blob, welcome_meta)
            self.wire.unique_registration_bytes += len(model_blob)
            self._architecture = architecture
        elif architecture != self._architecture:
            raise RuntimeError(
                "model architecture changed mid-federation; remote agents "
                "hold the old template — build a fresh RemoteExecutor"
            )
        self._live = [i for i, agent in enumerate(self._agents) if agent.alive]
        if not self._live:
            raise RuntimeError("every remote agent has disconnected")

    def _mark_dead(self, home: int) -> None:
        """The agent at ``home`` is gone: close its socket and report its
        unanswered tasks lost (one ``LOST`` speaks for the home).  The
        driver drops them — ``respawn`` says no — and re-homes clients
        lazily: next round's ``cid % len(live)`` layout re-registers
        whoever moved."""
        agent = self._agents[home]
        if agent.alive:
            self._selector.unregister(agent.sock)
            agent.hang_up()
            _log.warning("agent %r disconnected", agent.name)
        orphaned = [tid for tid, at in self._tasks.items() if at == home]
        self._lost.extend(orphaned[:1])
        for task_id in orphaned:
            del self._tasks[task_id]

    def _send(self, home: int, payload: bytes) -> bool:
        """Write one frame to an agent; a write failure is a disconnect."""
        try:
            if self._agents[home].alive:
                self._agents[home].stream.send(payload)
                return True
        except OSError:
            pass
        self._mark_dead(home)
        return False

    # -- the lane set ---------------------------------------------------------

    def home(self, client_id: int) -> int:
        return self._live[client_id % len(self._live)]

    def send_register(self, home: int, blob: bytes) -> None:
        self._send(home, encode_message(REGISTER, blob=blob))

    def send_broadcast(
        self, home: int, strategy_blob: bytes, handle: bytes, round_index: int
    ) -> None:
        self._send(
            home,
            encode_message(
                BROADCAST,
                {"round": round_index, "strategy_bytes": len(strategy_blob)},
                strategy_blob + handle,
            ),
        )

    def submit(self, task_id: int, home: int, task: tuple) -> None:
        frame = encode_message(
            TASK,
            {"task": task_id, "round": task[1]},
            pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._tasks[task_id] = home  # orphaned on the spot if the send fails
        self._send(home, frame)

    def _read(self, home: int, events: "list[tuple[int, object]]") -> None:
        """Process one frame from the agent at ``home``.  EOF, a read error
        and a frame that is not a protocol message are all a disconnect — a
        mid-upload disconnect (or a garbage frame) can never wedge round
        close."""
        message = _read_message(self._agents[home].stream)
        if message is None:
            self._mark_dead(home)
        elif message.kind != UPLOAD:  # pragma: no cover - protocol violation
            _log.warning("unexpected %r frame from agent %d", message.kind, home)
        elif self._tasks.get(message.meta.get("task")) == home:
            del self._tasks[message.meta["task"]]
            events.append((message.meta["task"], message.blob))

    def poll(self, timeout: "float | None") -> "list[tuple[int, object]]":
        limit = None if timeout is None else time.perf_counter() + timeout
        events: "list[tuple[int, object]]" = []
        while True:
            # Frames already decoded off a socket never re-trigger the
            # selector: drain them before blocking on readability.
            for home, agent in enumerate(self._agents):
                while agent.alive and agent.stream.buffered:
                    self._read(home, events)
            events.extend((task_id, LOST) for task_id in self._lost)
            self._lost.clear()
            if events or not self._selector.get_map():
                return events
            ready = self._selector.select(time_left(limit))
            if not ready:
                return events
            for key, _ in ready:
                self._read(key.data, events)

    def abandon(self, task_id: int) -> None:
        self._tasks.pop(task_id, None)

    def respawn(self, home: int) -> bool:
        # A remote agent is not the server's process to restart.
        self._mark_dead(home)
        return False

    def note_round(
        self, record: "RoundRecord", updates: "list[ClientUpdate]", seconds: float
    ) -> None:
        busy = sum(
            update.train_seconds + update.decode_seconds + update.straggler_seconds
            for update in updates
        )
        record.overlap_seconds = max(0.0, busy - seconds)
        self.pipeline_overlap_rounds.append(record.overlap_seconds)

    def close(self) -> None:
        """Send every live agent a clean shutdown and tear the sockets
        down.  Idempotent; the listener closes too, so a closed executor
        cannot be reused (build a fresh one — agents reconnect)."""
        for home, agent in enumerate(self._agents or []):
            if self._send(home, encode_message(BYE)):
                agent.hang_up()
        self._agents = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._tasks.clear()
        try:
            self._listen_sock.close()
        except OSError:  # pragma: no cover
            pass
        super().close()
