"""The socket lane: every out-of-process endpoint is an agent on a socket.

Both out-of-process engines are this one lane set of the shared round
lifecycle (:class:`repro.fl.round.Executor`), and differ only in where
their agents (:mod:`repro.fl.net.agent`) come from:

* :class:`RemoteExecutor` accepts agents that dial in over TCP — other
  processes, usually on other machines;
* :class:`ParallelExecutor` launches its own, one process per lane, each on
  one end of a ``socket.socketpair()``.

Either way an agent says hello, is welcomed with the model template and the
negotiated codec and transport, and serves the protocol of
:mod:`repro.fl.net.protocol` through one :class:`repro.fl.wire.WorkerRuntime`.
The round itself is the one :meth:`~repro.fl.round.Executor.run_round`
every engine shares, so traces are engine-invariant by construction.  This
module only knows sockets: the handshake, writing frames, a selector read,
and what a dead peer looks like.

Pipelined rounds
----------------
A round's registration, broadcast, and task frames are written to **all**
agents before any upload is awaited, and uploads are ingested in arrival
order.  Each agent therefore trains concurrently with the other agents'
transfers and training — the overlap the paper's scalability axis is
about.  The overlap actually achieved is measured per round (endpoint
busy-time minus the remote phase's wall clock, floored at zero) and written
into the round's record (``RoundRecord.overlap_seconds``, summed into
``TimingReport.pipeline_overlap_seconds``) and onto
:attr:`pipeline_overlap_rounds`.  A registration is the one frame that is
waited on (the agent acknowledges it), so a lane still finishing an
abandoned task finishes it before the round's deadline clock starts.

Fault semantics
---------------
As on every lane (see the table in :mod:`repro.fl.executor`).  A lost
agent — socket EOF, a write error or an undecodable frame — reports its
outstanding tasks lost.  A launched agent is relaunched and re-helloed in
place, and the round re-runs what it lost; a remote agent is not the
server's process to restart, so its clients drop with reason
``"disconnect"`` (:mod:`repro.fl.faults`, "Drop reasons") and are re-homed
(and re-registered) across the remaining agents on the next round.  A task
that raises on its agent comes back as an ``error`` frame: a live task's
error is a :class:`RuntimeError` here, naming the agent and carrying the
remote traceback; an abandoned task's error, like its late upload, is
discarded by task id.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import selectors
import socket
import sys
import time
from typing import TYPE_CHECKING

from repro.fl.evaluation import FORK_LOCK
from repro.fl.net.agent import serve_launched
from repro.fl.net.frames import FrameError, FrameStream, encode_frame
from repro.fl.net.protocol import (
    BYE,
    ERROR,
    HELLO,
    REGISTER,
    REGISTERED,
    REJECT,
    TASK,
    UPLOAD,
    WELCOME,
    Message,
    broadcast_message,
    decode_message,
    encode_message,
    evaluate_hello,
    PROTOCOL_VERSION,
)
from repro.fl.net.transport import parse_endpoint
from repro.fl.round import LOST, Executor, time_left
from repro.fl.transport import make_transport
from repro.nn.module import architecture_signature
from repro.nn.serialize import encode_payload
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.codec import Codec
    from repro.fl.executor import ClientUpdate
    from repro.fl.faults import AdaptiveDeadline, FaultPlan, FixedDeadline
    from repro.fl.history import RoundRecord
    from repro.fl.transport import Transport
    from repro.nn.models import FeatureClassifierModel

__all__ = ["RemoteExecutor", "ParallelExecutor"]

_log = get_logger("fl.net.executor")

#: Seconds the server waits for each expected agent to connect *and*
#: complete its handshake before declaring the federation unformable: one
#: budget covers the accept (or the launch) and the hello read that follows.
_ACCEPT_TIMEOUT = 60.0

#: Seconds :meth:`ParallelExecutor.close` grants its agents to leave after
#: ``bye`` before killing them: one still chewing on an abandoned task may
#: be genuinely wedged — the failure a deadline exists to survive — and its
#: result can never be used.
_CLOSE_GRACE = 0.75


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
    """One connected endpoint, as the server sees it."""

    __slots__ = ("sock", "stream", "name", "alive", "process")

    def __init__(self, sock: socket.socket, stream: FrameStream, name: str) -> None:
        self.sock = sock
        self.stream = stream
        self.name = name
        self.alive = True
        #: The agent's process when this server launched it.
        self.process: "multiprocessing.process.BaseProcess | None" = None

    def hang_up(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class _AgentLanes(Executor):
    """The lane set over ``count`` agents; subclasses say how an agent
    joins (:meth:`_join`) and whether a lost one comes back
    (:meth:`respawn`)."""

    def __init__(
        self,
        count: int,
        transport: "str | Transport",
        codec: "str | Codec",
        faults: "str | FaultPlan | None",
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None",
        quorum: "int | None",
    ) -> None:
        super().__init__(codec=codec, faults=faults, deadline=deadline, quorum=quorum)
        self._count = count
        self.transport = make_transport(transport)
        #: Per-completed-round overlap seconds (see the module docstring).
        self.pipeline_overlap_rounds: "list[float]" = []
        self._agents: "list[_Agent] | None" = None
        self._architecture: "tuple | None" = None
        self._model_blob = b""
        # Indices (into _agents) of the agents alive when the round opened:
        # the layout clients are homed over, fixed for the whole round.
        self._live: "list[int]" = []
        self._selector: "selectors.BaseSelector | None" = None
        # task id -> home of every task sent and not yet answered.  An
        # answer whose id is not here (a previous round's zombie, or an
        # abandoned task finishing late) is discarded.
        self._tasks: "dict[int, int]" = {}
        # (task id, upload or LOST) read off the sockets, for the next poll.
        self._events: "list[tuple[int, object]]" = []

    # -- federation membership -----------------------------------------------

    def _join(self) -> None:
        """Bring the next agent into ``_agents`` (handshake included)."""
        raise NotImplementedError

    def _welcome(self, sock: socket.socket, peer: str) -> "_Agent | None":
        """Run hello/welcome on a connected socket whose timeout bounds the
        hello read; a peer that is turned away is closed (``None``)."""
        stream = FrameStream(sock)
        message = _read_message(stream)
        reason = (
            "no hello"
            if message is None or message.kind != HELLO
            else evaluate_hello(message.meta, codec_spec=self.codec.spec)
        )
        try:
            if reason is None:
                meta = {
                    "version": PROTOCOL_VERSION,
                    "codec": self.codec.spec,
                    "transport": self.transport.spec,
                }
                stream.send(encode_message(WELCOME, meta, self._model_blob))
                sock.settimeout(None)  # rounds use blocking reads
                self.wire.registration_bytes += len(self._model_blob)
                return _Agent(sock, stream, message.meta.get("name") or peer)
            _log.warning("rejecting agent %s: %s", peer, reason)
            stream.send(encode_message(REJECT, {"reason": reason}))
        except OSError:
            pass  # the peer vanished mid-handshake
        sock.close()
        return None

    def _seat(self, home: int, agent: _Agent) -> None:
        """Put ``agent`` at ``home`` (a new lane, or in place of a lost one)."""
        self._selector.register(agent.sock, selectors.EVENT_READ, home)
        if home == len(self._agents):
            self._agents.append(agent)
        else:
            self._agents[home] = agent

    def open(self, model: "FeatureClassifierModel") -> None:
        architecture = architecture_signature(model)
        if self._agents is not None and architecture != self._architecture:
            self._template_changed()
        if self._agents is None:
            self._model_blob = encode_payload(model)
            self._agents = []
            self._selector = selectors.DefaultSelector()
            while len(self._agents) < self._count:
                self._join()
            self.wire.unique_registration_bytes += len(self._model_blob)
            self._architecture = architecture
        self._live = [i for i, agent in enumerate(self._agents) if agent.alive]
        if not self._live:
            raise RuntimeError("every agent has disconnected")

    def _template_changed(self) -> None:
        raise RuntimeError(
            "model architecture changed mid-federation; remote agents "
            "hold the old template — build a fresh RemoteExecutor"
        )

    def _mark_dead(self, home: int) -> None:
        """The agent at ``home`` is gone: close its socket and report its
        unanswered tasks lost (one ``LOST`` speaks for the home)."""
        agent = self._agents[home]
        if agent.alive:
            self._selector.unregister(agent.sock)
            agent.hang_up()
            _log.warning("agent %r disconnected", agent.name)
        orphaned = [tid for tid, at in self._tasks.items() if at == home]
        self._events.extend((task_id, LOST) for task_id in orphaned[:1])
        for task_id in orphaned:
            del self._tasks[task_id]

    def _send(self, home: int, payload: bytes) -> bool:
        """Write one frame to an agent; a write failure is a disconnect.

        The socket is never left blocking on a full buffer: an agent busy
        writing its own upload is not reading either, so while the frame
        does not fit, the agent's frames are read in between (onto the
        next poll's events)."""
        agent = self._agents[home]
        data = memoryview(encode_frame(payload))
        try:
            while agent.alive and data:
                readable, writable, _ = select.select([agent.sock], [agent.sock], [])
                if writable:
                    try:
                        data = data[agent.sock.send(data, socket.MSG_DONTWAIT):]
                    except BlockingIOError:
                        pass
                elif readable:
                    self._read(home)
            if agent.alive:
                return True
        except OSError:
            pass
        self._mark_dead(home)
        return False

    # -- the lane set ---------------------------------------------------------

    def home(self, client_id: int) -> int:
        return self._live[client_id % len(self._live)]

    def send_register(self, home: int, blob: bytes) -> None:
        # Waited on: the ack comes back after the registration is
        # installed, behind whatever the agent was still finishing (an
        # abandoned task's answer is read, and discarded, on the way).
        if self._send(home, encode_message(REGISTER, blob=blob)):
            while self._agents[home].alive and self._read(home) != REGISTERED:
                pass

    def send_broadcast(
        self, home: int, strategy_blob: bytes, handle: object, round_index: int
    ) -> None:
        self._send(home, broadcast_message(strategy_blob, handle, round_index))

    def submit(self, task_id: int, home: int, task: tuple) -> None:
        frame = encode_message(
            TASK,
            {"task": task_id, "round": task[1]},
            pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._tasks[task_id] = home  # orphaned on the spot if the send fails
        self._send(home, frame)

    def _read(self, home: int) -> "str | None":
        """Process one frame from the agent at ``home``; returns its kind
        (``None``: the agent is lost).  EOF, a read error and a frame that
        is not a protocol message are all a disconnect — a mid-upload
        disconnect (or a garbage frame) can never wedge round close."""
        agent = self._agents[home]
        message = _read_message(agent.stream)
        if message is None:
            self._mark_dead(home)
            return None
        task_id = message.meta.get("task")
        live = self._tasks.get(task_id) == home
        if message.kind == UPLOAD and live:
            del self._tasks[task_id]
            self._events.append((task_id, message.blob))
        elif message.kind == ERROR and (live or task_id is None):
            self._tasks.pop(task_id, None)
            what = "a registration or broadcast" if task_id is None else f"task {task_id}"
            raise RuntimeError(
                f"agent {agent.name!r} failed {what}:\n{message.meta.get('text')}"
            )
        elif message.kind not in (UPLOAD, ERROR, REGISTERED):  # pragma: no cover
            _log.warning("unexpected %r frame from agent %r", message.kind, agent.name)
        return message.kind

    def poll(self, timeout: "float | None") -> "list[tuple[int, object]]":
        limit = None if timeout is None else time.perf_counter() + timeout
        while True:
            # Frames already decoded off a socket never re-trigger the
            # selector: drain them before blocking on readability.
            for home, agent in enumerate(self._agents):
                while agent.alive and agent.stream.buffered:
                    self._read(home)
            if self._events or not self._selector.get_map():
                events, self._events = self._events, []
                return events
            ready = self._selector.select(time_left(limit))
            if not ready:
                return []
            for key, _ in ready:
                self._read(key.data)

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
        down.  Idempotent."""
        for home, agent in enumerate(self._agents or []):
            if self._send(home, encode_message(BYE)):
                agent.hang_up()
        self._agents = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._tasks.clear()
        self._events.clear()
        super().close()


class RemoteExecutor(_AgentLanes):
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
    a run starts.  One executor serves consecutive runs over the same
    agents as long as the model architecture is unchanged.  Agents fetch
    broadcasts from their own connection, so both ends run the
    blob-is-the-handle ``pipe`` transport: every agent pulls its own full
    copy over its own socket, and the wire stats charge it as such.
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
        if num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {num_agents}")
        super().__init__(num_agents, "pipe", codec, faults, deadline, quorum)
        self.num_agents = num_agents
        self._listen_sock = socket.create_server(
            parse_endpoint(listen), reuse_port=False
        )

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` agents should connect to."""
        return self._listen_sock.getsockname()[:2]

    def _join(self) -> None:
        """Accept one connection and run hello/welcome on it; a peer that
        is turned away is closed and the next call accepts another.

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
        agent = self._welcome(sock, f"{peer[0]}:{peer[1]}")
        if agent is not None:
            self._seat(len(self._agents), agent)
            _log.info(
                "agent %r joined (%d/%d)", agent.name, len(self._agents), self.num_agents
            )

    def close(self) -> None:
        """As :meth:`_AgentLanes.close`; the listener closes too, so a
        closed executor cannot be reused (build a fresh one — agents
        reconnect)."""
        super().close()
        try:
            self._listen_sock.close()
        except OSError:  # pragma: no cover
            pass


def _default_start_method() -> str:
    # fork is cheapest and inherits the import state, but it is only
    # reliably safe on Linux (macOS system frameworks may abort or deadlock
    # in forked children — the reason CPython switched that platform's
    # default to spawn).  Everywhere else, trust the platform default.
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class ParallelExecutor(_AgentLanes):
    """Fan sampled clients out to sticky worker processes: agents this
    executor launches itself, one per lane, each serving one end of a
    ``socket.socketpair()``.

    Parameters
    ----------
    num_workers:
        Lane count.  Defaults to ``min(4, cpu_count)`` (at least 2 — a
        single worker is strictly worse than
        :class:`repro.fl.executor.SerialExecutor`).
    transport:
        How encoded broadcast blobs reach the agents
        (:mod:`repro.fl.transport`): ``"pipe"`` copies the blob into each
        participating agent's socket, ``"shm"`` publishes one
        shared-memory copy per round, ``"tcp"`` one blob-server copy, and
        ``"auto"`` (default) prefers ``shm`` when the platform supports
        it.  Negotiated in the welcome like the codec; purely mechanical —
        traces are transport-invariant.
    codec, faults, deadline, quorum:
        As on every engine (:class:`repro.fl.round.Executor`).  Injected
        faults travel inside the task tuples, so agents need no plan of
        their own.  The round ``deadline`` is measured from the moment the
        round's tasks have all been dispatched; a task it (or a ``quorum``
        close) leaves running finishes on its agent and its answer is
        discarded by task id; the client re-registers before its next
        participation.

    Every client is pinned to lane ``client_id % num_workers``: the lane's
    agent serves its socket in order, so a client's home keeps its dataset,
    scratch, and the round's broadcast without any cross-lane coordination,
    and the first unanswered task of a lost lane is the one that was
    executing when it died.  The plan's crash victim is dispatched and its
    agent really ``os._exit``s; a lost agent is relaunched and re-helloed.
    Caches an agent builds in a client's scratch (PARDON's
    style-transferred images) stay there; a relaunched agent or a
    re-registered client recomputes them, which cannot move the trace.

    The agents are launched (under ``fork`` on Linux, the platform's
    default start method elsewhere) at the first round and relaunched only
    when a different model *architecture* shows up, so one executor (and
    its warm agents) serves consecutive runs — e.g. every split of a LODO
    sweep, whose fresh client objects re-register under the same ids.
    """

    kills_crash_victims = True

    def __init__(
        self,
        num_workers: "int | None" = None,
        codec: "str | Codec" = "identity",
        transport: "str | Transport" = "auto",
        faults: "str | FaultPlan | None" = None,
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None" = None,
        quorum: "int | None" = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers or max(2, min(4, os.cpu_count() or 2))
        super().__init__(self.num_workers, transport, codec, faults, deadline, quorum)

    def _join(self) -> None:
        self._seat(len(self._agents), self._launch(len(self._agents)))

    def _launch(self, home: int) -> _Agent:
        """Start one agent process on a fresh socketpair and welcome it."""
        ours, theirs = socket.socketpair()
        # A forked child holds copies of every server end open right now;
        # it closes them first (see serve_launched).  Other start methods
        # pass the child its own end only.
        start_method = _default_start_method()
        inherited = (
            [ours] + [agent.sock for agent in self._agents]
            if start_method == "fork"
            else []
        )
        name = f"worker{home}"
        process = multiprocessing.get_context(start_method).Process(
            target=serve_launched, args=(theirs, name, inherited),
            name=f"repro-{name}", daemon=True,
        )
        with theirs, FORK_LOCK:
            process.start()
        ours.settimeout(_ACCEPT_TIMEOUT)
        agent = self._welcome(ours, name)
        if agent is None:
            process.kill()
            process.join()
            raise RuntimeError(f"launched agent {name!r} failed its handshake")
        agent.process = process
        return agent

    def _template_changed(self) -> None:
        self.close()

    def open(self, model: "FeatureClassifierModel") -> None:
        # An agent lost outside any round's loss path (nothing of it was
        # outstanding) comes back before the round is homed.
        for home, agent in enumerate(self._agents or ()):
            if not agent.alive:
                self.respawn(home)
                self._forget_home(home)
        super().open(model)

    def respawn(self, home: int) -> bool:
        """Relaunch the lost agent at ``home`` and re-hello it; the model
        template re-ships with the welcome."""
        self._mark_dead(home)
        _reap(self._agents[home])
        self._seat(home, self._launch(home))
        return True

    def close(self) -> None:
        """``bye`` to every agent, then :data:`_CLOSE_GRACE` seconds for
        them to leave before the stragglers are killed."""
        agents = self._agents or []
        super().close()
        grace_ends = time.monotonic() + _CLOSE_GRACE
        for agent in agents:
            agent.process.join(max(0.0, grace_ends - time.monotonic()))
            _reap(agent)
        self.transport.close()


def _reap(agent: _Agent) -> None:
    """Kill (if still running) and join a launched agent's process."""
    agent.process.kill()
    agent.process.join()
