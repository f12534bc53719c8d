"""Client agent: the training endpoint of every out-of-process lane.

``python -m repro.fl.net.agent --connect host:port`` dials a
:class:`repro.fl.net.executor.RemoteExecutor` (or the standalone daemon,
:mod:`repro.fl.net.serve`); a :class:`repro.fl.net.executor.ParallelExecutor`
launches the same loop itself, one process per lane, on one end of a
``socket.socketpair()``.  Either way :func:`serve` performs the
hello/welcome handshake and then serves the federation protocol until the
server says goodbye or hangs up: registrations make clients resident (and
are acknowledged), broadcasts install each round's strategy and (lazily
decoded) global state, tasks train co-resident client groups, and each
task's updates stream straight back as an upload frame — or, if training
raised, as an error frame carrying the traceback.

The entire training side is :class:`repro.fl.wire.WorkerRuntime`, built
from the three negotiated values the welcome carries (model blob, codec,
transport).  One runtime per connection, held in locals rather than
module globals, so :func:`run_agent` is equally usable as a thread target
(the in-process tests run several agents in one interpreter) and as a
process entrypoint.
"""

from __future__ import annotations

import argparse
import os
import pickle
import socket
import sys
import time
import traceback

from repro.fl.net.frames import FrameStream
from repro.fl.net.protocol import (
    BROADCAST,
    BYE,
    ERROR,
    HELLO,
    REGISTER,
    REGISTERED,
    REJECT,
    TASK,
    UPLOAD,
    WELCOME,
    HandshakeError,
    Message,
    broadcast_parts,
    decode_message,
    encode_message,
    hello_meta,
)
from repro.fl.net.transport import parse_endpoint
from repro.fl.wire import WorkerRuntime
from repro.utils.logging import get_logger

__all__ = ["run_agent", "serve", "main"]

_log = get_logger("fl.net.agent")

#: How long a starting agent keeps retrying the initial connect — agents
#: and the server race to start in CI, and the agent losing the race by a
#: second is routine, not an error.
_CONNECT_RETRY_SECONDS = 30.0
_CONNECT_RETRY_DELAY = 0.2


def _connect(host: str, port: int, retry_seconds: float) -> socket.socket:
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            return socket.create_connection((host, port), timeout=30.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(_CONNECT_RETRY_DELAY)


def _answer(runtime: WorkerRuntime, message: Message) -> "bytes | None":
    """Handle one server message; the reply frame payload, if any."""
    if message.kind == REGISTER:
        runtime.register(message.blob)
        return encode_message(REGISTERED)
    if message.kind == BROADCAST:
        runtime.broadcast(*broadcast_parts(message, runtime.transport))
        return None
    if message.kind == TASK:
        task = pickle.loads(message.blob)
        fault = task[3]
        if fault is not None and fault.kind == "crash":
            # The plan's crash victim: a hard crash, no cleanup and no
            # answer, exactly like a kill -9 (os._exit skips atexit and
            # finalizers on purpose).  Only a launched agent is ever sent
            # one; the server sees EOF and relaunches the lane.
            os._exit(1)
        wire = runtime.run_task(task)
        return encode_message(UPLOAD, {"task": message.meta["task"]}, wire)
    _log.warning("ignoring unexpected %r frame", message.kind)  # pragma: no cover
    return None


def serve(sock: socket.socket, name: str = "", codec: "str | None" = None) -> int:
    """Handshake on a connected socket, then serve it until ``bye`` or EOF;
    returns the number of tasks trained.

    ``codec`` is an optional *pin*: the agent refuses — and the server
    rejects the handshake — if the federation negotiated anything else.
    Raises :class:`repro.fl.net.protocol.HandshakeError` on a reject.  An
    exception while handling a message is answered with an ``error`` frame
    and the loop goes on; the server decides what it means.
    """
    stream = FrameStream(sock)
    stream.send(encode_message(HELLO, hello_meta(name=name, codec=codec)))
    frame = stream.next_frame()
    if frame is None:
        raise HandshakeError("server closed during handshake")
    message = decode_message(frame)
    if message.kind == REJECT:
        raise HandshakeError(message.meta.get("reason", "handshake rejected"))
    if message.kind != WELCOME:
        raise HandshakeError(f"expected welcome, got {message.kind!r}")
    runtime = WorkerRuntime(
        message.blob, message.meta["codec"], message.meta.get("transport", "pipe")
    )
    _log.info("agent %r joined (codec=%s)", name or "<anon>", message.meta["codec"])
    tasks_served = 0
    try:
        while (frame := stream.next_frame()) is not None:
            message = decode_message(frame)
            if message.kind == BYE:
                break
            try:
                reply = _answer(runtime, message)
                tasks_served += message.kind == TASK
            except Exception:
                reply = encode_message(
                    ERROR,
                    {"task": message.meta.get("task"), "text": traceback.format_exc()},
                )
            if reply is not None:
                stream.send(reply)
    except OSError:
        pass  # the server vanished; nothing left to serve
    finally:
        # The round state and the codec reference may be zero-copy views of
        # attached shm segments; a segment closed (or collected) while they
        # live reports its exported buffer.
        runtime.state = runtime.bcast_ref = None
        runtime.transport.close()
    return tasks_served


def serve_launched(
    sock: socket.socket, name: str, inherited: "list[socket.socket]"
) -> None:
    """Process target of a launched agent.  ``inherited`` are the server
    ends of this and the sibling lanes' socketpairs, which a fork-started
    child holds copies of: closed first, or a lane the server hangs up on
    would never see EOF while a younger sibling keeps its peer open."""
    for other in inherited:
        other.close()
    with sock:
        serve(sock, name)


def run_agent(
    connect: "str | tuple[str, int]",
    name: str = "",
    codec: "str | None" = None,
    retry_seconds: float = _CONNECT_RETRY_SECONDS,
) -> int:
    """Dial ``connect`` (``"host:port"`` or a ready tuple) and :func:`serve`
    the connection to completion; returns the number of tasks trained."""
    host, port = (
        parse_endpoint(connect) if isinstance(connect, str) else connect
    )
    with _connect(host, port, retry_seconds) as sock:
        sock.settimeout(None)
        return serve(sock, name, codec)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fl.net.agent",
        description="Join a federation as a remote client agent.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="server endpoint to join",
    )
    parser.add_argument(
        "--name", default="", help="agent name shown in server logs"
    )
    parser.add_argument(
        "--codec", default=None,
        help="pin the wire codec: refuse any other negotiated spec",
    )
    args = parser.parse_args(argv)
    try:
        served = run_agent(args.connect, name=args.name, codec=args.codec)
    except HandshakeError as exc:
        print(f"handshake failed: {exc}", file=sys.stderr)
        return 2
    print(f"agent {args.name or '<anon>'} served {served} task(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover - process entrypoint
    sys.exit(main())
